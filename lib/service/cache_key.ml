module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind
module Version = Standby_cells.Version
module Process_config = Standby_device.Process_config
module Optimizer = Standby_opt.Optimizer

let canonical net =
  let buf = Buffer.create 4096 in
  let inputs = Netlist.inputs net in
  Buffer.add_string buf (Printf.sprintf "inputs %d\n" (Array.length inputs));
  let canon = Array.make (Netlist.node_count net) (-1) in
  Array.iteri (fun position id -> canon.(id) <- position) inputs;
  let next = ref (Array.length inputs) in
  let emit id =
    let fanin = Netlist.fanin net id in
    let kind = match Netlist.kind_of net id with Some k -> k | None -> assert false in
    let cid = !next in
    incr next;
    canon.(id) <- cid;
    Buffer.add_string buf (Printf.sprintf "n%d = %s(" cid (Gate_kind.name kind));
    Array.iteri
      (fun pin driver ->
        if pin > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "n%d" canon.(driver)))
      fanin;
    Buffer.add_string buf ")\n"
  in
  Netlist.postorder ~fanin:(Netlist.fanin net) (Netlist.node_count net) (Netlist.outputs net) emit;
  Buffer.add_string buf "outputs ";
  Array.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "n%d" canon.(id)))
    (Netlist.outputs net);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let method_descriptor m =
  String.concat ":"
    (Optimizer.method_token m
    :: List.map
         (function
           | Optimizer.Time_limit t -> Printf.sprintf "%.9g" t
           | Optimizer.Rounds r -> string_of_int r
           | Optimizer.Regions k -> Printf.sprintf "r%d" k)
         (Optimizer.method_params m))

let mode_descriptor (mode : Version.mode) =
  Printf.sprintf "points=%s uniform-vt=%b high-vt=%b thick-tox=%b reorder=%b"
    (match mode.Version.trade_points with
     | Version.Two_points -> "2"
     | Version.Four_points -> "4")
    mode.Version.uniform_stack_vt mode.Version.allow_high_vt mode.Version.allow_thick_tox
    mode.Version.allow_pin_reorder

let digest ~net ~process ~mode ~penalty ~method_ =
  let payload =
    String.concat "\x00"
      [
        canonical net;
        Process_config.to_string process;
        mode_descriptor mode;
        Printf.sprintf "penalty=%.17g" penalty;
        method_descriptor method_;
      ]
  in
  Digest.to_hex (Digest.string payload)
