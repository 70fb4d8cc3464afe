module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind
module Version = Standby_cells.Version
module Process_config = Standby_device.Process_config
module Optimizer = Standby_opt.Optimizer
module Metrics = Standby_telemetry.Metrics

(* Decimal digits of [n], as [string_of_int] prints them, straight into
   [buf]: the rendering is one signal number per pin, so formatting
   dominates it. *)
let rec add_int buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_int buf (-n)
  end
  else begin
    if n >= 10 then add_int buf (n / 10);
    Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
  end

let add_signal buf n =
  Buffer.add_char buf 'n';
  add_int buf n

let canonical net =
  let n = Netlist.node_count net in
  let buf = Buffer.create (16 * (n + 1)) in
  let inputs = Netlist.inputs net in
  Buffer.add_string buf "inputs ";
  add_int buf (Array.length inputs);
  Buffer.add_char buf '\n';
  let canon = Array.make n (-1) in
  Array.iteri (fun position id -> canon.(id) <- position) inputs;
  let next = ref (Array.length inputs) in
  let emit id =
    let fanin = Netlist.fanin net id in
    let kind = match Netlist.kind_of net id with Some k -> k | None -> assert false in
    let cid = !next in
    incr next;
    canon.(id) <- cid;
    add_signal buf cid;
    Buffer.add_string buf " = ";
    Buffer.add_string buf (Gate_kind.name kind);
    Buffer.add_char buf '(';
    for pin = 0 to Array.length fanin - 1 do
      if pin > 0 then Buffer.add_char buf ',';
      add_signal buf canon.(fanin.(pin))
    done;
    Buffer.add_string buf ")\n"
  in
  Netlist.postorder ~fanin:(Netlist.fanin net) n (Netlist.outputs net) emit;
  Buffer.add_string buf "outputs ";
  Array.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ',';
      add_signal buf canon.(id))
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

let digest_of_canonical ~canonical ~process ~mode ~penalty ~method_ =
  let payload =
    String.concat "\x00"
      [
        canonical;
        Process_config.to_string process;
        mode_descriptor mode;
        Printf.sprintf "penalty=%.17g" penalty;
        method_descriptor method_;
      ]
  in
  Digest.to_hex (Digest.string payload)

let digest ~net ~process ~mode ~penalty ~method_ =
  digest_of_canonical ~canonical:(canonical net) ~process ~mode ~penalty ~method_

module Source_memo = struct
  let render = canonical

  type t = {
    cap_bytes : int;
    mutex : Mutex.t;
    table : (string, string) Hashtbl.t;  (* source text -> its rendering *)
    order : string Queue.t;  (* stored texts, oldest first *)
    mutable bytes : int;
    hits : Metrics.counter;
    misses : Metrics.counter;
    evictions : Metrics.counter;
    bytes_gauge : Metrics.gauge;
  }

  let create ~hits ~misses ~evictions ~bytes ~cap_bytes =
    {
      cap_bytes;
      mutex = Mutex.create ();
      table = Hashtbl.create 16;
      order = Queue.create ();
      bytes = 0;
      hits;
      misses;
      evictions;
      bytes_gauge = bytes;
    }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let entry_bytes text rendering = String.length text + String.length rendering

  (* Under the lock.  A text another caller stored while this one was
     parsing is already there with the same rendering. *)
  let store t text rendering =
    let size = entry_bytes text rendering in
    if size <= t.cap_bytes && not (Hashtbl.mem t.table text) then begin
      while t.bytes + size > t.cap_bytes do
        let oldest = Queue.pop t.order in
        t.bytes <- t.bytes - entry_bytes oldest (Hashtbl.find t.table oldest);
        Hashtbl.remove t.table oldest;
        Metrics.incr t.evictions
      done;
      Hashtbl.replace t.table text rendering;
      Queue.push text t.order;
      t.bytes <- t.bytes + size;
      Metrics.set_gauge t.bytes_gauge (float_of_int t.bytes)
    end

  let canonical t text ~parse =
    match locked t (fun () -> Hashtbl.find_opt t.table text) with
    | Some rendering ->
      Metrics.incr t.hits;
      Ok rendering
    | None ->
      Metrics.incr t.misses;
      Result.map
        (fun net ->
          let rendering = render net in
          locked t (fun () -> store t text rendering);
          rendering)
        (parse text)
end
