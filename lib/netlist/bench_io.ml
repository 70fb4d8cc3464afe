type statement =
  | S_input of string
  | S_output of string
  | S_def of { signal : string; func : Logic_build.func; args : string list }
  | S_dff of { signal : string; args : string list }

exception Error of string

let fail line fmt =
  Printf.ksprintf (fun s -> raise (Error (Printf.sprintf "line %d: %s" line s))) fmt

(* [None] names a D flip-flop, which the reader cuts itself. *)
let func_of_name line s =
  match String.uppercase_ascii s with
  | "AND" -> Some Logic_build.And
  | "NAND" -> Some Logic_build.Nand
  | "OR" -> Some Logic_build.Or
  | "NOR" -> Some Logic_build.Nor
  | "XOR" -> Some Logic_build.Xor
  | "XNOR" -> Some Logic_build.Xnor
  | "NOT" | "INV" -> Some Logic_build.Not
  | "BUF" | "BUFF" -> Some Logic_build.Buf
  | "DFF" -> None
  | other -> fail line "unknown gate function %S" other

let strip s = String.trim s

(* "NAME(arg)" -> Some (name, arg); tolerant about inner spaces. *)
let parse_call line s =
  match String.index_opt s '(' with
  | None -> None
  | Some open_paren ->
    (match String.rindex_opt s ')' with
     | None -> fail line "missing closing parenthesis"
     | Some close_paren when close_paren < open_paren -> fail line "mismatched parentheses"
     | Some close_paren ->
       let head = strip (String.sub s 0 open_paren) in
       let inner = String.sub s (open_paren + 1) (close_paren - open_paren - 1) in
       Some (head, List.map strip (String.split_on_char ',' inner)))

let parse_line line_no raw =
  let text =
    match String.index_opt raw '#' with
    | None -> strip raw
    | Some i -> strip (String.sub raw 0 i)
  in
  if text = "" then None
  else
    match String.index_opt text '=' with
    | Some eq ->
      let signal = strip (String.sub text 0 eq) in
      let rhs = strip (String.sub text (eq + 1) (String.length text - eq - 1)) in
      if signal = "" then fail line_no "empty signal name";
      (match parse_call line_no rhs with
       | Some (fname, args) when args <> [ "" ] ->
         (match func_of_name line_no fname with
          | Some func -> Some (S_def { signal; func; args })
          | None -> Some (S_dff { signal; args }))
       | Some (fname, _) ->
         if func_of_name line_no fname = None then fail line_no "DFF with no argument"
         else fail line_no "gate with no argument"
       | None -> fail line_no "expected a gate call on the right-hand side")
    | None ->
      (match parse_call line_no text with
       | Some (head, [ arg ]) when String.uppercase_ascii head = "INPUT" -> Some (S_input arg)
       | Some (head, [ arg ]) when String.uppercase_ascii head = "OUTPUT" -> Some (S_output arg)
       | Some (head, _) -> fail line_no "unexpected directive %S" head
       | None -> fail line_no "cannot parse %S" text)

(* One pass over the source, cutting on newlines in place: a 1M-gate
   file is ~30 MB, and materializing its lines or statements before
   elaboration would double the footprint.  Each parsed statement is
   consumed immediately instead. *)
let iter_lines source f =
  let n = String.length source in
  let line_no = ref 0 in
  let start = ref 0 in
  while !start < n do
    let stop =
      match String.index_from_opt source !start '\n' with Some i -> i | None -> n
    in
    incr line_no;
    f !line_no (String.sub source !start (stop - !start));
    start := stop + 1
  done

let of_string ?(name = "bench") source =
  try
    Logic_build.elaborate ~name (fun define ->
        let inputs = ref [] and outputs = ref [] and dff_cuts = ref [] in
        iter_lines source (fun line_no line ->
            match parse_line line_no line with
            | None -> ()
            | Some (S_input s) -> inputs := s :: !inputs
            | Some (S_output s) -> outputs := s :: !outputs
            | Some (S_dff { signal; args = [ data ] }) ->
              (* Cut the flop: output side becomes an input, data side a
                 pseudo primary output so its cone is preserved. *)
              inputs := signal :: !inputs;
              dff_cuts := data :: !dff_cuts
            | Some (S_dff { signal; _ }) ->
              raise (Error (Printf.sprintf "DFF %S needs one argument" signal))
            | Some (S_def { signal; func; args }) -> define signal func args);
        (List.rev !inputs, List.rev !outputs @ List.rev !dff_cuts))
  with Error msg -> Error msg

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | source -> of_string ~name:(Filename.remove_extension (Filename.basename path)) source
  | exception Sys_error msg -> Error msg

(* Straight-line Buffer emission: ~70 bytes per statement means a
   million-gate netlist is tens of MB, so the hot path avoids the
   list/String.concat round-trips per gate (the Buffer doubles itself
   to the final size in O(log) reallocations). *)
let to_string net =
  let buf =
    Buffer.create (256 + (48 * (Netlist.node_count net + Netlist.gate_count net / 8)))
  in
  Buffer.add_string buf "# ";
  Buffer.add_string buf (Netlist.design_name net);
  Buffer.add_char buf '\n';
  Array.iter
    (fun i ->
      Buffer.add_string buf "INPUT(";
      Buffer.add_string buf (Netlist.name_of net i);
      Buffer.add_string buf ")\n")
    (Netlist.inputs net);
  Array.iter
    (fun i ->
      Buffer.add_string buf "OUTPUT(";
      Buffer.add_string buf (Netlist.name_of net i);
      Buffer.add_string buf ")\n")
    (Netlist.outputs net);
  Netlist.iter_gates net (fun i kind fanin ->
      let arg pin = Netlist.name_of net fanin.(pin) in
      let add_args lo hi =
        for pin = lo to hi do
          if pin > lo then Buffer.add_string buf ", ";
          Buffer.add_string buf (arg pin)
        done
      in
      let emit_head signal func =
        Buffer.add_string buf signal;
        Buffer.add_string buf " = ";
        Buffer.add_string buf func;
        Buffer.add_char buf '('
      in
      let emit_all func =
        emit_head (Netlist.name_of net i) func;
        add_args 0 (Array.length fanin - 1);
        Buffer.add_string buf ")\n"
      in
      match kind with
      | Gate_kind.Inv -> emit_all "NOT"
      | Gate_kind.Nand2 | Gate_kind.Nand3 | Gate_kind.Nand4 -> emit_all "NAND"
      | Gate_kind.Nor2 | Gate_kind.Nor3 | Gate_kind.Nor4 -> emit_all "NOR"
      | Gate_kind.Aoi21 ->
        (* not (a*b + c) = NOR(AND(a,b), c), via an auxiliary signal. *)
        let aux = Netlist.name_of net i ^ "_and" in
        emit_head aux "AND";
        add_args 0 1;
        Buffer.add_string buf ")\n";
        emit_head (Netlist.name_of net i) "NOR";
        Buffer.add_string buf aux;
        Buffer.add_string buf ", ";
        Buffer.add_string buf (arg 2);
        Buffer.add_string buf ")\n"
      | Gate_kind.Oai21 ->
        (* not ((a+b) * c) = NAND(OR(a,b), c). *)
        let aux = Netlist.name_of net i ^ "_or" in
        emit_head aux "OR";
        add_args 0 1;
        Buffer.add_string buf ")\n";
        emit_head (Netlist.name_of net i) "NAND";
        Buffer.add_string buf aux;
        Buffer.add_string buf ", ";
        Buffer.add_string buf (arg 2);
        Buffer.add_string buf ")\n");
  Buffer.contents buf

let write_file path net =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (to_string net))
