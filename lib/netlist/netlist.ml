type node = Primary_input | Cell of { kind : Gate_kind.t; fanin : int array }

type t = {
  design_name : string;
  nodes : node array;
  inputs : int array;
  outputs : int array;
  names : string array;
  fanouts : int array array;
  levels : int array;
}

module Builder = struct
  type builder_node = { bnode : node; bname : string option }

  type t = {
    bdesign_name : string;
    mutable rev_nodes : builder_node list;
    mutable count : int;
    mutable rev_inputs : int list;
    mutable rev_outputs : (int * string option) list;
    marked : (int, unit) Hashtbl.t;
  }

  let create ?(name = "design") () =
    {
      bdesign_name = name;
      rev_nodes = [];
      count = 0;
      rev_inputs = [];
      rev_outputs = [];
      marked = Hashtbl.create 16;
    }

  let push b bnode bname =
    let id = b.count in
    b.rev_nodes <- { bnode; bname } :: b.rev_nodes;
    b.count <- id + 1;
    id

  let add_input ?name b =
    let id = push b Primary_input name in
    b.rev_inputs <- id :: b.rev_inputs;
    id

  let add_gate ?name b kind fanin =
    if Array.length fanin <> Gate_kind.arity kind then
      invalid_arg "Netlist.Builder.add_gate: fan-in count does not match arity";
    Array.iter
      (fun id ->
        if id < 0 || id >= b.count then
          invalid_arg "Netlist.Builder.add_gate: fan-in refers to an unknown node")
      fanin;
    push b (Cell { kind; fanin = Array.copy fanin }) name

  let mark_output ?name b id =
    if id < 0 || id >= b.count then
      invalid_arg "Netlist.Builder.mark_output: unknown node";
    if Hashtbl.mem b.marked id then
      invalid_arg "Netlist.Builder.mark_output: node marked twice";
    Hashtbl.add b.marked id ();
    b.rev_outputs <- (id, name) :: b.rev_outputs

  let node_count b = b.count

  let finish b =
    if b.rev_outputs = [] then
      invalid_arg "Netlist.Builder.finish: netlist has no primary output";
    let builder_nodes = Array.of_list (List.rev b.rev_nodes) in
    let n = Array.length builder_nodes in
    let nodes = Array.map (fun bn -> bn.bnode) builder_nodes in
    (* An output whose driver was built without a name (the last cell of
       a decomposed AND or XOR, a generator's sum bit) takes the name it
       was declared under. *)
    let declared = Array.make n None in
    List.iter (fun (id, name) -> declared.(id) <- name) b.rev_outputs;
    let names =
      Array.mapi
        (fun i bn ->
          match (bn.bname, declared.(i)) with
          | Some s, _ | None, Some s -> s
          | None, None -> "n" ^ string_of_int i)
        builder_nodes
    in
    (* Exporters rely on names being unique; auto-generated ones can
       collide with explicit signal names, so de-duplicate in id order. *)
    let taken = Hashtbl.create n in
    Array.iteri
      (fun i s ->
        let unique =
          if not (Hashtbl.mem taken s) then s
          else begin
            let candidate = ref (Printf.sprintf "%s_%d" s i) in
            while Hashtbl.mem taken !candidate do
              candidate := !candidate ^ "_"
            done;
            !candidate
          end
        in
        names.(i) <- unique;
        Hashtbl.add taken unique ())
      names;
    let fanout_counts = Array.make n 0 in
    Array.iter
      (function
        | Primary_input -> ()
        | Cell { fanin; _ } -> Array.iter (fun src -> fanout_counts.(src) <- fanout_counts.(src) + 1)
                                 fanin)
      nodes;
    let fanouts = Array.map (fun c -> Array.make c (-1)) fanout_counts in
    let cursor = Array.make n 0 in
    Array.iteri
      (fun i node ->
        match node with
        | Primary_input -> ()
        | Cell { fanin; _ } ->
          Array.iter
            (fun src ->
              fanouts.(src).(cursor.(src)) <- i;
              cursor.(src) <- cursor.(src) + 1)
            fanin)
      nodes;
    let levels = Array.make n 0 in
    Array.iteri
      (fun i node ->
        match node with
        | Primary_input -> levels.(i) <- 0
        | Cell { fanin; _ } ->
          levels.(i) <- 1 + Array.fold_left (fun acc src -> max acc levels.(src)) 0 fanin)
      nodes;
    {
      design_name = b.bdesign_name;
      nodes;
      inputs = Array.of_list (List.rev b.rev_inputs);
      outputs = Array.of_list (List.rev_map fst b.rev_outputs);
      names;
      fanouts;
      levels;
    }
end

let design_name t = t.design_name

let node_count t = Array.length t.nodes

let input_count t = Array.length t.inputs

let gate_count t = node_count t - input_count t

let node t i =
  if i < 0 || i >= node_count t then invalid_arg "Netlist.node: id out of range";
  t.nodes.(i)

let kind_of t i =
  match node t i with Primary_input -> None | Cell { kind; _ } -> Some kind

let fanin t i = match node t i with Primary_input -> [||] | Cell { fanin; _ } -> fanin

let fanout t i =
  if i < 0 || i >= node_count t then invalid_arg "Netlist.fanout: id out of range";
  t.fanouts.(i)

let fanout_count t i = Array.length (fanout t i)

let inputs t = t.inputs

let outputs t = t.outputs

let name_of t i =
  if i < 0 || i >= node_count t then invalid_arg "Netlist.name_of: id out of range";
  t.names.(i)

(* A scan: nothing on a hot path looks nodes up by name, and a table
   would add about 30% to every netlist's live size. *)
let id_of_name t s =
  let n = Array.length t.names in
  let rec find i =
    if i = n then None else if String.equal t.names.(i) s then Some i else find (i + 1)
  in
  find 0

let is_input t i = match node t i with Primary_input -> true | Cell _ -> false

let iter_gates t f =
  Array.iteri
    (fun i n -> match n with Primary_input -> () | Cell { kind; fanin } -> f i kind fanin)
    t.nodes

exception Cycle of int

(* The DFS runs on an explicit stack — a million-gate chain is only a
   long walk, not a call-stack overflow — and reproduces the recursive
   post-order exactly (fan-ins left to right, then the node).  A frame is
   [2*id + done_flag]; pushing every fan-in (one push per edge) keeps the
   walk linear while letting the pop detect cycles: popping a second
   not-done frame for a node still marked visiting means it is its own
   ancestor. *)
let postorder ~fanin n roots f =
  let state = Bytes.make n '\000' (* 0 new, 1 visiting, 2 done *) in
  let stack = ref (Array.make 1024 0) in
  let sp = ref 0 in
  let push frame =
    if !sp = Array.length !stack then begin
      let bigger = Array.make (2 * !sp) 0 in
      Array.blit !stack 0 bigger 0 !sp;
      stack := bigger
    end;
    !stack.(!sp) <- frame;
    incr sp
  in
  Array.iter
    (fun root ->
      push (root * 2);
      while !sp > 0 do
        decr sp;
        let frame = !stack.(!sp) in
        let id = frame lsr 1 in
        if frame land 1 = 1 then begin
          Bytes.set state id '\002';
          f id
        end
        else
          match Bytes.get state id with
          | '\002' -> ()
          | '\001' -> raise (Cycle id)
          | _ ->
            let args = fanin id in
            if Array.length args > 0 then begin
              Bytes.set state id '\001';
              push ((id * 2) + 1);
              for i = Array.length args - 1 downto 0 do
                push (args.(i) * 2)
              done
            end
      done)
    roots

let level_of t = t.levels

let depth t = Array.fold_left max 0 t.levels

let gate_histogram t =
  let counts = List.map (fun k -> (k, ref 0)) Gate_kind.all in
  iter_gates t (fun _ kind _ ->
      let r = List.assoc kind counts in
      incr r);
  List.filter_map (fun (k, r) -> if !r > 0 then Some (k, !r) else None) counts

let validate t =
  let problem = ref None in
  let fail fmt = Printf.ksprintf (fun s -> if !problem = None then problem := Some s) fmt in
  Array.iteri
    (fun i n ->
      match n with
      | Primary_input -> ()
      | Cell { kind; fanin } ->
        if Array.length fanin <> Gate_kind.arity kind then
          fail "node %d: arity mismatch for %s" i (Gate_kind.name kind);
        Array.iter
          (fun src -> if src < 0 || src >= i then fail "node %d: fan-in %d not topological" i src)
          fanin)
    t.nodes;
  if Array.length t.outputs = 0 then fail "no primary outputs";
  Array.iter
    (fun o -> if o < 0 || o >= node_count t then fail "output id %d out of range" o)
    t.outputs;
  Array.iter
    (fun i ->
      match t.nodes.(i) with
      | Primary_input -> ()
      | Cell _ -> fail "input list contains non-input node %d" i)
    t.inputs;
  match !problem with None -> Ok () | Some msg -> Error msg
