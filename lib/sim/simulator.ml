module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind

(* Two-valued evaluation of one gate straight out of the node-value
   array — no per-gate input array is materialized, so a full [eval]
   pass allocates nothing beyond its result. *)
let eval_gate (values : bool array) kind (fanin : int array) =
  match kind with
  | Gate_kind.Inv -> not values.(fanin.(0))
  | Gate_kind.Nand2 -> not (values.(fanin.(0)) && values.(fanin.(1)))
  | Gate_kind.Nand3 ->
    not (values.(fanin.(0)) && values.(fanin.(1)) && values.(fanin.(2)))
  | Gate_kind.Nand4 ->
    not
      (values.(fanin.(0)) && values.(fanin.(1)) && values.(fanin.(2))
       && values.(fanin.(3)))
  | Gate_kind.Nor2 -> not (values.(fanin.(0)) || values.(fanin.(1)))
  | Gate_kind.Nor3 ->
    not (values.(fanin.(0)) || values.(fanin.(1)) || values.(fanin.(2)))
  | Gate_kind.Nor4 ->
    not
      (values.(fanin.(0)) || values.(fanin.(1)) || values.(fanin.(2))
       || values.(fanin.(3)))
  | Gate_kind.Aoi21 -> not ((values.(fanin.(0)) && values.(fanin.(1))) || values.(fanin.(2)))
  | Gate_kind.Oai21 -> not ((values.(fanin.(0)) || values.(fanin.(1))) && values.(fanin.(2)))

let eval net input_values =
  let input_ids = Netlist.inputs net in
  if Array.length input_values <> Array.length input_ids then
    invalid_arg "Simulator.eval: input count mismatch";
  let values = Array.make (Netlist.node_count net) false in
  Array.iteri (fun i id -> values.(id) <- input_values.(i)) input_ids;
  Netlist.iter_gates net (fun id kind fanin -> values.(id) <- eval_gate values kind fanin);
  values

(* Three-valued evaluation of one gate from a value array — the
   allocation-free kernel behind the event-driven workspace (trits are
   constant constructors, so nothing here touches the heap). *)
let nand_over (values : Logic.trit array) (fanin : int array) =
  let n = Array.length fanin in
  let out = ref Logic.False and i = ref 0 in
  while !i < n do
    (match values.(fanin.(!i)) with
     | Logic.False ->
       out := Logic.True;
       i := n
     | Logic.True -> ()
     | Logic.Unknown -> out := Logic.Unknown);
    incr i
  done;
  !out

let nor_over (values : Logic.trit array) (fanin : int array) =
  let n = Array.length fanin in
  let out = ref Logic.True and i = ref 0 in
  while !i < n do
    (match values.(fanin.(!i)) with
     | Logic.True ->
       out := Logic.False;
       i := n
     | Logic.False -> ()
     | Logic.Unknown -> out := Logic.Unknown);
    incr i
  done;
  !out

let and2 a b =
  match (a, b) with
  | Logic.False, _ | _, Logic.False -> Logic.False
  | Logic.True, Logic.True -> Logic.True
  | _ -> Logic.Unknown

let or2 a b =
  match (a, b) with
  | Logic.True, _ | _, Logic.True -> Logic.True
  | Logic.False, Logic.False -> Logic.False
  | _ -> Logic.Unknown

let eval_gate_partial (values : Logic.trit array) kind (fanin : int array) =
  match kind with
  | Gate_kind.Inv -> Logic.lnot values.(fanin.(0))
  | Gate_kind.Nand2 | Gate_kind.Nand3 | Gate_kind.Nand4 -> nand_over values fanin
  | Gate_kind.Nor2 | Gate_kind.Nor3 | Gate_kind.Nor4 -> nor_over values fanin
  | Gate_kind.Aoi21 ->
    (* nor(a & b, c) *)
    Logic.lnot (or2 (and2 values.(fanin.(0)) values.(fanin.(1))) values.(fanin.(2)))
  | Gate_kind.Oai21 ->
    (* nand(a | b, c) *)
    Logic.lnot (and2 (or2 values.(fanin.(0)) values.(fanin.(1))) values.(fanin.(2)))

let eval_partial net input_values =
  let input_ids = Netlist.inputs net in
  if Array.length input_values <> Array.length input_ids then
    invalid_arg "Simulator.eval_partial: input count mismatch";
  let values = Array.make (Netlist.node_count net) Logic.Unknown in
  Array.iteri (fun i id -> values.(id) <- input_values.(i)) input_ids;
  Netlist.iter_gates net (fun id kind fanin ->
      values.(id) <- eval_gate_partial values kind fanin);
  values

module Workspace = struct
  type t = {
    net : Netlist.t;
    values : Logic.trit array;
    (* Undo trail: nodes whose value became known, newest last.  Adding
       information is monotone in Kleene logic, so every recorded node
       was Unknown before — retraction just resets it. *)
    trail : int array;
    mutable trail_len : int;
    (* Stack of trail lengths, one per open [assume]. *)
    marks : int array;
    mutable marks_len : int;
    (* Event-propagation worklist (ring buffer + membership flags). *)
    queue : int array;
    mutable queue_head : int;
    mutable queue_len : int;
    in_queue : bool array;
    mutable events : int;
  }

  let create net =
    let n = Netlist.node_count net in
    {
      net;
      (* With every primary input unknown, every inverting-cell output
         is unknown too — no constant gates exist in this cell set. *)
      values = Array.make n Logic.Unknown;
      trail = Array.make n 0;
      trail_len = 0;
      marks = Array.make (n + 1) 0;
      marks_len = 0;
      queue = Array.make (max n 1) 0;
      queue_head = 0;
      queue_len = 0;
      in_queue = Array.make n false;
      events = 0;
    }

  let values t = t.values

  let events t = t.events

  let depth t = t.marks_len

  let enqueue t id =
    if not t.in_queue.(id) then begin
      t.in_queue.(id) <- true;
      let slot = (t.queue_head + t.queue_len) mod Array.length t.queue in
      t.queue.(slot) <- id;
      t.queue_len <- t.queue_len + 1
    end

  let dequeue t =
    let id = t.queue.(t.queue_head) in
    t.queue_head <- (t.queue_head + 1) mod Array.length t.queue;
    t.queue_len <- t.queue_len - 1;
    t.in_queue.(id) <- false;
    id

  let record t id =
    t.trail.(t.trail_len) <- id;
    t.trail_len <- t.trail_len + 1

  let enqueue_fanout t id =
    let fanout = Netlist.fanout t.net id in
    for i = 0 to Array.length fanout - 1 do
      enqueue t fanout.(i)
    done

  let default_touch = fun (_ : int) -> ()

  (* Propagate the recorded value changes through the affected cone:
     each changed node wakes its fanouts; a fanout whose inputs now
     determine its output records the new value and wakes its own
     fanouts in turn.  [on_touch] fires for every gate re-examined —
     exactly the set whose bound contribution may have moved. *)
  let propagate ?(on_touch = default_touch) t =
    while t.queue_len > 0 do
      let id = dequeue t in
      t.events <- t.events + 1;
      (match Netlist.node t.net id with
       | Netlist.Primary_input -> ()
       | Netlist.Cell { kind; fanin } ->
         if not (Logic.is_known t.values.(id)) then begin
           let v = eval_gate_partial t.values kind fanin in
           if Logic.is_known v then begin
             t.values.(id) <- v;
             record t id;
             enqueue_fanout t id
           end
         end);
      on_touch id
    done

  let assume ?on_touch t position v =
    if not (Logic.is_known v) then invalid_arg "Workspace.assume: value must be known";
    let inputs = Netlist.inputs t.net in
    if position < 0 || position >= Array.length inputs then
      invalid_arg "Workspace.assume: input position out of range";
    let id = inputs.(position) in
    if Logic.is_known t.values.(id) then
      invalid_arg "Workspace.assume: input already assigned";
    t.marks.(t.marks_len) <- t.trail_len;
    t.marks_len <- t.marks_len + 1;
    t.values.(id) <- v;
    record t id;
    enqueue_fanout t id;
    propagate ?on_touch t

  let retract ?(on_touch = default_touch) t =
    if t.marks_len = 0 then invalid_arg "Workspace.retract: nothing to retract";
    t.marks_len <- t.marks_len - 1;
    let mark = t.marks.(t.marks_len) in
    (* Restore every value first, then refresh listeners: a touched
       gate's contribution must be recomputed from fully restored
       inputs. *)
    for i = t.trail_len - 1 downto mark do
      t.values.(t.trail.(i)) <- Logic.Unknown
    done;
    if on_touch != default_touch then
      for i = mark to t.trail_len - 1 do
        let fanout = Netlist.fanout t.net t.trail.(i) in
        for k = 0 to Array.length fanout - 1 do
          on_touch fanout.(k)
        done
      done;
    t.trail_len <- mark
end

let gate_state net values id =
  let fanin = Netlist.fanin net id in
  Array.fold_left (fun acc src -> (acc lsl 1) lor if values.(src) then 1 else 0) 0 fanin

let gate_states net values =
  Array.init (Netlist.node_count net) (fun id ->
      if Netlist.is_input net id then 0 else gate_state net values id)

let output_vector net input_values =
  let values = eval net input_values in
  Array.map (fun id -> values.(id)) (Netlist.outputs net)
