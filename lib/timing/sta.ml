module Netlist = Standby_netlist.Netlist
module Library = Standby_cells.Library
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Int_heap = Standby_util.Int_heap

(* Registered at module initialization; updated lock-free.  The
   incremental recompute is the optimizer's hottest call, so it gets a
   counter, not a span — full recomputes are rare enough to trace. *)
let m_full_updates =
  Metrics.counter Metrics.default "sta.full_updates" ~help:"Full timing recomputations"
let m_incremental_updates =
  Metrics.counter Metrics.default "sta.incremental_updates"
    ~help:"Incremental (cone) timing recomputations"
let m_worklist_pops =
  Metrics.counter Metrics.default "sta.worklist_pops"
    ~help:"Nodes settled by incremental STA worklists"

let epsilon = 1e-9

(* Frozen boundary timing for partitioned sub-circuits (standby.partition):
   per-input arrival/slew overrides freeze what the surrounding circuit
   delivers at a region's contract pins, and per-output required-time
   caps freeze what the downstream logic demands of its exported gates.
   Allocated lazily so whole-circuit workspaces (the common case, up to
   millions of nodes) pay nothing. *)
type boundary = {
  b_arr_rise : float array;
  b_arr_fall : float array;
  b_slew_rise : float array;
  b_slew_fall : float array;
  b_req_rise : float array;
  b_req_fall : float array;
}

type t = {
  lib : Library.t;
  net : Netlist.t;
  version : int array;
  perm : int array array;
  base : float array;
  base_slew : float array;
  arr_rise : float array;
  arr_fall : float array;
  slew_rise : float array;
  slew_fall : float array;
  req_rise : float array;
  req_fall : float array;
  mutable budget : float;
  (* Preallocated worklists and output membership for the incremental
     update — the optimizer's hottest path must not allocate. *)
  fheap : Int_heap.t;
  bheap : Int_heap.t;
  is_out : bool array;
  (* Per-output late flags and their count (see [mark_late]), so
     feasibility is a read. *)
  late : bool array;
  mutable late_count : int;
  (* Locally accumulated metric deltas.  The candidate loops call
     [update_from] thousands of times per leaf from every worker
     domain; per-call atomic increments on the shared counters
     ping-pong their cache line hard enough to serialize the workers,
     so deltas are flushed in batches instead. *)
  mutable pend_updates : int;
  mutable pend_pops : int;
  mutable boundary : boundary option;
}

let flush_batch = 1024

let netlist t = t.net

let identity_perm arity = Array.init arity (fun i -> i)

(* Pin-to-output delays for the current assignment: the version factor
   derates the drive, and the input transition time adds the
   slew-sensitivity term of the two-axis delay tables. *)
let gate_delays t id kind fanin_pin src =
  let info = Library.info t.lib kind in
  let v = t.version.(id) in
  let phys = t.perm.(id).(fanin_pin) in
  let d_rise =
    (t.base.(id) *. info.Library.rise_factors.(v).(phys))
    +. (Delay_model.slew_sensitivity *. t.slew_fall.(src))
  in
  let d_fall =
    (t.base.(id) *. info.Library.fall_factors.(v).(phys))
    +. (Delay_model.slew_sensitivity *. t.slew_rise.(src))
  in
  (d_rise, d_fall)

let recompute_arrival t id kind fanin =
  let info = Library.info t.lib kind in
  let v = t.version.(id) in
  let rise = ref 0.0 and fall = ref 0.0 in
  let rise_pin = ref 0 and fall_pin = ref 0 in
  Array.iteri
    (fun pin src ->
      let d_rise, d_fall = gate_delays t id kind pin src in
      if t.arr_fall.(src) +. d_rise > !rise then begin
        rise := t.arr_fall.(src) +. d_rise;
        rise_pin := pin
      end;
      if t.arr_rise.(src) +. d_fall > !fall then begin
        fall := t.arr_rise.(src) +. d_fall;
        fall_pin := pin
      end)
    fanin;
  t.arr_rise.(id) <- !rise;
  t.arr_fall.(id) <- !fall;
  (* The output transition is set by the critical pin's drive. *)
  t.slew_rise.(id) <- t.base_slew.(id) *. info.Library.rise_factors.(v).(t.perm.(id).(!rise_pin));
  t.slew_fall.(id) <- t.base_slew.(id) *. info.Library.fall_factors.(v).(t.perm.(id).(!fall_pin))

let forward t =
  (match t.boundary with
   | None ->
     Array.iter
       (fun id ->
         t.arr_rise.(id) <- 0.0;
         t.arr_fall.(id) <- 0.0;
         t.slew_rise.(id) <- Delay_model.primary_input_slew;
         t.slew_fall.(id) <- Delay_model.primary_input_slew)
       (Netlist.inputs t.net)
   | Some b ->
     Array.iter
       (fun id ->
         t.arr_rise.(id) <- b.b_arr_rise.(id);
         t.arr_fall.(id) <- b.b_arr_fall.(id);
         t.slew_rise.(id) <- b.b_slew_rise.(id);
         t.slew_fall.(id) <- b.b_slew_fall.(id))
       (Netlist.inputs t.net));
  Netlist.iter_gates t.net (fun id kind fanin -> recompute_arrival t id kind fanin)

(* Effective required time of a primary output: the delay budget, capped
   by the frozen downstream demand when a boundary is installed. *)
let output_required t id =
  match t.boundary with
  | None -> (t.budget, t.budget)
  | Some b -> (min t.budget b.b_req_rise.(id), min t.budget b.b_req_fall.(id))

(* Refresh one output's late flag and the late count.  [backward] runs
   it for every output (every full update, budget change and [create]
   passes through there with arrivals current), and [update_from] for
   each output it re-times; no other write moves an output's arrival or
   required time. *)
let mark_late t o =
  let rr, rf = output_required t o in
  let late = t.arr_rise.(o) > rr +. epsilon || t.arr_fall.(o) > rf +. epsilon in
  if late <> t.late.(o) then begin
    t.late.(o) <- late;
    t.late_count <- (if late then t.late_count + 1 else t.late_count - 1)
  end

let backward t =
  let n = Netlist.node_count t.net in
  Array.fill t.req_rise 0 n infinity;
  Array.fill t.req_fall 0 n infinity;
  Array.iter
    (fun o ->
      let rr, rf = output_required t o in
      t.req_rise.(o) <- min t.req_rise.(o) rr;
      t.req_fall.(o) <- min t.req_fall.(o) rf;
      mark_late t o)
    (Netlist.outputs t.net);
  for id = n - 1 downto 0 do
    match Netlist.node t.net id with
    | Netlist.Primary_input -> ()
    | Netlist.Cell { fanin; _ } ->
      let kind = match Netlist.kind_of t.net id with Some k -> k | None -> assert false in
      Array.iteri
        (fun pin src ->
          let d_rise, d_fall = gate_delays t id kind pin src in
          if t.req_rise.(id) -. d_rise < t.req_fall.(src) then
            t.req_fall.(src) <- t.req_rise.(id) -. d_rise;
          if t.req_fall.(id) -. d_fall < t.req_rise.(src) then
            t.req_rise.(src) <- t.req_fall.(id) -. d_fall)
        fanin
  done

let flush_counters t =
  if t.pend_updates > 0 then begin
    Metrics.add m_incremental_updates t.pend_updates;
    Metrics.add m_worklist_pops t.pend_pops;
    t.pend_updates <- 0;
    t.pend_pops <- 0
  end

let update t =
  Metrics.incr m_full_updates;
  flush_counters t;
  Telemetry.span "sta.full_update" (fun () ->
      forward t;
      backward t)

(* Required times of one node recomputed from scratch: the delay
   budget if it drives a primary output, min-ed with the constraint
   each consumer's current required time and pin delay imposes. *)
let recompute_required t id =
  let rr = ref infinity and rf = ref infinity in
  if t.is_out.(id) then begin
    let orr, orf = output_required t id in
    rr := orr;
    rf := orf
  end;
  Array.iter
    (fun c ->
      match Netlist.node t.net c with
      | Netlist.Primary_input -> assert false
      | Netlist.Cell { kind; fanin } ->
        Array.iteri
          (fun pin src ->
            if src = id then begin
              let d_rise, d_fall = gate_delays t c kind pin src in
              if t.req_rise.(c) -. d_rise < !rf then rf := t.req_rise.(c) -. d_rise;
              if t.req_fall.(c) -. d_fall < !rr then rr := t.req_fall.(c) -. d_fall
            end)
          fanin)
    (Netlist.fanout t.net id);
  t.req_rise.(id) <- !rr;
  t.req_fall.(id) <- !rf

let update_from t start =
  let pops = ref 0 in
  (* Forward: fanout-driven worklist from [start].  Node ids are
     topological, so the ascending heap settles each node exactly once
     — cost scales with the affected cone, not the netlist. *)
  Int_heap.push t.fheap start;
  while not (Int_heap.is_empty t.fheap) do
    let id = Int_heap.pop t.fheap in
    incr pops;
    match Netlist.node t.net id with
    | Netlist.Primary_input ->
      (* Only reachable when [start] itself is an input: its arrival is
         fixed, but its cone must still be rechecked. *)
      Array.iter (fun g -> Int_heap.push t.fheap g) (Netlist.fanout t.net id)
    | Netlist.Cell { kind; fanin } ->
      let old_rise = t.arr_rise.(id) and old_fall = t.arr_fall.(id) in
      let old_srise = t.slew_rise.(id) and old_sfall = t.slew_fall.(id) in
      recompute_arrival t id kind fanin;
      if t.is_out.(id) then mark_late t id;
      if
        id = start
        || abs_float (t.arr_rise.(id) -. old_rise) > epsilon
        || abs_float (t.arr_fall.(id) -. old_fall) > epsilon
        || abs_float (t.slew_rise.(id) -. old_srise) > epsilon
        || abs_float (t.slew_fall.(id) -. old_sfall) > epsilon
      then begin
        Int_heap.push t.bheap id;
        Array.iter (fun g -> Int_heap.push t.fheap g) (Netlist.fanout t.net id)
      end
  done;
  (* The assignment changed [start]'s pin delays, so its fanins'
     required times can move even when no arrival does. *)
  (match Netlist.node t.net start with
   | Netlist.Primary_input -> ()
   | Netlist.Cell { fanin; _ } -> Array.iter (fun s -> Int_heap.push t.bheap s) fanin);
  (* Backward: descending pops settle every consumer before its
     producers (in-loop pushes are always fanins, hence smaller), so
     one scratch recompute per node suffices; a required-time move
     wakes the node's own fanins. *)
  while not (Int_heap.is_empty t.bheap) do
    let id = Int_heap.pop t.bheap in
    incr pops;
    let old_rr = t.req_rise.(id) and old_rf = t.req_fall.(id) in
    recompute_required t id;
    if
      abs_float (t.req_rise.(id) -. old_rr) > epsilon
      || abs_float (t.req_fall.(id) -. old_rf) > epsilon
    then
      match Netlist.node t.net id with
      | Netlist.Primary_input -> ()
      | Netlist.Cell { fanin; _ } ->
        Array.iter (fun s -> Int_heap.push t.bheap s) fanin
  done;
  t.pend_updates <- t.pend_updates + 1;
  t.pend_pops <- t.pend_pops + !pops;
  if t.pend_updates >= flush_batch then flush_counters t

let circuit_delay t =
  Array.fold_left
    (fun acc o -> max acc (max t.arr_rise.(o) t.arr_fall.(o)))
    0.0 (Netlist.outputs t.net)

let create ?load lib net =
  let n = Netlist.node_count net in
  let base = Array.make n 0.0 in
  let base_slew = Array.make n 0.0 in
  let perm = Array.make n [||] in
  let load = match load with Some f -> f | None -> Delay_model.node_load net in
  Netlist.iter_gates net (fun id kind fanin ->
      let fanout = load id in
      base.(id) <- Delay_model.base_delay kind ~fanout;
      base_slew.(id) <- Delay_model.base_output_slew kind ~fanout;
      perm.(id) <- identity_perm (Array.length fanin));
  let t =
    {
      lib;
      net;
      version = Array.make n 0;
      perm;
      base;
      base_slew;
      arr_rise = Array.make n 0.0;
      arr_fall = Array.make n 0.0;
      slew_rise = Array.make n 0.0;
      slew_fall = Array.make n 0.0;
      req_rise = Array.make n infinity;
      req_fall = Array.make n infinity;
      budget = 0.0;
      pend_updates = 0;
      pend_pops = 0;
      boundary = None;
      late = Array.make n false;
      late_count = 0;
      fheap = Int_heap.create n;
      bheap = Int_heap.create ~descending:true n;
      is_out =
        (let out = Array.make n false in
         Array.iter (fun o -> out.(o) <- true) (Netlist.outputs net);
         out);
    }
  in
  forward t;
  t.budget <- circuit_delay t;
  backward t;
  t

let assign t id ~version ~perm =
  t.version.(id) <- version;
  Array.blit perm 0 t.perm.(id) 0 (Array.length perm)

let version_of t id = t.version.(id)

let perm_of t id = t.perm.(id)

let reset_fast t =
  Netlist.iter_gates t.net (fun id _ fanin ->
      t.version.(id) <- 0;
      t.perm.(id) <- identity_perm (Array.length fanin));
  update t

let set_budget t budget =
  t.budget <- budget;
  backward t

let budget t = t.budget

let ensure_boundary t =
  match t.boundary with
  | Some b -> b
  | None ->
    let n = Netlist.node_count t.net in
    let b =
      {
        b_arr_rise = Array.make n 0.0;
        b_arr_fall = Array.make n 0.0;
        b_slew_rise = Array.make n Delay_model.primary_input_slew;
        b_slew_fall = Array.make n Delay_model.primary_input_slew;
        b_req_rise = Array.make n infinity;
        b_req_fall = Array.make n infinity;
      }
    in
    t.boundary <- Some b;
    b

let set_input_boundary t id ~arrival ~slew =
  if not (Netlist.is_input t.net id) then
    invalid_arg "Sta.set_input_boundary: not a primary input";
  let b = ensure_boundary t in
  let arr_rise, arr_fall = arrival and slew_rise, slew_fall = slew in
  b.b_arr_rise.(id) <- arr_rise;
  b.b_arr_fall.(id) <- arr_fall;
  b.b_slew_rise.(id) <- slew_rise;
  b.b_slew_fall.(id) <- slew_fall

let set_output_required t id ~rise ~fall =
  if not t.is_out.(id) then invalid_arg "Sta.set_output_required: not a primary output";
  let b = ensure_boundary t in
  b.b_req_rise.(id) <- rise;
  b.b_req_fall.(id) <- fall

let meets_budget t = t.late_count = 0

let candidate_feasible t id ~version ~perm =
  match Netlist.node t.net id with
  | Netlist.Primary_input -> invalid_arg "Sta.candidate_feasible: not a gate"
  | Netlist.Cell { kind; fanin } ->
    let info = Library.info t.lib kind in
    let ok = ref true in
    Array.iteri
      (fun pin src ->
        if !ok then begin
          let phys = perm.(pin) in
          let d_rise =
            (t.base.(id) *. info.Library.rise_factors.(version).(phys))
            +. (Delay_model.slew_sensitivity *. t.slew_fall.(src))
          in
          let d_fall =
            (t.base.(id) *. info.Library.fall_factors.(version).(phys))
            +. (Delay_model.slew_sensitivity *. t.slew_rise.(src))
          in
          if
            t.arr_fall.(src) +. d_rise > t.req_rise.(id) +. epsilon
            || t.arr_rise.(src) +. d_fall > t.req_fall.(id) +. epsilon
          then ok := false
        end)
      fanin;
    !ok

let gate_slack t id =
  min (t.req_rise.(id) -. t.arr_rise.(id)) (t.req_fall.(id) -. t.arr_fall.(id))

(* Generic forward pass with externally supplied factors. *)
let delay_with lib net factors_of =
  let n = Netlist.node_count net in
  let arr_rise = Array.make n 0.0 and arr_fall = Array.make n 0.0 in
  let slew_rise = Array.make n Delay_model.primary_input_slew in
  let slew_fall = Array.make n Delay_model.primary_input_slew in
  Netlist.iter_gates net (fun id kind fanin ->
      let fanout = Delay_model.node_load net id in
      let base = Delay_model.base_delay kind ~fanout in
      let base_slew = Delay_model.base_output_slew kind ~fanout in
      let rise_f, fall_f = factors_of lib kind in
      let rise = ref 0.0 and fall = ref 0.0 in
      let rise_pin = ref 0 and fall_pin = ref 0 in
      Array.iteri
        (fun pin src ->
          let d_rise =
            (base *. rise_f.(pin)) +. (Delay_model.slew_sensitivity *. slew_fall.(src))
          in
          let d_fall =
            (base *. fall_f.(pin)) +. (Delay_model.slew_sensitivity *. slew_rise.(src))
          in
          if arr_fall.(src) +. d_rise > !rise then begin
            rise := arr_fall.(src) +. d_rise;
            rise_pin := pin
          end;
          if arr_rise.(src) +. d_fall > !fall then begin
            fall := arr_rise.(src) +. d_fall;
            fall_pin := pin
          end)
        fanin;
      arr_rise.(id) <- !rise;
      arr_fall.(id) <- !fall;
      slew_rise.(id) <- base_slew *. rise_f.(!rise_pin);
      slew_fall.(id) <- base_slew *. fall_f.(!fall_pin));
  Array.fold_left
    (fun acc o -> max acc (max arr_rise.(o) arr_fall.(o)))
    0.0 (Netlist.outputs net)

let all_fast_delay lib net =
  delay_with lib net (fun l kind ->
      let info = Library.info l kind in
      (info.Library.rise_factors.(0), info.Library.fall_factors.(0)))

let all_slow_delay lib net =
  delay_with lib net (fun l kind ->
      let info = Library.info l kind in
      (info.Library.slowest_rise, info.Library.slowest_fall))

let budget_for_penalty lib net ~penalty =
  let fast = all_fast_delay lib net in
  let slow = all_slow_delay lib net in
  fast +. (penalty *. (slow -. fast))

let slew_of t id = (t.slew_rise.(id), t.slew_fall.(id))

let arrival t id = (t.arr_rise.(id), t.arr_fall.(id))

let required t id = (t.req_rise.(id), t.req_fall.(id))

let edge_delays t id ~pin =
  match Netlist.node t.net id with
  | Netlist.Primary_input -> invalid_arg "Sta.edge_delays: not a gate"
  | Netlist.Cell { kind; fanin } -> gate_delays t id kind pin fanin.(pin)
