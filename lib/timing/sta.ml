module Netlist = Standby_netlist.Netlist
module Library = Standby_cells.Library
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics

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

(* The incremental update's worklists: node ids bucketed by logic level,
   one intrusive LIFO list per level ([head] per level, [next] per node,
   [idle] marking a node that is not queued), with every non-empty
   bucket between the [lo] and [hi] cursors.  Push and pop are O(1)
   amortized: a cursor only crosses empty buckets inside the cone being
   re-timed.  Nodes on one level never read each other, so popping in
   level order settles each node once, after everything it reads, and
   the order within a level cannot change a float. *)
module Level_queue = struct
  type t = {
    level : int array;
    head : int array;
    next : int array;
    mutable lo : int;
    mutable hi : int;
    mutable size : int;
  }

  let idle = -2

  let create net =
    let depth = Netlist.depth net in
    { level = Netlist.level_of net; head = Array.make (depth + 1) (-1);
      next = Array.make (Netlist.node_count net) idle; lo = depth + 1; hi = -1; size = 0 }

  let push q id =
    if q.next.(id) = idle then begin
      let l = q.level.(id) in
      q.next.(id) <- q.head.(l);
      q.head.(l) <- id;
      if l < q.lo then q.lo <- l;
      if l > q.hi then q.hi <- l;
      q.size <- q.size + 1
    end

  let take q l =
    let id = q.head.(l) in
    q.head.(l) <- q.next.(id);
    q.next.(id) <- idle;
    q.size <- q.size - 1;
    if q.size = 0 then begin
      q.lo <- Array.length q.head;
      q.hi <- -1
    end;
    id

  let pop_lowest q =
    while q.head.(q.lo) < 0 do
      q.lo <- q.lo + 1
    done;
    take q q.lo

  let pop_highest q =
    while q.head.(q.hi) < 0 do
      q.hi <- q.hi - 1
    done;
    take q q.hi
end

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
  (* Per-node data the kernels read on every pop, resolved once: the
     netlist's own fan-in arrays (fan-in [||] marks a primary input;
     every cell has at least one), each node's fan-out edges (see
     [edge]), and each gate's rise/fall factor rows for its current
     version, refreshed by [assign] and [reset_fast].  A pop does no
     netlist match and no library lookup. *)
  fanin : int array array;
  sinks : int array array;
  rise_row : float array array;
  fall_row : float array array;
  arr_rise : float array;
  arr_fall : float array;
  slew_rise : float array;
  slew_fall : float array;
  req_rise : float array;
  req_fall : float array;
  mutable budget : float;
  (* Preallocated worklists and output membership for the incremental
     update — the optimizer's hottest path must not allocate. *)
  fqueue : Level_queue.t;
  bqueue : Level_queue.t;
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

(* A fan-out edge packs the consumer gate and the pin it is read on into
   one int (no cell has more than four pins).  [sinks.(src)] lists them
   in the netlist's fan-out order, pins ascending within a consumer, so
   a node's required time is one pass over its edges instead of a scan
   of every consumer's fan-in, visiting the constraints in the order
   that scan did. *)
let pin_bits = 2

let edge c pin = (c lsl pin_bits) lor pin

let edge_node e = e lsr pin_bits

let edge_pin e = e land ((1 lsl pin_bits) - 1)

(* The kernels below are plain loops over preresolved arrays: no
   closure, no tuple and no float ref escapes, so the worklist path
   allocates nothing.  Every pin-to-output delay is
   [base *. factor +. slew_sensitivity *. input_slew] — the version
   factor derates the drive and the input transition time adds the
   slew term of the two-axis delay tables — evaluated in that order
   everywhere: the kernels agree bit for bit with each other and with
   the answers test_opt pins. *)

(* [Stdlib.min] and [Stdlib.max] on floats, without their polymorphic
   compare. *)
let fmin (a : float) b = if a <= b then a else b

let fmax (a : float) b = if a >= b then a else b

let recompute_arrival t id =
  let fanin = t.fanin.(id) and perm = t.perm.(id) in
  let rise_row = t.rise_row.(id) and fall_row = t.fall_row.(id) in
  let base = t.base.(id) in
  let rise = ref 0.0 and fall = ref 0.0 in
  let rise_pin = ref 0 and fall_pin = ref 0 in
  for pin = 0 to Array.length fanin - 1 do
    let src = fanin.(pin) and phys = perm.(pin) in
    let d_rise =
      (base *. rise_row.(phys)) +. (Delay_model.slew_sensitivity *. t.slew_fall.(src))
    in
    let d_fall =
      (base *. fall_row.(phys)) +. (Delay_model.slew_sensitivity *. t.slew_rise.(src))
    in
    if t.arr_fall.(src) +. d_rise > !rise then begin
      rise := t.arr_fall.(src) +. d_rise;
      rise_pin := pin
    end;
    if t.arr_rise.(src) +. d_fall > !fall then begin
      fall := t.arr_rise.(src) +. d_fall;
      fall_pin := pin
    end
  done;
  t.arr_rise.(id) <- !rise;
  t.arr_fall.(id) <- !fall;
  (* The output transition is set by the critical pin's drive. *)
  t.slew_rise.(id) <- t.base_slew.(id) *. rise_row.(perm.(!rise_pin));
  t.slew_fall.(id) <- t.base_slew.(id) *. fall_row.(perm.(!fall_pin))

let forward t =
  let inputs = Netlist.inputs t.net in
  (match t.boundary with
   | None ->
     for i = 0 to Array.length inputs - 1 do
       let id = inputs.(i) in
       t.arr_rise.(id) <- 0.0;
       t.arr_fall.(id) <- 0.0;
       t.slew_rise.(id) <- Delay_model.primary_input_slew;
       t.slew_fall.(id) <- Delay_model.primary_input_slew
     done
   | Some b ->
     for i = 0 to Array.length inputs - 1 do
       let id = inputs.(i) in
       t.arr_rise.(id) <- b.b_arr_rise.(id);
       t.arr_fall.(id) <- b.b_arr_fall.(id);
       t.slew_rise.(id) <- b.b_slew_rise.(id);
       t.slew_fall.(id) <- b.b_slew_fall.(id)
     done);
  for id = 0 to Array.length t.fanin - 1 do
    if Array.length t.fanin.(id) > 0 then recompute_arrival t id
  done

(* Effective required times of a primary output: the delay budget,
   capped by the frozen downstream demand when a boundary is installed. *)
let output_required_rise t id =
  match t.boundary with None -> t.budget | Some b -> fmin t.budget b.b_req_rise.(id)

let output_required_fall t id =
  match t.boundary with None -> t.budget | Some b -> fmin t.budget b.b_req_fall.(id)

(* Refresh one output's late flag and the late count.  [backward] runs
   it for every output (every full update, budget change and [create]
   passes through there with arrivals current), and [update_from] for
   each output it re-times; no other write moves an output's arrival or
   required time. *)
let mark_late t o =
  let late =
    t.arr_rise.(o) > output_required_rise t o +. epsilon
    || t.arr_fall.(o) > output_required_fall t o +. epsilon
  in
  if late <> t.late.(o) then begin
    t.late.(o) <- late;
    t.late_count <- (if late then t.late_count + 1 else t.late_count - 1)
  end

let backward t =
  let n = Netlist.node_count t.net in
  Array.fill t.req_rise 0 n infinity;
  Array.fill t.req_fall 0 n infinity;
  let outputs = Netlist.outputs t.net in
  for i = 0 to Array.length outputs - 1 do
    let o = outputs.(i) in
    t.req_rise.(o) <- fmin t.req_rise.(o) (output_required_rise t o);
    t.req_fall.(o) <- fmin t.req_fall.(o) (output_required_fall t o);
    mark_late t o
  done;
  for id = n - 1 downto 0 do
    let fanin = t.fanin.(id) and perm = t.perm.(id) in
    let rise_row = t.rise_row.(id) and fall_row = t.fall_row.(id) in
    let base = t.base.(id) in
    for pin = 0 to Array.length fanin - 1 do
      let src = fanin.(pin) and phys = perm.(pin) in
      let d_rise =
        (base *. rise_row.(phys)) +. (Delay_model.slew_sensitivity *. t.slew_fall.(src))
      in
      let d_fall =
        (base *. fall_row.(phys)) +. (Delay_model.slew_sensitivity *. t.slew_rise.(src))
      in
      if t.req_rise.(id) -. d_rise < t.req_fall.(src) then
        t.req_fall.(src) <- t.req_rise.(id) -. d_rise;
      if t.req_fall.(id) -. d_fall < t.req_rise.(src) then
        t.req_rise.(src) <- t.req_fall.(id) -. d_fall
    done
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
    rr := output_required_rise t id;
    rf := output_required_fall t id
  end;
  let sinks = t.sinks.(id) in
  for k = 0 to Array.length sinks - 1 do
    let c = edge_node sinks.(k) in
    let phys = t.perm.(c).(edge_pin sinks.(k)) and base = t.base.(c) in
    let d_rise =
      (base *. t.rise_row.(c).(phys)) +. (Delay_model.slew_sensitivity *. t.slew_fall.(id))
    in
    let d_fall =
      (base *. t.fall_row.(c).(phys)) +. (Delay_model.slew_sensitivity *. t.slew_rise.(id))
    in
    if t.req_rise.(c) -. d_rise < !rf then rf := t.req_rise.(c) -. d_rise;
    if t.req_fall.(c) -. d_fall < !rr then rr := t.req_fall.(c) -. d_fall
  done;
  t.req_rise.(id) <- !rr;
  t.req_fall.(id) <- !rf

let push_all q ids =
  for i = 0 to Array.length ids - 1 do
    Level_queue.push q ids.(i)
  done

let push_consumers q sinks =
  for k = 0 to Array.length sinks - 1 do
    Level_queue.push q (edge_node sinks.(k))
  done

let update_from t start =
  let pops = ref 0 in
  (* Forward: fanout-driven worklist from [start].  An arrival reads
     only fan-ins, which sit on lower levels, so lowest-level-first pops
     settle each node exactly once — cost scales with the affected
     cone, not the netlist. *)
  Level_queue.push t.fqueue start;
  while t.fqueue.size > 0 do
    let id = Level_queue.pop_lowest t.fqueue in
    incr pops;
    if Array.length t.fanin.(id) = 0 then
      (* Only reachable when [start] itself is an input: its arrival is
         fixed, but its cone must still be rechecked. *)
      push_consumers t.fqueue t.sinks.(id)
    else begin
      let old_rise = t.arr_rise.(id) and old_fall = t.arr_fall.(id) in
      let old_srise = t.slew_rise.(id) and old_sfall = t.slew_fall.(id) in
      recompute_arrival t id;
      if t.is_out.(id) then mark_late t id;
      (* A required time reads the node's own slew and its consumers'
         required times and pin delays, never its arrival: only a slew
         move (or the changed gate itself) can move it.  Consumers
         re-time on either move. *)
      let slew_moved =
        abs_float (t.slew_rise.(id) -. old_srise) > epsilon
        || abs_float (t.slew_fall.(id) -. old_sfall) > epsilon
      in
      if id = start || slew_moved then Level_queue.push t.bqueue id;
      if
        id = start || slew_moved
        || abs_float (t.arr_rise.(id) -. old_rise) > epsilon
        || abs_float (t.arr_fall.(id) -. old_fall) > epsilon
      then push_consumers t.fqueue t.sinks.(id)
    end
  done;
  (* The assignment changed [start]'s pin delays, so its fanins'
     required times can move even when no arrival does. *)
  push_all t.bqueue t.fanin.(start);
  (* Backward: highest-level-first pops settle every consumer before
     its producers (in-loop pushes are always fanins, hence lower), so
     one scratch recompute per node suffices; a required-time move
     wakes the node's own fanins. *)
  while t.bqueue.size > 0 do
    let id = Level_queue.pop_highest t.bqueue in
    incr pops;
    let old_rr = t.req_rise.(id) and old_rf = t.req_fall.(id) in
    recompute_required t id;
    if
      abs_float (t.req_rise.(id) -. old_rr) > epsilon
      || abs_float (t.req_fall.(id) -. old_rf) > epsilon
    then push_all t.bqueue t.fanin.(id)
  done;
  t.pend_updates <- t.pend_updates + 1;
  t.pend_pops <- t.pend_pops + !pops;
  if t.pend_updates >= flush_batch then flush_counters t

let circuit_delay t =
  let outputs = Netlist.outputs t.net in
  let worst = ref 0.0 in
  for i = 0 to Array.length outputs - 1 do
    let o = outputs.(i) in
    worst := fmax !worst (fmax t.arr_rise.(o) t.arr_fall.(o))
  done;
  !worst

let fanout_edges net =
  let n = Netlist.node_count net in
  let sinks = Array.init n (fun id -> Array.make (Netlist.fanout_count net id) 0) in
  let fill = Array.make n 0 in
  Netlist.iter_gates net (fun c _ fanin ->
      assert (Array.length fanin <= 1 lsl pin_bits);
      Array.iteri
        (fun pin src ->
          sinks.(src).(fill.(src)) <- edge c pin;
          fill.(src) <- fill.(src) + 1)
        fanin);
  sinks

(* Every gate's fast (version 0) or all-slowest factor rows. *)
let install_rows t ~slowest =
  Netlist.iter_gates t.net (fun id kind _ ->
      let info = Library.info t.lib kind in
      if slowest then begin
        t.rise_row.(id) <- info.Library.slowest_rise;
        t.fall_row.(id) <- info.Library.slowest_fall
      end
      else begin
        t.rise_row.(id) <- info.Library.rise_factors.(0);
        t.fall_row.(id) <- info.Library.fall_factors.(0)
      end)

(* Every gate on the fast version with identity pins, factor rows
   resolved to match. *)
let install_fast t =
  Netlist.iter_gates t.net (fun id _ fanin ->
      t.version.(id) <- 0;
      t.perm.(id) <- identity_perm (Array.length fanin));
  install_rows t ~slowest:false

let create ?load lib net =
  let n = Netlist.node_count net in
  let base = Array.make n 0.0 in
  let base_slew = Array.make n 0.0 in
  let load = match load with Some f -> f | None -> Delay_model.node_load net in
  Netlist.iter_gates net (fun id kind _ ->
      let fanout = load id in
      base.(id) <- Delay_model.base_delay kind ~fanout;
      base_slew.(id) <- Delay_model.base_output_slew kind ~fanout);
  let t =
    {
      lib;
      net;
      version = Array.make n 0;
      perm = Array.make n [||];
      base;
      base_slew;
      fanin = Array.init n (Netlist.fanin net);
      sinks = fanout_edges net;
      rise_row = Array.make n [||];
      fall_row = Array.make n [||];
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
      fqueue = Level_queue.create net;
      bqueue = Level_queue.create net;
      is_out =
        (let out = Array.make n false in
         Array.iter (fun o -> out.(o) <- true) (Netlist.outputs net);
         out);
    }
  in
  install_fast t;
  forward t;
  t.budget <- circuit_delay t;
  backward t;
  t

let assign t id ~version ~perm =
  t.version.(id) <- version;
  Array.blit perm 0 t.perm.(id) 0 (Array.length perm);
  match Netlist.node t.net id with
  | Netlist.Primary_input -> ()
  | Netlist.Cell { kind; _ } ->
    let info = Library.info t.lib kind in
    t.rise_row.(id) <- info.Library.rise_factors.(version);
    t.fall_row.(id) <- info.Library.fall_factors.(version)

let version_of t id = t.version.(id)

let perm_of t id = t.perm.(id)

let reset_fast t =
  install_fast t;
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
    let rise_row = info.Library.rise_factors.(version)
    and fall_row = info.Library.fall_factors.(version) in
    let base = t.base.(id) in
    let ok = ref true and pin = ref 0 in
    while !ok && !pin < Array.length fanin do
      let src = fanin.(!pin) and phys = perm.(!pin) in
      let d_rise =
        (base *. rise_row.(phys)) +. (Delay_model.slew_sensitivity *. t.slew_fall.(src))
      in
      let d_fall =
        (base *. fall_row.(phys)) +. (Delay_model.slew_sensitivity *. t.slew_rise.(src))
      in
      if
        t.arr_fall.(src) +. d_rise > t.req_rise.(id) +. epsilon
        || t.arr_rise.(src) +. d_fall > t.req_fall.(id) +. epsilon
      then ok := false;
      incr pin
    done;
    !ok

let gate_slack t id =
  fmin (t.req_rise.(id) -. t.arr_rise.(id)) (t.req_fall.(id) -. t.arr_fall.(id))

(* The slowest rows share the fast rows' pin order, so with identity
   pins the same forward pass times them; restoring the fast rows and
   re-running it puts back the very same arrivals and slews, leaving
   the required times and late flags they were computed from valid. *)
let slowest_delay t =
  install_rows t ~slowest:true;
  forward t;
  let slow = circuit_delay t in
  install_rows t ~slowest:false;
  forward t;
  slow

let budget_for_penalty lib net ~penalty =
  let t = create lib net in
  let fast = circuit_delay t in
  let slow = slowest_delay t in
  fast +. (penalty *. (slow -. fast))

let slew_of t id = (t.slew_rise.(id), t.slew_fall.(id))

let arrival t id = (t.arr_rise.(id), t.arr_fall.(id))

let required t id = (t.req_rise.(id), t.req_fall.(id))

let edge_delays t id ~pin =
  if Array.length t.fanin.(id) = 0 then invalid_arg "Sta.edge_delays: not a gate";
  let src = t.fanin.(id).(pin) and phys = t.perm.(id).(pin) and base = t.base.(id) in
  ( (base *. t.rise_row.(id).(phys)) +. (Delay_model.slew_sensitivity *. t.slew_fall.(src)),
    (base *. t.fall_row.(id).(phys)) +. (Delay_model.slew_sensitivity *. t.slew_rise.(src)) )
