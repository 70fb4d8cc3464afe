module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Simulator = Standby_sim.Simulator
module Sta = Standby_timing.Sta
module Timer = Standby_util.Timer
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Json = Standby_telemetry.Json

(* Registered at module initialization, before worker domains exist. *)
let m_swaps =
  Metrics.counter Metrics.default "greedy.swaps" ~help:"Gates moved below their fast option"
let m_backoffs =
  Metrics.counter Metrics.default "greedy.backoffs"
    ~help:"Cheaper options rejected by the pre-screen or reverted on a budget violation"
let m_heap_pops =
  Metrics.counter Metrics.default "greedy.heap_pops"
    ~help:"Gates taken from the sensitivity order"

(* Deterministic candidate sleep vectors: the two constant vectors plus
   a handful of splitmix-style pseudo-random ones derived from the seed.
   No [Random] state is involved, so two runs see identical vectors. *)
let seed_vectors ~seed ~count inputs =
  let mix x =
    let x = Int64.add x 0x9e3779b97f4a7c15L in
    let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
    let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
    Int64.logxor x (Int64.shift_right_logical x 31)
  in
  let random k =
    Array.init inputs (fun i ->
        let h = mix (Int64.of_int (((seed * 8191) + k) lxor (i * 2654435761))) in
        Int64.logand h 1L = 1L)
  in
  Array.make inputs false :: Array.make inputs true
  :: List.init (max 0 (count - 2)) (fun k -> random k)

(* Unconstrained leakage lower bound of a complete sleep vector: the sum
   of each gate's cheapest option in its resulting state.  One linear
   simulation per candidate — the "fast state search" of the seeding
   step. *)
let vector_bound lib net vector =
  let values = Simulator.eval net vector in
  let states = Simulator.gate_states net values in
  let total = ref 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      total := !total +. (Library.info lib kind).Library.min_leakage.(states.(id)));
  (!total, values, states)

let seed ?candidates ~stats lib net =
  let vectors =
    match candidates with
    | Some (_ :: _ as l) -> l
    | Some [] | None -> seed_vectors ~seed:0 ~count:8 (Netlist.input_count net)
  in
  let best = ref (infinity, [||], [||], [||]) in
  List.iter
    (fun v ->
      let bound, values, states = vector_bound lib net v in
      stats.Search_stats.state_nodes <- stats.Search_stats.state_nodes + 1;
      let best_bound, _, _, _ = !best in
      if bound < best_bound then best := (bound, v, values, states))
    vectors;
  let _, vector, values, states = !best in
  let { Gate_tree.choices; leakage } = Gate_tree.all_fast lib net states in
  ({ State_tree.vector = Array.copy vector; choices; leakage }, values, states)

(* Per kind and version: the worst delay-derating factor over pins and
   transitions.  Pin permutations only reorder factors, so the maximum
   is permutation-invariant — exactly what the sensitivity estimate
   needs without tracking pin assignments. *)
let max_factor_table lib =
  Array.of_list
    (List.map
       (fun kind ->
         let info = Library.info lib kind in
         Array.init (Array.length info.Library.versions) (fun v ->
             let worst = ref 0.0 in
             Array.iter (fun f -> if f > !worst then worst := f) info.Library.rise_factors.(v);
             Array.iter (fun f -> if f > !worst then worst := f) info.Library.fall_factors.(v);
             !worst))
       Gate_kind.all)

(* Next strictly-better trade-off point below the current choice, if
   any.  Options are sorted by ascending leakage, so this walks down
   past exact ties. *)
let rec find_target (options : Version.option_entry array) current t =
  if t < 0 then None
  else if options.(t).Version.leakage < options.(current).Version.leakage -. 1e-18 then Some t
  else find_target options current (t - 1)

(* Sensitivity of moving [id] from option [c] to option [t]: leakage
   saved per unit of estimated delay increase.  The delay increase is
   approximated from the current worst pin delay scaled by the ratio of
   the two versions' worst derating factors — cheap, local, and only
   used for ordering (feasibility is always re-checked on the live
   workspace before a swap commits). *)
let sensitivity sta max_factors id kind arity (options : Version.option_entry array) ~c ~t =
  let kindex = Gate_kind.index kind in
  let d_cur = ref 0.0 in
  for pin = 0 to arity - 1 do
    let rise, fall = Sta.edge_delays sta id ~pin in
    if rise > !d_cur then d_cur := rise;
    if fall > !d_cur then d_cur := fall
  done;
  let f_cur = max_factors.(kindex).(options.(c).Version.version) in
  let f_new = max_factors.(kindex).(options.(t).Version.version) in
  let delta_delay = !d_cur *. ((f_new /. f_cur) -. 1.0) in
  let delta_leak = options.(c).Version.leakage -. options.(t).Version.leakage in
  delta_leak /. Float.max delta_delay 1e-15

let run ?candidates ?(on_incumbent = fun _ -> ()) ?(interrupt = fun () -> false) ~stats
    ~timer lib sta =
 Telemetry.span "greedy.run" (fun () ->
  let net = Sta.netlist sta in
  let n = Netlist.node_count net in
  let start, _, states = seed ?candidates ~stats lib net in
  let vector = start.State_tree.vector and choices = start.State_tree.choices in
  (* Start from the all-fast assignment for the seed vector: always
     delay-feasible (the budget is at least the all-fast delay), so the
     anytime contract holds from the first incumbent on. *)
  Sta.reset_fast sta;
  let last_emitted = ref infinity in
  let emit leakage =
    if leakage < !last_emitted -. 1e-18 then begin
      last_emitted := leakage;
      stats.Search_stats.leaves <- stats.Search_stats.leaves + 1;
      stats.Search_stats.incumbent_updates <- stats.Search_stats.incumbent_updates + 1;
      on_incumbent
        { State_tree.vector = Array.copy vector; choices = Array.copy choices; leakage }
    end
  in
  emit start.State_tree.leakage;
  (* One sort: every gate that can step down and has slack to spend,
     scored on the all-fast workspace by the sensitivity of its first
     step, highest first and ties by id. *)
  let max_factors = max_factor_table lib in
  let score = Array.make n 0.0 in
  let order = Array.make (Netlist.gate_count net) 0 in
  let m = ref 0 in
  Netlist.iter_gates net (fun id kind fanin ->
      let options = Library.options lib kind ~state:states.(id) in
      let c = choices.(id) in
      match find_target options c (c - 1) with
      | Some t when Sta.gate_slack sta id > 0.0 ->
        stats.Search_stats.bound_evaluations <- stats.Search_stats.bound_evaluations + 1;
        score.(id) <- sensitivity sta max_factors id kind (Array.length fanin) options ~c ~t;
        order.(!m) <- id;
        incr m
      | Some _ | None -> ());
  let order = Array.sub order 0 !m in
  Array.sort
    (fun a b -> match Float.compare score.(b) score.(a) with 0 -> Int.compare a b | o -> o)
    order;
  (* One pass of the gate tree's step in that order, stopped at a gate
     boundary by the timer or the caller's interrupt. *)
  let swaps = ref 0 and backoffs = ref 0 and pops = ref 0 in
  let stop_reason = ref State_tree.Exhausted in
  let stop () =
    if Timer.expired timer then stop_reason := State_tree.Timed_out
    else if interrupt () then stop_reason := State_tree.Interrupted;
    !stop_reason <> State_tree.Exhausted
  in
  let on_step c i leakage =
    incr pops;
    (* Every option below the one left installed was rejected. *)
    backoffs := !backoffs + i;
    if i <> c then begin
      incr swaps;
      if !swaps land 8191 = 0 then emit leakage
    end
  in
  let start = { Gate_tree.choices; leakage = start.State_tree.leakage } in
  let total = (Gate_tree.pass ~on_step ~stop ~stats lib sta ~states start order).leakage in
  emit total;
  Metrics.add m_swaps !swaps;
  Metrics.add m_backoffs !backoffs;
  Metrics.add m_heap_pops !pops;
  Sta.flush_counters sta;
  Telemetry.add_fields
    [
      ("swaps", Json.Int !swaps);
      ("backoffs", Json.Int !backoffs);
      ("heap_pops", Json.Int !pops);
      ("leakage", Json.Float total);
      ("stop", Json.String (State_tree.stop_reason_name !stop_reason));
    ];
  { State_tree.best = { State_tree.vector; choices; leakage = total }; stop_reason = !stop_reason })
