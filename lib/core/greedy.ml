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
  Metrics.counter Metrics.default "greedy.swaps" ~help:"Accepted sensitivity-guided version swaps"
let m_backoffs =
  Metrics.counter Metrics.default "greedy.backoffs"
    ~help:"Candidate swaps reverted or rejected on a slack violation"
let m_rounds =
  Metrics.counter Metrics.default "greedy.rounds" ~help:"Sensitivity re-sort rounds completed"
let m_heap_pops =
  Metrics.counter Metrics.default "greedy.heap_pops" ~help:"Swap candidates popped off the heap"
let m_unblocks =
  Metrics.counter Metrics.default "greedy.unblocks"
    ~help:"Blocked gates re-admitted after their slack was freed by later swaps"

(* Binary max-heap over (score, gate id).  Capacity is fixed at the gate
   count — each round pushes at most one candidate move per gate — so
   the arrays are allocated once and reused across rounds.  Pop order is
   deterministic for a deterministic push sequence, which is what makes
   a greedy run reproducible for a fixed budget. *)
module Heap = struct
  type t = { mutable size : int; score : float array; id : int array }

  let create capacity =
    let capacity = max 1 capacity in
    { size = 0; score = Array.make capacity 0.0; id = Array.make capacity 0 }

  let clear h = h.size <- 0
  let is_empty h = h.size = 0

  let push h score id =
    let i = ref h.size in
    h.size <- h.size + 1;
    h.score.(!i) <- score;
    h.id.(!i) <- id;
    let continue_ = ref true in
    while !continue_ && !i > 0 do
      let parent = (!i - 1) / 2 in
      if h.score.(parent) < h.score.(!i) then begin
        let s = h.score.(parent) and d = h.id.(parent) in
        h.score.(parent) <- h.score.(!i);
        h.id.(parent) <- h.id.(!i);
        h.score.(!i) <- s;
        h.id.(!i) <- d;
        i := parent
      end
      else continue_ := false
    done

  (* Highest-score gate id; undefined on an empty heap (guarded by the
     caller's [is_empty] check). *)
  let pop h =
    let top = h.id.(0) in
    h.size <- h.size - 1;
    h.score.(0) <- h.score.(h.size);
    h.id.(0) <- h.id.(h.size);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let largest = ref !i in
      if l < h.size && h.score.(l) > h.score.(!largest) then largest := l;
      if r < h.size && h.score.(r) > h.score.(!largest) then largest := r;
      if !largest <> !i then begin
        let s = h.score.(!largest) and d = h.id.(!largest) in
        h.score.(!largest) <- h.score.(!i);
        h.id.(!largest) <- h.id.(!i);
        h.score.(!i) <- s;
        h.id.(!i) <- d;
        i := !largest
      end
      else continue_ := false
    done;
    top
end

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
let vector_bound net min_leak vector =
  let values = Simulator.eval net vector in
  let states = Simulator.gate_states net values in
  let total = ref 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      total := !total +. min_leak.(Gate_kind.index kind).(states.(id)));
  (!total, values, states)

let min_leak_table lib =
  Array.of_list
    (List.map (fun kind -> (Library.info lib kind).Library.min_leakage) Gate_kind.all)

(* The seeding step on its own: scan the candidate sleep vectors and
   return the one with the smallest unconstrained leakage bound along
   with its simulated node values and gate states.  [candidates]
   replaces the generated vectors when given (the partition path feeds
   the admissible region vectors through here); an empty list falls
   back to the generated set so the scan always returns a vector. *)
let seed_scan ?candidates ~stats lib net =
  let min_leak = min_leak_table lib in
  let vectors =
    match candidates with
    | Some (_ :: _ as l) -> l
    | Some [] | None -> seed_vectors ~seed:0 ~count:8 (Netlist.input_count net)
  in
  let best = ref infinity in
  let best_vec = ref [||] and best_values = ref [||] and best_states = ref [||] in
  List.iter
    (fun v ->
      let bound, values, states = vector_bound net min_leak v in
      stats.Search_stats.state_nodes <- stats.Search_stats.state_nodes + 1;
      if bound < !best then begin
        best := bound;
        best_vec := v;
        best_values := values;
        best_states := states
      end)
    vectors;
  (!best_vec, !best_values, !best_states)

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

let run ?candidates ?(unblock = true)
    ?(on_incumbent = fun _ -> ()) ?(interrupt = fun () -> false) ~stats ~timer lib sta =
 Telemetry.span "greedy.run" (fun () ->
  let net = Sta.netlist sta in
  let n = Netlist.node_count net in
  let gates = Netlist.gate_count net in
  (* Seed: scan the candidate sleep vectors and keep the one with the
     smallest unconstrained leakage bound. *)
  let vector, _, states = seed_scan ?candidates ~stats lib net in
  (* Start from the all-fast assignment for that vector: always
     delay-feasible (the budget is at least the all-fast delay), so the
     anytime contract holds from the first incumbent on. *)
  Sta.reset_fast sta;
  let choices = Array.make n 0 in
  let total = ref 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      let state = states.(id) in
      let c = Library.fast_option_index lib kind ~state in
      choices.(id) <- c;
      total := !total +. (Library.options lib kind ~state).(c).Version.leakage);
  let last_emitted = ref infinity in
  let emit () =
    if !total < !last_emitted -. 1e-18 then begin
      last_emitted := !total;
      stats.Search_stats.leaves <- stats.Search_stats.leaves + 1;
      stats.Search_stats.incumbent_updates <- stats.Search_stats.incumbent_updates + 1;
      on_incumbent
        {
          State_tree.vector = Array.copy vector;
          choices = Array.copy choices;
          leakage = !total;
        }
    end
  in
  emit ();
  let max_factors = max_factor_table lib in
  let heap = Heap.create gates in
  (* Blocking is three-state.  A gate whose option ladder is exhausted
     can never move again: state 2, permanent.  A gate blocked on slack
     — rejected swap or nothing left at the re-sort — is state 1,
     retryable: the slack it saw is recorded, and because accepted swaps
     carry pin permutations that can re-map a neighbor's critical pin to
     a faster edge, later moves can hand slack *back* to it.  The next
     re-sort re-admits any state-1 gate whose slack strictly grew past
     its recorded mark (the [greedy.unblocks] counter).  Termination is
     untouched: re-admission applies no swap by itself, every applied
     swap still strictly decreases leakage over a finite option space,
     and a round that applies none ends the run. *)
  let bstate = Array.make n 0 in
  let bslack = Array.make n 0.0 in
  let block_retryable id =
    bstate.(id) <- 1;
    bslack.(id) <- Sta.gate_slack sta id
  in
  let rounds = ref 0 and swaps = ref 0 and backoffs = ref 0 and pops = ref 0 in
  let unblocks = ref 0 in
  let stop_reason = ref State_tree.Exhausted in
  let polls = ref 0 in
  let stopped () =
    match !stop_reason with
    | State_tree.Timed_out | State_tree.Interrupted -> true
    | _ ->
      incr polls;
      if !polls land 31 = 0 then
        if Timer.expired timer then begin
          stop_reason := State_tree.Timed_out;
          true
        end
        else if interrupt () then begin
          stop_reason := State_tree.Interrupted;
          true
        end
        else false
      else false
  in
  let quiescent = ref false in
  while (not !quiescent) && not (Timer.expired timer) && not (interrupt ()) do
    incr rounds;
    Heap.clear heap;
    (* Re-sort: fresh sensitivities for every gate that can still move,
       computed against the slack landscape the previous round left. *)
    Netlist.iter_gates net (fun id kind fanin ->
        if unblock && bstate.(id) = 1 && Sta.gate_slack sta id > bslack.(id) +. 1e-12
        then begin
          bstate.(id) <- 0;
          incr unblocks
        end;
        if bstate.(id) = 0 then begin
          let state = states.(id) in
          let options = Library.options lib kind ~state in
          let c = choices.(id) in
          match find_target options c (c - 1) with
          | None -> bstate.(id) <- 2
          | Some t ->
            if Sta.gate_slack sta id <= 0.0 then block_retryable id
            else begin
              stats.Search_stats.bound_evaluations <-
                stats.Search_stats.bound_evaluations + 1;
              Heap.push heap
                (sensitivity sta max_factors id kind (Array.length fanin) options ~c ~t)
                id
            end
        end);
    (* Drain: each gate takes at most one step per round, so the move
       order within a round reflects the sensitivities just computed. *)
    let applied = ref 0 in
    while (not (Heap.is_empty heap)) && not (stopped ()) do
      let id = Heap.pop heap in
      incr pops;
      match Netlist.kind_of net id with
      | None -> ()
      | Some kind ->
        let state = states.(id) in
        let options = Library.options lib kind ~state in
        let c = choices.(id) in
        (match find_target options c (c - 1) with
         | None -> bstate.(id) <- 2
         | Some t ->
           let entry = options.(t) in
           let current = options.(c) in
           if
             Sta.candidate_feasible sta id ~version:entry.Version.version
               ~perm:entry.Version.perm
           then begin
             Sta.assign sta id ~version:entry.Version.version ~perm:entry.Version.perm;
             Sta.update_from sta id;
             (* The gate's own slack covers every path through it, but a
                swap can also lengthen a path that bypasses it: an arrival
                that falls can move a fanout's critical pin onto an input
                whose drive sets a slower output slew.  [update_from]
                keeps the workspace's late-output count current, so
                [meets_budget] completes the test without a scan. *)
             if Sta.gate_slack sta id >= 0.0 && Sta.meets_budget sta then begin
               choices.(id) <- t;
               total := !total -. (current.Version.leakage -. entry.Version.leakage);
               incr applied;
               incr swaps;
               stats.Search_stats.gate_changes <- stats.Search_stats.gate_changes + 1;
               if !applied land 8191 = 0 then emit ()
             end
             else begin
               Sta.assign sta id ~version:current.Version.version
                 ~perm:current.Version.perm;
               Sta.update_from sta id;
               incr backoffs;
               block_retryable id
             end
           end
           else begin
             incr backoffs;
             block_retryable id
           end)
    done;
    emit ();
    if !applied = 0 && !stop_reason = State_tree.Exhausted then quiescent := true
  done;
  (match !stop_reason with
   | State_tree.Exhausted when not !quiescent ->
     if Timer.expired timer then stop_reason := State_tree.Timed_out
     else if interrupt () then stop_reason := State_tree.Interrupted
   | _ -> ());
  stats.Search_stats.restarts <- stats.Search_stats.restarts + !rounds;
  Metrics.add m_swaps !swaps;
  Metrics.add m_backoffs !backoffs;
  Metrics.add m_rounds !rounds;
  Metrics.add m_heap_pops !pops;
  Metrics.add m_unblocks !unblocks;
  Sta.flush_counters sta;
  Telemetry.add_fields
    [
      ("rounds", Json.Int !rounds);
      ("swaps", Json.Int !swaps);
      ("backoffs", Json.Int !backoffs);
      ("heap_pops", Json.Int !pops);
      ("unblocks", Json.Int !unblocks);
      ("leakage", Json.Float !total);
      ("stop", Json.String (State_tree.stop_reason_name !stop_reason));
    ];
  {
    State_tree.best = { State_tree.vector; choices; leakage = !total };
    stop_reason = !stop_reason;
  })
