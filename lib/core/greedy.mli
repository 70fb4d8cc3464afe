(** Anytime sensitivity-ordered optimizer for circuits far beyond
    branch-and-bound reach (100k–1M gates).

    The production multi-Vt recipe as one {!Gate_tree.pass}: seed a
    sleep vector with a fast state scan ({!seed}), start from the
    all-fast (always feasible) assignment, score once every gate that
    has a cheaper option and positive slack by the
    Δleakage/Δdelay sensitivity of its first step down, and give the
    pass those gates in descending score (ties by id).  Each gate
    settles once on the cheapest option that keeps every path inside
    the budget ({!Gate_tree.lowest_feasible}).  There are no rounds: a
    gate is never revisited, so the run ends after at most one step per
    gate.

    The anytime contract: the seed incumbent is emitted before any work,
    every emission is strictly leakage-improving and delay-feasible, and
    an expired timer stops the run at the next gate boundary (polled
    every 32 gates) with the best incumbent intact.  For a budget large
    enough to finish the pass the result is deterministic.

    Emits the [greedy.heap_pops] (gates taken from the order),
    [greedy.swaps] (gates moved below fast) and [greedy.backoffs]
    (cheaper options rejected) telemetry counters. *)

val seed_vectors : seed:int -> count:int -> int -> bool array list
(** [seed_vectors ~seed ~count inputs] — the deterministic candidate
    sleep vectors of the seeding step: the two constant vectors followed
    by [count - 2] splitmix-style pseudo-random ones derived from
    [seed].  No [Random] state is involved, so two calls with the same
    arguments return identical vectors. *)

val seed :
  ?candidates:bool array list ->
  stats:Search_stats.t ->
  Standby_cells.Library.t ->
  Standby_netlist.Netlist.t ->
  State_tree.leaf * bool array * int array
(** The seeding step on its own: scan the candidate sleep vectors and
    return [(leaf, values, states)] for the one with the smallest
    unconstrained leakage bound — the all-fast leaf of that vector
    ({!Gate_tree.all_fast}: always delay-feasible, the first incumbent),
    its simulated node values, and the gate states they induce.  The
    arrays are fresh.  [candidates] replaces the generated vectors when
    non-empty (the partitioned optimizer feeds each region's admissible
    vectors through here); an empty or absent list scans
    [seed_vectors ~seed:0 ~count:8]. *)

val run :
  ?candidates:bool array list ->
  ?on_incumbent:(State_tree.leaf -> unit) ->
  ?interrupt:(unit -> bool) ->
  stats:Search_stats.t ->
  timer:Standby_util.Timer.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  State_tree.outcome
(** [run ~stats ~timer lib sta] — [sta] must carry the delay budget
    (see {!Standby_timing.Sta.set_budget}); its assignment is clobbered.
    The seed vector comes from {!seed}; [candidates], when
    non-empty, replaces its generated vectors entirely.  [on_incumbent]
    fires on the seed solution, every 8,192 swaps and at the end of the
    pass, each time only if leakage improved; [interrupt] is polled with
    the timer by the pass.  At least the seed incumbent is always
    produced, even on an expired timer. *)
