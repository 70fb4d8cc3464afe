(** Anytime sensitivity-guided optimizer for circuits far beyond
    branch-and-bound reach (100k–1M gates).

    The production multi-Vt recipe as an anytime algorithm: seed a sleep
    vector with a fast state scan, start from the all-fast (always
    feasible) assignment, then repeatedly swap single gates to their
    next lower-leakage version in descending
    Δleakage/Δdelay-sensitivity order while the worst slack stays
    non-negative.  Each round rebuilds a max-heap of candidate swaps
    against the current slack landscape and lets every gate take at most
    one step; a swap is committed only after a cone-limited
    {!Standby_timing.Sta.update_from} confirms the moved gate's slack,
    and is reverted (a "back-off") otherwise.  A gate whose option
    ladder is exhausted is blocked permanently; a gate blocked on slack
    is only parked — accepted swaps carry pin permutations that can
    re-map a neighbor's critical pin to a faster edge, so slack is
    occasionally handed {e back} — and is re-admitted at the next
    re-sort if its slack strictly grew past the value recorded when it
    was parked (counted by [greedy.unblocks]).  The algorithm still
    terminates when a round applies no swap: re-admission by itself
    applies nothing, and every applied swap strictly decreases leakage
    over a finite option space.

    The anytime contract: the seed incumbent is emitted before any work,
    every emission is strictly leakage-improving and delay-feasible, and
    an expired timer stops the run at the next candidate boundary with
    the best incumbent intact.  For a budget large enough to reach
    quiescence the result is deterministic.

    Emits the [greedy.swaps], [greedy.backoffs], [greedy.rounds],
    [greedy.heap_pops] and [greedy.unblocks] telemetry counters. *)

val seed_vectors : seed:int -> count:int -> int -> bool array list
(** [seed_vectors ~seed ~count inputs] — the deterministic candidate
    sleep vectors of the seeding step: the two constant vectors followed
    by [count - 2] splitmix-style pseudo-random ones derived from
    [seed].  No [Random] state is involved, so two calls with the same
    arguments return identical vectors. *)

val seed_scan :
  ?candidates:bool array list ->
  stats:Search_stats.t ->
  Standby_cells.Library.t ->
  Standby_netlist.Netlist.t ->
  bool array * bool array * int array
(** The seeding step on its own: scan the candidate sleep vectors and
    return [(vector, values, states)] of the one with the smallest
    unconstrained leakage bound — the vector itself, its simulated node
    values, and the gate states they induce.  [candidates] replaces the
    generated vectors when non-empty (the partitioned optimizer feeds
    each region's admissible vectors through here); an empty or absent
    list scans [seed_vectors ~seed:0 ~count:8]. *)

val run :
  ?candidates:bool array list ->
  ?unblock:bool ->
  ?on_incumbent:(State_tree.leaf -> unit) ->
  ?interrupt:(unit -> bool) ->
  stats:Search_stats.t ->
  timer:Standby_util.Timer.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  State_tree.outcome
(** [run ~stats ~timer lib sta] — [sta] must carry the delay budget
    (see {!Standby_timing.Sta.set_budget}); its assignment is clobbered.
    The seed vector comes from {!seed_scan}; [candidates], when
    non-empty, replaces its generated vectors entirely.  [unblock]
    (default [true]) enables re-admission of slack-parked gates.  [on_incumbent] fires on
    the seed solution and then on every improvement, including mid-round
    every few thousand swaps; [interrupt] is polled at candidate
    boundaries.  At least the seed incumbent is always produced, even on
    an expired timer. *)
