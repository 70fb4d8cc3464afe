(** Local refinement of a sleep solution.

    Bit-flip hill climbing on the input vector: each round tries
    flipping every primary input (most influential first), re-running
    the gate-tree pass ({!Gate_tree.greedy}) for the flipped state, and
    keeps any strict improvement.  Rounds repeat until a full scan
    yields no improvement, the round limit is hit, or the time budget
    expires; the timer also stops the pass inside a flip, whose partial
    (still feasible) answer is kept only if it improves.

    This is an extension beyond the paper's two heuristics: it converges
    to a 1-flip-optimal sleep state and typically recovers most of the
    Heuristic 2 gap at a fraction of its cost (see the ablation
    bench). *)

val hill_climb :
  ?max_rounds:int ->
  stats:Search_stats.t ->
  timer:Standby_util.Timer.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  start:State_tree.leaf ->
  State_tree.leaf
(** [hill_climb ~stats ~timer lib sta ~start] improves [start]; the
    result is never worse.  [max_rounds] defaults to 8. *)
