(** The gate tree: choosing a cell version (and pin order) per gate for a
    {e known} circuit state under the delay constraint.

    {!greedy} is the paper's single downward traversal: gates are visited
    once (by default in order of decreasing potential leakage saving) and
    each adopts the lowest-leakage trade-off point that keeps every path
    through it inside the budget, verified against up-to-date STA arrival
    and required times.  {!exact} is the exhaustive branch-and-bound used
    inside the exact optimizer and the test oracle; it is exponential in
    the gate count and intended for small circuits. *)

type result = {
  choices : int array;  (** Per node: option index for its kind/state. *)
  leakage : float;  (** Total leakage of the chosen options, A. *)
}

type order = By_saving | Topological

val lowest_feasible :
  stats:Search_stats.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  int ->
  Standby_netlist.Gate_kind.t ->
  state:int ->
  int
(** [lowest_feasible ~stats lib sta id kind ~state] — one gate's step of
    the downward traversal.  The gate must be on its fast option for
    [state], with timing up to date and the budget met.  The options
    cheaper than fast are tried cheapest first: each is pre-screened
    with {!Standby_timing.Sta.candidate_feasible}, installed, re-timed
    with {!Standby_timing.Sta.update_from} and confirmed with
    {!Standby_timing.Sta.meets_budget}; a failed confirm reverts the
    gate to fast.  Returns the option index left installed (the fast
    index when no cheaper option fits), so every index below it was
    rejected.  Counts an accepted option in [gate_changes]. *)

val greedy :
  ?order:order ->
  stats:Search_stats.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  states:int array ->
  result
(** Expects (and leaves) the workspace consistent: on entry every gate
    fast with timing updated and the budget set; on exit the workspace
    reflects the returned choices.  The budget must admit the all-fast
    assignment. *)

val exact :
  ?interrupt:(unit -> bool) ->
  stats:Search_stats.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  states:int array ->
  result
(** Optimal option assignment for this state (leakage-minimal subject to
    the budget).  Same workspace contract as {!greedy}.

    [interrupt] is polled periodically for cooperative cancellation
    (deadline enforcement): once it returns true, the search unwinds and
    returns the best complete assignment found so far — or, when none
    was reached yet, the {!greedy} answer, so the caller always gets a
    valid budget-feasible result. *)
