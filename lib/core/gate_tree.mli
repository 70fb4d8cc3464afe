(** The gate tree: choosing a cell version (and pin order) per gate for a
    {e known} circuit state under the delay constraint.

    {!pass} is the paper's single downward traversal, the one loop every
    heuristic method drives: gates are visited once in a caller's order
    and each adopts the lowest-leakage trade-off point that keeps every
    path through it inside the budget, verified against up-to-date STA
    arrival and required times.  A [stop] check
    polled every 32 gates ends it early with a feasible answer.
    {!greedy} is that pass in order of decreasing potential leakage
    saving (Heuristics 1 and 2 and hill climbing); the anytime optimizer
    ({!Greedy}) gives it a sensitivity order.  {!exact} is the
    exhaustive branch-and-bound used inside the exact optimizer and the
    test oracle; it is exponential in the gate count and intended for
    small circuits. *)

type result = {
  choices : int array;  (** Per node: option index for its kind/state. *)
  leakage : float;  (** Total leakage of the chosen options, A. *)
}

type order = By_saving | Topological

val all_fast : Standby_cells.Library.t -> Standby_netlist.Netlist.t -> int array -> result
(** [all_fast lib net states] — every gate on its fast option for its
    state, with their total leakage summed in id order. *)

val install :
  Standby_cells.Library.t -> Standby_timing.Sta.t -> states:int array -> int array -> unit
(** [install lib sta ~states choices] puts every gate on its chosen
    option and re-times the whole workspace with a full update. *)

val pass :
  ?on_step:(int -> int -> float -> unit) ->
  stop:(unit -> bool) ->
  stats:Search_stats.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  states:int array ->
  result ->
  int array ->
  result
(** [pass ~stop ~stats lib sta ~states start order] gives each gate of
    [order] one step of the downward traversal: the options cheaper than
    its fast one are tried cheapest first, each pre-screened with
    {!Standby_timing.Sta.candidate_feasible}, installed, re-timed with
    {!Standby_timing.Sta.update_from} and confirmed with
    {!Standby_timing.Sta.meets_budget}; the first that confirms stays
    (counted in [gate_changes]), a failed confirm reverts the gate to
    fast, and the gate stays fast when none fits.

    [start] must describe the workspace: every gate of [order] fast,
    timing updated, the budget met.  Its [choices] are updated in place
    and returned with the running leakage.  [stop] is polled before the first gate and every
    32 gates after; once it returns true the pass ends, leaving the
    remaining gates fast — still a feasible answer.  [on_step before
    after leakage] fires after each gate with its option before and
    after the step (every index below [after] was rejected) and the
    running total.  Opens no telemetry span. *)

val greedy :
  ?order:order ->
  stop:(unit -> bool) ->
  stats:Search_stats.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  states:int array ->
  result
(** {!pass} from the all-fast assignment over every gate, biggest
    potential saving first ([By_saving], the default) or in id order.
    Expects the budget to admit the all-fast assignment; leaves the
    workspace reflecting the returned choices.  [stop] as in {!pass}. *)

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
    was reached yet, the {!greedy} answer under the same interrupt (the
    all-fast assignment once it has fired), so the caller always gets a
    valid budget-feasible result. *)
