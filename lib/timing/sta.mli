(** Static timing analysis with per-version delay derating and slew
    propagation.

    Tracks rise and fall arrival/required times separately: every
    library cell is inverting, so an output rise is launched by input
    falls and vice versa, and a version's rise/fall factors derate
    different paths (a high-Vt PMOS only hurts rises — the property the
    four-trade-point library exploits).  Delays follow the paper's
    two-axis tables: a load-dependent base scaled by the version factor
    plus a term proportional to the input transition time; output slews
    are derated by the same factor, so a slowed cell also degrades its
    fan-out's delay.

    The optimizer's contract: keep a workspace's version/pin assignment
    in sync, call {!update} (or {!update_from}) after accepting a
    change, and pre-filter candidate versions against the *current*
    arrival and required times with {!candidate_feasible}.  Because a
    slowed cell also slows downstream stages through its output slew,
    the pre-filter is necessary but not sufficient — accept a candidate
    only after re-checking {!meets_budget} on the updated workspace (the
    gate-tree search does exactly that, reverting on failure).  That
    check is O(1) and exact in every state: the workspace keeps a count
    of late outputs current through every {!update}, {!update_from} and
    {!set_budget}, whether or not the budget held before the change.

    The allocation contract: {!assign}, {!update_from},
    {!candidate_feasible} and {!meets_budget} allocate nothing.  The
    workspace resolves each node's fan-in and fan-out pins at {!create},
    and each gate's rise/fall factor rows for its current version at
    {!create}, {!reset_fast} and every {!assign}, so a worklist pop
    reads arrays only: no netlist match, no library lookup, no closure
    and no boxed float.  Accessors that return pairs ({!arrival},
    {!required}, {!slew_of}, {!edge_delays}) allocate their tuple.

    The incremental worklists are level buckets keyed on
    {!Standby_netlist.Netlist.level_of}: an O(1) push and pop, lowest
    level first forward and highest first backward.  An arrival reads
    only fan-ins (lower levels) and a required time only consumers
    (higher levels), so each node settles once, after everything it
    reads. *)

type t
(** Mutable timing workspace bound to one netlist and library. *)

val create :
  ?load:(int -> int) -> Standby_cells.Library.t -> Standby_netlist.Netlist.t -> t
(** Workspace with every gate on the fast version, budget at the
    all-fast circuit delay, timing up to date.  [load] overrides the
    per-gate output load (default: the netlist's own fan-out count) —
    a partitioned sub-circuit passes the loads of the full circuit so
    its base delays match the whole-circuit analysis. *)

val netlist : t -> Standby_netlist.Netlist.t

val assign : t -> int -> version:int -> perm:int array -> unit
(** Set a gate's version and pin order.  Timing becomes stale until
    {!update} (or {!update_from}) runs. *)

val version_of : t -> int -> int

val perm_of : t -> int -> int array

val reset_fast : t -> unit
(** Back to the all-fast assignment; refreshes timing. *)

val set_budget : t -> float -> unit
(** Set the delay constraint and refresh required times. *)

(** {2 Boundary freezing (partitioned sub-circuits)}

    A region extracted from a larger circuit carries interface
    contracts: its primary inputs arrive with whatever timing the
    surrounding logic delivers, and its outputs must meet whatever the
    downstream logic requires.  The setters below install those frozen
    values (lazily allocated; whole-circuit workspaces pay nothing);
    call {!update} (or {!set_budget}) afterwards to refresh timing. *)

val set_input_boundary :
  t -> int -> arrival:float * float -> slew:float * float -> unit
(** Freeze a primary input's (rise, fall) arrival times and output
    slews, replacing the 0-arrival/default-slew assumption.
    @raise Invalid_argument if the node is not a primary input. *)

val set_output_required : t -> int -> rise:float -> fall:float -> unit
(** Cap a primary output's required times below the budget — the
    demand the full circuit's downstream logic places on an exported
    gate.  @raise Invalid_argument if the node is not marked as an
    output. *)

val budget : t -> float

val update : t -> unit
(** Full arrival (forward) and required (backward) recomputation. *)

val update_from : t -> int -> unit
(** Propagate arrivals forward from one changed gate through its fanout
    cone (worklist popped lowest logic level first), then refresh
    required times backward (highest level first) from the changed
    gate, its fanins and the nodes whose output slews actually moved —
    a required time reads a node's slew and its consumers' required
    times and pin delays, never its arrival — waking a node's fanins
    whenever its required time moves.  Nodes on one level never read
    each other, so the order within a level cannot change a float.
    Equivalent to {!update} up to timing epsilon, but the cost scales
    with the affected cone and the steady state allocates nothing. *)

val flush_counters : t -> unit
(** Publish locally batched [sta.incremental_updates] /
    [sta.worklist_pops] metric deltas to the shared registry.  Called
    automatically every 1024 incremental updates and on {!update};
    search drivers call it once more when a run ends so the tail is
    visible. *)

val circuit_delay : t -> float
(** Worst arrival over primary outputs (both transitions). *)

val meets_budget : t -> bool
(** Every output within its effective required time: the budget, also
    capped by any {!set_output_required} freeze (installed by the
    {!update} or {!set_budget} that follows it).  O(1), and exact in
    every state — after an {!update_from} it also counts outputs left
    late by earlier changes that were never reverted. *)

val candidate_feasible : t -> int -> version:int -> perm:int array -> bool
(** Would swapping this single gate keep every path through it within
    the budget, given current arrivals/requireds and input slews?  A
    fast necessary check; confirm with {!meets_budget} after installing
    the candidate (output-slew degradation propagates downstream). *)

val slew_of : t -> int -> float * float
(** Current (rise, fall) output transition times of a node. *)

val gate_slack : t -> int -> float
(** Smallest slack over the gate's transitions — a measure of how much
    this gate could be slowed. *)

val slowest_delay : t -> float
(** Circuit delay with every cell replaced by its all-high-Vt,
    all-thick-oxide fallback — the 100 % point of the paper's
    delay-penalty axis — timed on this workspace's forward pass.  The
    workspace must be all-fast, as {!create} and {!reset_fast} leave it;
    it is left exactly so, timing included. *)

val budget_for_penalty :
  Standby_cells.Library.t -> Standby_netlist.Netlist.t -> penalty:float -> float
(** [d_fast +. penalty *. (d_slow -. d_fast)]: the paper's definition of
    an x% delay penalty. *)

val arrival : t -> int -> float * float
(** Current (rise, fall) arrival times of a node. *)

val required : t -> int -> float * float
(** Current (rise, fall) required times of a node under the budget. *)

val edge_delays : t -> int -> pin:int -> float * float
(** Current (rise, fall) pin-to-output delays of a gate's fan-in pin,
    including the slew term.  @raise Invalid_argument for inputs. *)
