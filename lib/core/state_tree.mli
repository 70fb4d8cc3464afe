(** The state tree: branch-and-bound search over sleep input vectors.

    Each tree level decides one primary input (ordered by influence —
    descending fan-out); each node's two branches are ordered by the
    partial-state leakage lower bound and pruned against the incumbent.
    Every leaf (complete vector) invokes a gate-tree search — the
    "implicit copy of the gate tree at every state-tree node" of the
    paper's Figure 4.

    The same engine drives all methods: Heuristic 1 stops after a single
    bound-guided descent, Heuristic 2 keeps searching until a time
    budget expires, and the exact optimizer runs it to exhaustion with
    the exact gate tree at the leaves. *)

type config = {
  use_bound_ordering : bool;
      (** When false (ablation) branches are taken 0-then-1 and only
          pruning uses the bound. *)
  gate_order : Gate_tree.order;
  prune_with_bound : bool;
      (** When false (ablation) subtrees are never cut, only ordered. *)
}

val default_config : config

type leaf = {
  vector : bool array;  (** Sleep vector, primary-input order. *)
  choices : int array;  (** Per-node option index. *)
  leakage : float;  (** Total leakage, A. *)
}

type stop_reason =
  | Exhausted  (** The whole tree was explored (or pruned away). *)
  | Leaf_limit  (** [max_leaves] descents completed (Heuristic 1). *)
  | Timed_out  (** [timer] (Heuristic 2's budget) or [deadline] expired. *)
  | Interrupted  (** The [interrupt] callback requested a stop. *)

val stop_reason_name : stop_reason -> string
(** Stable lowercase names ("exhausted", "leaf-limit", "timed-out",
    "interrupted") — used in trace fields and reports. *)

type outcome = { best : leaf; stop_reason : stop_reason }

val input_order : Standby_netlist.Netlist.t -> int array
(** Vector positions of the primary inputs ordered by descending
    fan-out — the branching order of the state tree, also used by
    {!Refine.hill_climb} to scan influential inputs first. *)

val search :
  ?config:config ->
  ?on_incumbent:(leaf -> unit) ->
  ?interrupt:(unit -> bool) ->
  stats:Search_stats.t ->
  timer:Standby_util.Timer.t ->
  deadline:Standby_util.Timer.t ->
  max_leaves:int option ->
  exact_gate_tree:bool ->
  Bound.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  outcome
(** Best leaf found.  [timer] is the method's own budget, [deadline] an
    external one; both, [max_leaves] and [interrupt] are polled at every
    node and leaf boundary.  The first descent always reaches its leaf,
    so a solution is guaranteed.  Only [deadline] and [interrupt] reach
    inside a leaf's gate tree: the {!Gate_tree.pass} stops within 32
    gates, leaving the gates it did not reach fast (the exact gate tree
    keeps its best complete assignment, or falls back to that pass).
    [timer] never cuts a leaf short,
    so the first leaf of Heuristic 2 is always Heuristic 1's.
    [on_incumbent] fires every time a descent improves on the best leaf
    so far (including the first), letting callers snapshot the incumbent
    for deadline-degraded results. *)

val search_parallel :
  ?config:config ->
  ?on_incumbent:(leaf -> unit) ->
  ?interrupt:(unit -> bool) ->
  jobs:int ->
  stats:Search_stats.t ->
  timer:Standby_util.Timer.t ->
  deadline:Standby_util.Timer.t ->
  max_leaves:int option ->
  exact_gate_tree:bool ->
  Bound.t ->
  Standby_cells.Library.t ->
  Standby_timing.Sta.t ->
  outcome
(** [search] split across [jobs] worker domains: the top of the state
    tree is divided into subtree tasks (about four per worker) executed
    on a {!Standby_pool.Pool}, each worker owning a private simulation
    workspace and STA while the incumbent leakage is shared through an
    atomic so pruning bounds stay global.  Per-worker counters merge
    into [stats] and subtree results merge in index order, so an
    exhaustive run returns the same best leakage as the sequential
    search (the witnessing vector may differ only on exact ties).
    [on_incumbent] is serialized; [interrupt] must be safe to poll from
    any domain.  [jobs <= 1] falls back to [search].  The caller's
    [sta] is not touched — workers build their own (inheriting its
    delay budget). *)
