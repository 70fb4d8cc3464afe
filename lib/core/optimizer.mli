(** Facade: run one standby-leakage optimization end to end.

    Couples the state-tree engine, gate-tree search, STA budget handling
    and solution evaluation, and packages the result the way the paper's
    tables report it (leakage, reduction factor, runtime, delay
    penalty). *)

type method_ =
  | Heuristic_1  (** Single bound-guided descent of both trees. *)
  | Heuristic_2 of { time_limit_s : float }
      (** Heuristic 1 quality or better: keeps searching states until
          the time budget expires (the paper used 1800 s; benches use a
          scaled-down default). *)
  | Hill_climb of { time_limit_s : float; max_rounds : int }
      (** Extension: Heuristic 1 followed by bit-flip hill climbing on
          the sleep vector (see {!Refine}). *)
  | Exact
      (** Full branch-and-bound over states with exact gate trees; only
          tractable for small circuits. *)
  | Greedy of { time_budget_s : float }
      (** Anytime: one pass of the gate-tree step in sensitivity order
          (see {!Greedy}).  Scales to 100k–1M gates, emits a strictly
          improving incumbent stream, and stops at the hard
          [time_budget_s] with the best incumbent found.  Sequential
          regardless of [jobs]. *)
  | Partition of { time_budget_s : float; regions : int }
      (** Partition-and-conquer for huge circuits: FM min-cut
          decomposition into [regions] parts ([0] sizes automatically
          from the gate count), per-region greedy optimization against
          frozen boundary contracts — run [jobs] regions at a time on
          worker domains — and global reconciliation of the stitched
          assignment (see {!Standby_partition}).  Anytime like
          {!constructor-Greedy}, and bit-identical across [jobs]. *)

val method_name : method_ -> string
(** Display name in results and tables ([heu1+hc] for hill climbing). *)

(** {1 Method vocabulary}

    The one table the CLI, job manifests and the wire protocol name,
    parameterize, default and validate methods through. *)

type params = { time_limit_s : float; rounds : int; regions : int }
(** [time_limit_s] is heu2's budget, hc's refinement limit and the hard
    budget of greedy and partition; [regions = 0] sizes automatically. *)

val default_params : params
(** 2.0 s, 8 rounds, 0 regions. *)

type param = Time_limit of float | Rounds of int | Regions of int

val method_token : method_ -> string
(** The method's name on the CLI, in manifests and on the wire. *)

val method_params : method_ -> param list
(** The parameters the method takes, in wire order. *)

val method_of_token : string -> params -> (method_, string) result
(** Builds the method [token] names, validating only the parameters it
    takes: time limit > 0, rounds > 0, regions >= 0.  Errors are
    user-facing messages; an unknown token lists every token. *)

type result = {
  method_name : string;
  library_mode : string;
  assignment : Standby_power.Assignment.t;
  breakdown : Standby_power.Evaluate.breakdown;
  delay : float;  (** Achieved circuit delay. *)
  budget : float;  (** Delay constraint used. *)
  delay_fast : float;  (** All-fast circuit delay. *)
  delay_slow : float;  (** All-slow circuit delay. *)
  penalty : float;  (** Requested delay penalty fraction. *)
  runtime_s : float;
  stats : Search_stats.t;
  degraded : bool;
      (** True when an external [deadline_s] cut the state search short
          of its own stopping rule: the assignment is the best (still
          delay-feasible) incumbent recorded up to the deadline, not the
          method's full answer. *)
}

val run :
  ?config:State_tree.config ->
  ?deadline_s:float ->
  ?interrupt:(unit -> bool) ->
  ?on_incumbent:(State_tree.leaf -> unit) ->
  ?jobs:int ->
  Standby_cells.Library.t ->
  Standby_netlist.Netlist.t ->
  penalty:float ->
  method_ ->
  result
(** [run lib net ~penalty m] optimizes [net] under a delay budget of
    [d_fast + penalty * (d_slow - d_fast)].  The returned assignment is
    verified against the budget (programming error otherwise).

    [deadline_s] imposes a wall-clock ceiling on top of the method's own
    stopping rule (Heuristic 2's budget, exact exhaustion): the search
    is cooperatively cancelled once it expires, the best incumbent found
    so far is returned, and the result is marked {!field-degraded}.  The
    first state-tree descent always reaches its leaf, but the deadline
    also reaches inside that leaf's gate-tree pass, which stops within 32
    gates and leaves the gates it did not reach fast: even a zero
    deadline yields a valid, delay-feasible assignment, possibly close
    to all-fast.  [on_incumbent] is forwarded to {!State_tree.search}.

    [interrupt] is polled cooperatively at every search node and every
    32 gates of a gate-tree pass for external cancellation (e.g. a
    serving client that disconnected).  A true poll stops the search the
    same way as the deadline; the result is marked {!field-degraded} and
    the hill-climbing refinement step is skipped.  Must be safe to call
    from any domain when [jobs > 1].

    [jobs] (default 1) runs the state search on that many worker domains
    via {!State_tree.search_parallel}, or — for
    {!constructor-Partition} — that many region solves at a time via
    {!Standby_partition.Region_opt}.  It only applies to methods with
    independent work to hand out (Heuristic 2, exact, partition); a
    single-descent method stays sequential regardless.
    @raise Invalid_argument if [penalty < 0] or [jobs < 1]. *)
