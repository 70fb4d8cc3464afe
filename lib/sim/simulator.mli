(** Zero-delay logic simulation over the topologically ordered netlist.

    One forward pass computes every node value; the per-gate packed
    input state is what the leakage library is indexed by. *)

val eval : Standby_netlist.Netlist.t -> bool array -> bool array
(** [eval net input_values] — inputs in primary-input declaration order.
    Returns a value per node id.  Allocation-free beyond the result
    array; the scalar oracle {!Bitsim} is validated against.
    @raise Invalid_argument on an input-count mismatch. *)

val eval_partial : Standby_netlist.Netlist.t -> Logic.trit array -> Logic.trit array
(** Three-valued counterpart for partial input assignments. *)

(** Event-driven three-valued simulation for branch-and-bound search.

    A workspace holds a persistent node-value array over a netlist.
    {!Workspace.assume} assigns one primary input and propagates the
    consequences through the affected cone only, via a fanout-driven
    worklist; an undo trail makes {!Workspace.retract} restore the
    previous branch point in time proportional to what the assumption
    actually touched, not the netlist size.  Kleene three-valued
    evaluation is monotone in information (values only ever move
    Unknown → known while assuming), which is what makes the id-only
    trail and order-insensitive FIFO propagation sound. *)
module Workspace : sig
  type t

  val create : Standby_netlist.Netlist.t -> t
  (** All storage is preallocated; every node starts Unknown. *)

  val values : t -> Logic.trit array
  (** The live node-value array (do not mutate). *)

  val events : t -> int
  (** Cumulative count of worklist pops over the workspace's life —
      the "sim.events" telemetry counter source. *)

  val depth : t -> int
  (** Number of open (unretracted) assumptions. *)

  val assume : ?on_touch:(int -> unit) -> t -> int -> Logic.trit -> unit
  (** [assume t position v] assigns primary input [position] (in
      declaration order) the known value [v] and propagates.
      [on_touch id] fires for every gate whose inputs changed — the
      exact set whose bound contribution may have moved.
      @raise Invalid_argument if [v] is Unknown, [position] is out of
      range, or that input is already assigned. *)

  val retract : ?on_touch:(int -> unit) -> t -> unit
  (** Undo the most recent open [assume]: every node the assumption
      made known reverts to Unknown, then [on_touch] fires for the
      fanouts of each restored node.
      @raise Invalid_argument if no assumption is open. *)
end

val gate_states : Standby_netlist.Netlist.t -> bool array -> int array
(** Packed input state of every gate node given all node values
    (most-significant bit = fanin 0, the {!Standby_netlist.Gate_kind}
    convention); 0 for primary inputs. *)

val output_vector : Standby_netlist.Netlist.t -> bool array -> bool array
(** Values of the primary outputs for an input vector — used by
    equivalence property tests. *)
