(** Gate-level combinational netlists.

    A netlist is a DAG of primary inputs and library cells.  Node
    identifiers are dense integers and, by construction of the
    {!Builder}, appear in topological order: every fan-in of node [i] has
    an identifier below [i].  Simulation, timing analysis and the
    optimizer all rely on this invariant to run in single passes. *)

type node = Primary_input | Cell of { kind : Gate_kind.t; fanin : int array }

type t
(** An immutable, fully built netlist. *)

(** {1 Construction} *)

module Builder : sig
  type netlist := t

  type t
  (** Mutable netlist under construction. *)

  val create : ?name:string -> unit -> t
  (** Fresh builder; [name] labels the finished design. *)

  val add_input : ?name:string -> t -> int
  (** New primary input; returns its node id. *)

  val add_gate : ?name:string -> t -> Gate_kind.t -> int array -> int
  (** [add_gate b kind fanin] adds a cell driven by existing nodes and
      returns its id.  @raise Invalid_argument if the fan-in count does
      not match the kind's arity or refers to an unknown node (which
      would break the topological-id invariant). *)

  val mark_output : ?name:string -> t -> int -> unit
  (** Declare an existing node as a primary output.  A node may be marked
      at most once.  [name] becomes the node's name at {!finish} when the
      node was added without one. *)

  val node_count : t -> int

  val finish : t -> netlist
  (** Freeze the builder.  @raise Invalid_argument if no output was
      marked. *)
end

(** {1 Accessors} *)

val design_name : t -> string
val node_count : t -> int
val input_count : t -> int
val gate_count : t -> int

val node : t -> int -> node
(** @raise Invalid_argument on out-of-range ids. *)

val kind_of : t -> int -> Gate_kind.t option
(** [None] for primary inputs. *)

val fanin : t -> int -> int array
(** Fan-in node ids ([||] for primary inputs).  Do not mutate. *)

val fanout : t -> int -> int array
(** Node ids of the cells this node drives.  Do not mutate. *)

val fanout_count : t -> int -> int

val inputs : t -> int array
(** Primary-input node ids in declaration order.  Do not mutate. *)

val outputs : t -> int array
(** Primary-output node ids in declaration order.  Do not mutate. *)

val name_of : t -> int -> string
(** Node name (auto-generated ["n<i>"] when none was given).  Names are
    unique per netlist: colliding names are suffixed at {!Builder.finish}
    in id order, so exporters can use them as net identifiers. *)

val id_of_name : t -> string -> int option
(** [id_of_name t s] is the node named [s] ({!name_of}'s inverse),
    found by a linear scan over the names: O(n) per call. *)

val is_input : t -> int -> bool

val iter_gates : t -> (int -> Gate_kind.t -> int array -> unit) -> unit
(** Visit every cell in topological (id) order. *)

exception Cycle of int
(** Raised by {!postorder} with a node reached from itself. *)

val postorder : fanin:(int -> int array) -> int -> int array -> (int -> unit) -> unit
(** [postorder ~fanin n roots f] walks the graph on nodes [0 .. n-1]
    depth first from each root in turn and calls [f] once on every
    reached node with a non-empty [fanin], after all of its fan-ins (left
    to right): the recursive post-order, on an explicit stack so that a
    million-node chain cannot overflow the call stack.  Nodes with an
    empty fan-in (primary inputs, undriven signals) are leaves and are not
    passed to [f].  On a netlist, [postorder ~fanin:(fanin t) (node_count
    t) (outputs t)] visits the gates in the outputs' cones.
    @raise Cycle [id] when [id] is reached from itself. *)

val level_of : t -> int array
(** Logic depth of each node: 0 for inputs, 1 + max fan-in level for
    cells. *)

val depth : t -> int
(** Largest level over all nodes (0 for an input-only netlist). *)

val gate_histogram : t -> (Gate_kind.t * int) list
(** Cell count per kind, in {!Gate_kind.all} order, zero-count kinds
    omitted. *)

val validate : t -> (unit, string) result
(** Re-checks structural invariants (topological ids, arity, output
    marks); used by property tests and after file import. *)
