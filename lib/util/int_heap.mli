(** A deduplicating binary heap over small integer ids.

    The worklist of the incremental STA ({!Standby_timing.Sta}): ids
    are dense node identifiers in [0, capacity), pushing an id already
    in the heap is a no-op, and all storage is preallocated at creation
    so steady-state operation never allocates.

    Node ids are topological by construction ({!Standby_netlist.Netlist}),
    so an ascending heap pops a DAG worklist in dependency order
    (forward passes) and a descending one in reverse dependency order
    (backward passes) — each node is then settled exactly once per
    update. *)

type t

val create : ?descending:bool -> int -> t
(** [create capacity] accepts ids in [0, capacity).  [descending]
    selects largest-first popping (default: smallest-first).
    @raise Invalid_argument on a negative capacity. *)

val push : t -> int -> unit
(** Insert an id; no-op if it is already queued.
    @raise Invalid_argument on an out-of-range id. *)

val pop : t -> int
(** Remove and return the smallest (or largest, for a descending heap)
    queued id.  @raise Invalid_argument on an empty heap. *)

val is_empty : t -> bool
