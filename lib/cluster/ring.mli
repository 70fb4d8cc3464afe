(** Consistent-hash ring over backend names, with virtual nodes.

    Each backend contributes [vnodes] points on a 64-bit ring (the first
    eight bytes of an MD5 over ["name#i"]); a key is owned by the first
    point at or clockwise of the key's own hash.  Two properties carry
    the cluster design:

    - {b Balance}: with enough virtual nodes the arc owned by each
      backend concentrates near [1/n] of the keyspace, so no backend
      sees a disproportionate share of digests (the property test pins
      max/min ≤ 2× over 1k keys at the default 128 vnodes).
    - {b Stability}: adding or removing one backend moves only the keys
      on the arcs that backend gained or lost — every other key keeps
      its owner, so the fleet's caches stay warm through membership
      change.

    The ring is immutable; routers rebuild or {!remove} on membership
    events.  Keys and backend names are arbitrary strings — the router
    uses {!Standby_service.Cache_key.digest} keys and address strings. *)

type t

val default_vnodes : int
(** 128. *)

val create : ?vnodes:int -> string list -> t
(** Duplicate backend names are collapsed.
    @raise Invalid_argument if [vnodes < 1]. *)

val backends : t -> string list
(** Distinct backend names, sorted. *)

val vnodes : t -> int

val lookup : t -> key:string -> string option
(** Owner of [key]; [None] iff the ring is empty. *)

val replicas : t -> key:string -> string list
(** Every distinct backend, ordered clockwise from [key]'s position:
    head is {!lookup}'s owner, the tail is the failover order.  Removing
    the head from the ring makes the old second element the new owner —
    which is exactly why a router that walks this list on failure
    agrees with one that saw the backend leave. *)

val remove : t -> string -> t
(** Ring without [name]'s points; a no-op if [name] is not a member. *)
