(** The shared cache tier: peer standbyd stores stitched into a local
    {!Standby_service.Result_store} as its remote hooks.

    {!attach} makes a daemon's store read-through: a local miss asks
    each peer in turn over a fresh connection ([cache-get], served from
    the peer's {e local} store, so mutually-peered daemons cannot loop),
    and a fresh local result is offered to every peer ([cache-put]) from
    a detached best-effort thread — the computing request never waits on
    replication.  A circuit optimized on backend A is therefore a cache
    hit on backend B, bit-identically: entries travel at full [%.17g]
    float precision, and the engine re-validates every entry against the
    live library before serving it.

    All transport failures degrade to misses or dropped publishes; the
    tier can slow a cold lookup down, never make it fail. *)

val attach :
  ?connect_timeout_s:float ->
  store:Standby_service.Result_store.t ->
  peers:Standby_server.Protocol.address list ->
  unit ->
  unit
(** [Result_store.set_remote store (Some (remote ... ~peers ()))]; a
    no-op when [peers] is empty. *)
