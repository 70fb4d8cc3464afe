(** The standbyd cluster coordinator: a front-end daemon that speaks the
    standbyd wire protocol on both sides.

    Clients connect exactly as they would to a single daemon; the router
    computes each optimize request's content digest
    ({!Standby_service.Cache_key.digest} over the canonical netlist,
    process, mode, penalty and method — the very key the result stores
    use), walks the {!Ring}'s replica order for that digest, and proxies
    the request to the first live backend over a per-request downstream
    connection.  The winning backend's response is forwarded {e
    unmodified} — same [id], same floats — so a routed request is
    bit-identical to a direct one.

    {b Failover.}  A backend that refuses the dial, times out, or tears
    the connection mid-request is marked failed and the next ring
    replica is tried; a backend that answers [rejected] is backpressured
    for its [retry_after_s] hint and likewise skipped.  Only when every
    replica has rejected does the client see a [rejected] — carrying the
    {e minimum} hint observed, because the fleet frees up when its
    least-loaded member does.  A protocol-level error is never masked by
    rerouting.  Because consistent hashing is deterministic, a retried
    request lands on the same surviving replica any other router would
    pick.

    {b Health.}  A prober thread runs STATUS round trips against every
    backend on its own cadence (exponential backoff while failing —
    see {!Health}); routed traffic feeds the same state passively.

    {b Drain.}  A wire [drain] naming a backend stops new assignments to
    it and removes it once both the router's outstanding requests on it
    and its own observed queue reach zero; [drain] with no backend (or
    SIGTERM/SIGINT) drains the router's own {!Standby_server.Listener}.

    Cache verbs are proxied by their digest along the same replica walk,
    so external tooling can query or seed the fleet's stores through the
    router; a fleet-wide miss is answered as a miss, never an error. *)

type config = {
  listen : Standby_server.Protocol.address;
  backends : Standby_server.Protocol.address list;
  vnodes : int;  (** Ring points per backend. *)
  probe_interval_s : float;  (** Healthy re-probe cadence. *)
  connect_timeout_s : float;  (** Downstream dial bound. *)
  max_frame_bytes : int;
}

val default_config :
  listen:Standby_server.Protocol.address ->
  backends:Standby_server.Protocol.address list ->
  config
(** 128 vnodes, 2 s probes, 5 s connect timeout, default frame cap. *)

type t

val create : config -> (t, string) result
(** Binds the front listener ({!Standby_server.Listener.listen}).
    Fails on an empty backend list. *)

val run : t -> unit
(** {!Standby_server.Listener.run}; the prober is joined when it
    returns. *)

val request_drain : t -> unit
(** {!Standby_server.Listener.request_drain}. *)

val install_signal_handlers : t -> unit
(** {!Standby_server.Listener.install_signal_handlers}. *)
