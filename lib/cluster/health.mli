(** Per-backend health, as the router sees it.

    A backend moves through [Healthy] (0 consecutive failures) →
    [Suspect] (1–2) → [Down] (3 or more); any success resets it to
    [Healthy].  Probes back off exponentially with the failure count
    (capped), so a dead backend costs one bounded-timeout dial per
    backoff period, not per request.  Orthogonally a backend can be
    administratively {e draining}: it takes no new assignments, and once
    the router has no outstanding requests on it {e and} its own queue
    has been observed empty it becomes {e drained} — permanently out of
    the rotation.

    A backend that answers [rejected] is not failing, it is full:
    {!note_backpressure} records its [retry_after_s] hint and
    {!routable} excludes it until the hint expires, without touching the
    failure count.

    Values are mutable and {b not} internally synchronized — the router
    guards all of them with its one fleet mutex; nothing here blocks, so
    the critical sections stay short. *)

type state = Healthy | Suspect | Down

type t

val create :
  ?probe_interval_s:float ->
  name:string ->
  Standby_server.Protocol.address ->
  t
(** Starts [Healthy] and optimistic — immediately probe-due and
    routable, so a cold router serves traffic before the first probe
    round completes.  [probe_interval_s] (default 2 s) paces healthy
    re-probes and seeds the failure backoff. *)

val name : t -> string
val address : t -> Standby_server.Protocol.address
val state : t -> state

val note_success : t -> now:float -> ?in_flight:int -> ?incumbent_a:float -> unit -> unit
(** Any successful exchange: resets failures, schedules the next routine
    probe.  [in_flight] is the backend's own queue depth and
    [incumbent_a] its live incumbent leakage when the exchange was a
    STATUS probe; omitted (a routed request) the last observations
    stand. *)

val note_failure : t -> now:float -> unit
(** A refused/timed-out/torn connection — routed or probed; bumps the
    failure count and pushes the next probe out exponentially. *)

val note_backpressure : t -> now:float -> retry_after_s:float -> unit

val probe_due : t -> now:float -> bool
(** Never true for a drained backend — there is nothing left to learn. *)

val assignable : t -> bool
(** Not draining and not drained: may appear in a failover walk at all
    (even [Down] backends are last-resort candidates when every replica
    looks dead — the probe verdict may simply be stale). *)

val routable : t -> now:float -> bool
(** {!assignable}, not [Down], and not under backpressure: preferred
    candidates, tried before any last resort. *)

val begin_request : t -> unit
(** Router-side outstanding-request accounting, for drain tracking. *)

val end_request : t -> unit

val mark_draining : t -> unit

val observe_drained : t -> bool
(** Promote draining → drained when the router holds no outstanding
    requests and the backend's last-observed queue depth is zero.
    Returns [true] on the transition (so the caller can log it once). *)

val health_name : t -> string
(** [healthy | suspect | down | draining | drained] — the wire token;
    draining/drained shadow the probe verdict. *)

val status_view : t -> now:float -> Standby_server.Protocol.backend_status
