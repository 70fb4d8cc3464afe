(** standbyd: the long-running optimization daemon.

    A {!Listener} (TCP or Unix-domain socket) owns the connections and
    the drain; one {!Standby_pool.Pool} of worker domains executes
    admitted jobs through {!Standby_service.Engine.execute} — so a
    served request returns bit-identical results to the same job run
    through [standbyopt batch], including the content-addressed
    {!Standby_service.Result_store} probe.

    {b Admission.}  At most [capacity] optimize requests may be in
    flight (admitted but unanswered).  Requests beyond that are answered
    immediately with a [rejected] record carrying a [retry_after_s]
    hint derived from the observed mean job wall time — bounded queue,
    explicit backpressure, no silent buffering.

    {b Deadlines.}  A request's [deadline_s] rides the engine's
    deadline-aware degradation: the search is cooperatively cancelled at
    the deadline and the best delay-feasible incumbent comes back with
    status ["degraded"] instead of an error.

    {b Cancellation.}  A client that disconnects mid-job cancels it:
    the per-connection liveness flag is the optimizer's [interrupt]
    poll, the result is discarded, and the worker moves on.  The server
    itself never goes down with a connection.

    {b Drain.}  As {!Listener} describes; new optimize requests are
    answered [rejected ("draining")], and the pool shuts down once every
    admitted job has answered.  No admitted job is lost. *)

type config = {
  address : Protocol.address;
  capacity : int;  (** Max in-flight optimize requests; at least 1. *)
  workers : int option;  (** Pool size; [None] = pool default. *)
  store : Standby_service.Result_store.t option;  (** [None] disables caching. *)
  max_frame_bytes : int;  (** Per-line request size guard. *)
}

val default_config : Protocol.address -> config
(** capacity 64, default workers, no store,
    {!Protocol.Frame.default_max_bytes}. *)

type t

val create :
  ?libraries:Standby_service.Job.Library_cache.t -> config -> (t, string) result
(** Binds and listens ({!Listener.listen}).  Pass [libraries] to share
    characterized libraries with an embedding process (tests); by
    default the daemon owns a fresh cache. *)

val run : t -> unit
(** {!Listener.run}; every worker is joined when it returns.  Call at
    most once. *)

val request_drain : t -> unit
(** {!Listener.request_drain}. *)

val install_signal_handlers : t -> unit
(** {!Listener.install_signal_handlers}. *)
