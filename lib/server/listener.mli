(** The connection lifecycle shared by standbyd ({!Server}) and the
    cluster router: one listening socket, a [select] accept loop that
    polls an atomic drain flag every 0.2 s, one reader thread per
    connection, and a drain that loses no admitted request.

    A reader answers malformed JSON and undecodable requests with a
    structured [error] on the surviving connection, and a frame over
    [max_frame_bytes] with an [error] before dropping the connection;
    each counts on the caller's [protocol_errors] counter.  Every valid
    request goes to the caller's handler. *)

type conn
(** One accepted client connection. *)

val peer : conn -> string
(** ["host:port"] for TCP peers, ["unix"] for Unix-domain ones. *)

val alive : conn -> bool
(** False once the peer hung up or a write to it failed — the
    cancellation poll for requests admitted on this connection. *)

val send : conn -> Protocol.response -> unit
(** Write one response frame; a no-op once the connection is gone. *)

type t

val listen : Protocol.address -> (Unix.file_descr, string) result
(** Bind and listen: a stale Unix socket file is replaced (anything else
    at the path is refused), TCP sets [SO_REUSEADDR] so a rapid restart
    never fights TIME_WAIT for the port, the descriptor is close-on-exec,
    and no descriptor leaks when bind or listen fails. *)

val create :
  name:string ->
  connections:Standby_telemetry.Metrics.counter ->
  protocol_errors:Standby_telemetry.Metrics.counter ->
  ?queue_depth:Standby_telemetry.Metrics.gauge ->
  max_frame_bytes:int ->
  Protocol.address ->
  (t, string) result
(** {!listen} on the address.  [name] tags the drain log lines;
    [queue_depth], when given, mirrors the in-flight count. *)

val run :
  t ->
  handler:(conn -> trace:Standby_telemetry.Telemetry.context option -> Protocol.request -> unit) ->
  on_drain:(unit -> unit) ->
  unit
(** The accept loop.  [handler] runs on the connection's reader thread
    with the frame's propagated trace context; it must not block on long
    work.  Blocks until a drain completes; [on_drain] runs once no
    admitted request is in flight.  Call at most once. *)

val request_drain : t -> unit
(** Signal-safe: flips an atomic the accept loop polls. *)

val draining : t -> bool

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT request a drain; SIGPIPE is ignored (a peer
    hanging up mid-write must not kill the process). *)

(** {2 Admission bookkeeping} *)

type admission =
  | Admitted
  | Draining
  | Full of int  (** At capacity; carries the in-flight count. *)

val admit : ?capacity:int -> t -> admission
(** Count one request in flight, unless the listener is draining or
    already holds [capacity] (default unbounded) in-flight requests;
    a refusal counts as rejected.  Every [Admitted] request must end in
    {!serve_admitted}. *)

val serve_admitted :
  t -> trace:Standby_telemetry.Telemetry.context option -> (unit -> unit) -> unit
(** Run an admitted request under its propagated trace context, and
    count it answered however the function returns. *)

val count_rejected : t -> unit
(** Count an admitted request that was finally answered [rejected]. *)

val status :
  t ->
  capacity:int ->
  workers:int ->
  incumbent_a:float option ->
  backends:Protocol.backend_status list ->
  Protocol.status_payload
(** This listener's drain flag, admission counts and uptime, with the
    caller's own fields. *)
