(** A blocking standbyd client: one connection, pipelined requests.

    Thin by design — the CLI [submit] subcommand, the cluster router and
    the test suites drive it; requests go out in call order, and
    responses come back in the order the daemon finishes them (match
    them up by [id]).

    Failures are typed so callers can tell a dead backend from a
    confused one: {!Unavailable} covers connection refusal, resolution
    failure, connect timeout, resets, EPIPE and a peer that closed the
    stream — everything a router should answer by failing over to the
    next ring replica.  {!Protocol_error} covers bytes that arrived but
    did not parse or validate — failing over would only mask the bug. *)

type error =
  | Unavailable of string
      (** Dead or unreachable backend (ECONNREFUSED, EPIPE, reset,
          timeout, EOF…) — safe to retry elsewhere. *)
  | Protocol_error of string
      (** The peer answered with an unparsable or oversized frame. *)
  | Closed  (** This client handle was already {!close}d. *)

val error_message : error -> string

type t

val connect :
  ?connect_timeout_s:float ->
  ?max_frame_bytes:int ->
  Protocol.address ->
  (t, error) result
(** Non-blocking connect bounded by [connect_timeout_s] (default 10 s),
    so a black-holed TCP backend costs a bounded wait. *)

val send :
  ?trace:Standby_telemetry.Telemetry.context -> t -> Protocol.request -> (unit, error) result
(** [?trace] rides along as the frame's optional ["trace"] field (see
    {!Protocol.request_to_json}) so the peer's spans join the caller's
    trace. *)

val recv : t -> (Protocol.response, error) result
(** Next response frame.  A clean peer close surfaces as
    [Unavailable "connection closed by server"].  Note that a
    progress-requesting optimize job receives zero or more
    {!Protocol.Progress} frames before its terminal one
    ({!Protocol.is_terminal}). *)

val rpc :
  ?trace:Standby_telemetry.Telemetry.context ->
  t ->
  Protocol.request ->
  (Protocol.response, error) result
(** [send] then [recv] — only safe when nothing else is pipelined. *)

val close : t -> unit
(** Idempotent. *)

val with_connection :
  ?connect_timeout_s:float ->
  ?max_frame_bytes:int ->
  Protocol.address ->
  (t -> 'a) ->
  ('a, error) result
(** {!connect}, run the function on the connection, and {!close} it
    however the function returns.  A failed dial is the [Error]. *)
