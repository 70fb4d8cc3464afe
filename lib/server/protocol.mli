(** The standbyd wire protocol: versioned request/response records over
    newline-delimited JSON, with length-guarded framing.

    One JSON object per line in each direction.  Every record carries
    [{"v":…,"type":…}]; a record whose [v] falls outside the accepted
    window (1..2) is rejected with a structured error (the
    connection survives), so a future version bump degrades to an
    explicit "unsupported version" answer instead of a parse failure.
    Encoders stamp each frame with the {e lowest} version whose peers
    can handle it: a plain v1 verb stays [v:1] even when it carries the
    optional [trace] field (v1 decoders ignore unknown fields), while
    the v2-only surfaces — the [stats] verb, [progress] pushes, and
    optimize jobs that request progress or run greedy or partition —
    say [v:2] so a v1 peer rejects them loudly instead of mishandling
    them silently.  The codec is
    {!Standby_telemetry.Json} — the writer emits no raw newlines, so
    one record is always one line.

    Optimize requests name a built-in benchmark or carry the netlist
    inline as ISCAS [.bench] text: the daemon never reads the client's
    filesystem.  Responses either answer the request ([result],
    [status], [metrics]), reject it with a retry hint ([rejected] — the
    admission queue is full or the server is draining), or report a
    request-level failure ([error]). *)

type address =
  | Unix_socket of string  (** Socket file path. *)
  | Tcp of string * int  (** Host (name or dotted quad) and port. *)

val address_of_string : string -> (address, string) result
(** ["unix:PATH"], ["HOST:PORT"], or a bare path (anything without a
    colon) as a Unix socket. *)

val address_to_string : address -> string

val sockaddr_of_address : address -> (Unix.sockaddr * Unix.socket_domain, string) result
(** Resolve a TCP host (dotted quad or name lookup); the shared step of
    dialing ({!Client}) and listening ({!Listener}). *)

type source =
  | Circuit of string  (** A {!Standby_circuits.Benchmarks} name. *)
  | Bench of { name : string; text : string }  (** Inline [.bench] netlist. *)

val netlist_of_source : source -> (Standby_netlist.Netlist.t, string) result
(** The netlist a request names: a built-in benchmark or the inline
    text parsed.  The daemon and the router resolve sources only here. *)

type optimize = {
  id : string;  (** Client-chosen; echoed on the response. *)
  source : source;
  mode : Standby_cells.Version.mode;
  method_ : Standby_opt.Optimizer.method_;
      (** On the wire, the [method] object: the
          {!Standby_opt.Optimizer.method_token} under [name] plus the
          method's parameters ([time_limit_s] in float seconds,
          [rounds], [regions]).  A bare name string decodes with the
          default parameters. *)
  penalty : float;
  deadline_s : float option;
      (** Wall-clock budget; a blown deadline returns the best incumbent
          marked [degraded], never an error. *)
  progress : bool;
      (** Push a [progress] frame on this connection for every incumbent
          improvement while the job runs (v2). *)
}

type request =
  | Optimize of optimize
  | Status  (** Liveness + admission snapshot (the [/healthz] analogue). *)
  | Metrics  (** Prometheus text exposition of the metrics registry. *)
  | Stats
      (** Structured snapshot of the metrics registry (v2).  A
          coordinator answers with the {e sum} over its backends'
          snapshots, so one round trip reads the whole fleet. *)
  | Cache_get of { key : string }
      (** Shared-tier probe: look [key] up in the peer's local
          {!Standby_service.Result_store} (never recursing into the
          peer's own remote tier). *)
  | Cache_put of { key : string; entry : Standby_service.Result_store.entry }
      (** Shared-tier write-back: persist [entry] under [key] in the
          peer's local store. *)
  | Drain of { backend : string option }
      (** Administrative drain.  On a backend daemon [backend] must be
          [None]: stop accepting, answer in-flight work, exit.  On a
          coordinator, [Some addr] marks that backend draining (no new
          assignments, removed once empty); [None] drains the
          coordinator itself. *)

type result_payload = {
  id : string;
  status : string;  (** computed | cached | degraded. *)
  method_name : string;
  library_mode : string;
  key : string;  (** {!Standby_service.Cache_key.digest}. *)
  leakage_a : float;
  isub_a : float;
  igate_a : float;
  delay : float;
  budget : float;
  delay_fast : float;
  delay_slow : float;
  penalty : float;
  runtime_s : float;
  wall_s : float;
  inputs : int;
  gates : int;
  assignment : string;  (** {!Standby_power.Assignment.to_string} payload. *)
}

type backend_status = {
  backend : string;  (** The backend's address string. *)
  health : string;  (** healthy | suspect | down | draining | drained. *)
  backend_in_flight : int;  (** From the last successful probe. *)
  consecutive_failures : int;
  last_probe_s : float;
      (** Seconds since the last successful probe; negative = never. *)
  backend_incumbent_a : float option;
      (** The backend's latest incumbent leakage, relayed from its last
          probe — the live convergence column of [standbyopt top].
          [None] from pre-v2 peers or before any job ran. *)
}

type status_payload = {
  draining : bool;
  accepted : int;
  rejected : int;
  in_flight : int;  (** Admitted optimize requests not yet answered. *)
  queue_depth : int;
      (** Mirror of the [server.queue_depth] gauge, so one STATUS round
          trip is a complete health probe.  Decoding a pre-cluster peer
          falls back to [in_flight]. *)
  capacity : int;
  workers : int;
  uptime_s : float;  (** Monotonic daemon uptime. *)
  incumbent_a : float option;
      (** Latest incumbent leakage seen by any job on this daemon;
          absent before the first improvement (and from v1 peers). *)
  backends : backend_status list;
      (** Per-backend fleet health — non-empty only on a coordinator. *)
}

type progress_payload = {
  progress_id : string;  (** The optimize request being improved. *)
  progress_leakage_a : float;  (** New incumbent total leakage. *)
  progress_elapsed_s : float;  (** Since the job was admitted. *)
  improvement : int;  (** 1-based improvement ordinal within the job. *)
}

type response =
  | Result of result_payload
  | Rejected of { id : string; reason : string; retry_after_s : float }
  | Error_response of { id : string option; message : string }
  | Status_reply of status_payload
  | Metrics_reply of { content_type : string; body : string }
  | Stats_reply of Standby_telemetry.Metrics.registry_snapshot
      (** Structured registry snapshot; from a coordinator, the sum over
          backend scrapes (see {!Standby_telemetry.Metrics.merge_snapshots}). *)
  | Progress of progress_payload
      (** Mid-job incumbent push (v2); the only non-terminal response —
          zero or more precede the job's terminal frame. *)
  | Cache_found of { key : string; entry : Standby_service.Result_store.entry }
  | Cache_missing of { key : string }
  | Cache_ack of { key : string; stored : bool }
      (** [stored = false] when the peer has no store configured. *)

val is_terminal : response -> bool
(** [false] only for {!Progress}: whether this frame finishes the
    request it answers. *)

val metrics_reply : Standby_telemetry.Metrics.t -> response
(** The METRICS answer: the registry's Prometheus text exposition. *)

val request_to_json :
  ?trace:Standby_telemetry.Telemetry.context -> request -> Standby_telemetry.Json.t
(** [?trace] attaches the caller's cross-process trace context as an
    optional ["trace"] field — on any verb, without bumping the frame
    version (v1 peers ignore it). *)

val request_of_json : Standby_telemetry.Json.t -> (request, string) result
(** Rejects unknown [v] values and unknown [type]s with messages fit to
    send back verbatim in an [error] response.  The ["trace"] field is
    deliberately not part of the decoded request — servers read it
    separately with {!trace_of_json}. *)

val trace_of_json : Standby_telemetry.Json.t -> Standby_telemetry.Telemetry.context option
(** The ["trace"] field of a raw request frame, if present and well
    formed; malformed contexts degrade to [None] (the request itself
    still decodes). *)

val response_to_json : response -> Standby_telemetry.Json.t

val response_of_json : Standby_telemetry.Json.t -> (response, string) result

(** Length-guarded newline framing over a file descriptor.  The reader
    owns a buffer, tolerates partial reads (a record split across any
    number of [read] calls) and rejects any line longer than
    [max_bytes] before buffering more of it — an oversized or garbage
    peer cannot balloon the daemon's memory. *)
module Frame : sig
  type reader

  val default_max_bytes : int
  (** 4 MiB — comfortably above any inline ISCAS netlist. *)

  val reader : ?max_bytes:int -> Unix.file_descr -> reader

  val read : reader -> (string, [ `Eof | `Oversized | `Error of string ]) result
  (** Next complete line, without its terminator.  [`Eof] once the peer
      closes (a final unterminated fragment is discarded); [`Oversized]
      as soon as the line under construction exceeds [max_bytes]. *)

  val write : Unix.file_descr -> string -> (unit, string) result
  (** [payload ^ "\n"], looping over short writes.
      @raise Invalid_argument if [payload] contains a newline. *)
end
