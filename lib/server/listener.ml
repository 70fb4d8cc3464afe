module Timer = Standby_util.Timer
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Log = Standby_telemetry.Log
module Json = Standby_telemetry.Json

(* Per-connection state.  [alive] doubles as the cancellation poll for
   every request admitted on this connection. *)
type conn = {
  fd : Unix.file_descr;
  alive : bool Atomic.t;
  mutable closed : bool;  (* fd released; set under both mutexes *)
  write_mutex : Mutex.t;  (* serializes writes, and a close after them *)
  fd_mutex : Mutex.t;  (* orders a hang-up against the close *)
  peer : string;
}

let peer conn = conn.peer
let alive conn = Atomic.get conn.alive

type t = {
  name : string;
  address : Protocol.address;
  listen_fd : Unix.file_descr;
  max_frame_bytes : int;
  connections : Metrics.counter;
  protocol_errors : Metrics.counter;
  queue_depth : Metrics.gauge option;
  draining_flag : bool Atomic.t;
  mutex : Mutex.t;  (* guards the counts and [conns] *)
  idle : Condition.t;  (* in_flight fell to 0 *)
  mutable in_flight : int;
  mutable accepted : int;
  mutable rejected : int;
  mutable conns : conn list;
  started : Timer.t;
}

let draining t = Atomic.get t.draining_flag

let request_drain t = Atomic.set t.draining_flag true

(* ------------------------------------------------------------------ *)
(* Setup                                                                *)

let bind_listener address (sockaddr, domain) =
  (match address with
   | Protocol.Unix_socket path -> (
     (* Replace a stale socket file from a previous (crashed) process;
        refuse to clobber anything that is not a socket. *)
     match Unix.lstat path with
     | { Unix.st_kind = Unix.S_SOCK; _ } -> Unix.unlink path
     | _ -> raise (Sys_error (Printf.sprintf "%s exists and is not a socket" path))
     | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ())
   | Protocol.Tcp _ -> ());
  let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
  (* The socket exists but is not yet listening: any failure from here on
     must release the descriptor, or a retrying caller leaks one fd per
     attempt. *)
  (try
     (* Without SO_REUSEADDR a restarted process would fight the
        TIME_WAIT remnants of its predecessor's connections and lose
        with EADDRINUSE for up to two MSLs. *)
     if domain = Unix.PF_INET then Unix.setsockopt fd Unix.SO_REUSEADDR true;
     Unix.set_close_on_exec fd;
     Unix.bind fd sockaddr;
     Unix.listen fd 128
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  fd

let listen address =
  match Result.map (bind_listener address) (Protocol.sockaddr_of_address address) with
  | result -> result
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, _) ->
    Error
      (Printf.sprintf "cannot listen on %s: %s"
         (Protocol.address_to_string address)
         (Unix.error_message e))

let create ~name ~connections ~protocol_errors ?queue_depth ~max_frame_bytes address =
  Result.map
    (fun listen_fd ->
      {
        name;
        address;
        listen_fd;
        max_frame_bytes;
        connections;
        protocol_errors;
        queue_depth;
        draining_flag = Atomic.make false;
        mutex = Mutex.create ();
        idle = Condition.create ();
        in_flight = 0;
        accepted = 0;
        rejected = 0;
        conns = [];
        started = Timer.unlimited ();
      })
    (listen address)

let install_signal_handlers t =
  (* The handlers run at safe points of the main thread; they must not
     take locks (the interrupted code may hold them), so they only flip
     the atomic the accept loop polls. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let drain _ = request_drain t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain)

(* ------------------------------------------------------------------ *)
(* Admission                                                            *)

type admission = Admitted | Draining | Full of int

(* Callers hold [t.mutex]. *)
let publish_depth t =
  Option.iter (fun g -> Metrics.set_gauge g (float_of_int t.in_flight)) t.queue_depth

let admit ?(capacity = max_int) t =
  Mutex.lock t.mutex;
  let verdict =
    if draining t then Draining
    else if t.in_flight >= capacity then Full t.in_flight
    else begin
      t.in_flight <- t.in_flight + 1;
      t.accepted <- t.accepted + 1;
      publish_depth t;
      Admitted
    end
  in
  if verdict <> Admitted then t.rejected <- t.rejected + 1;
  Mutex.unlock t.mutex;
  verdict

let serve_admitted t ~trace f =
  let finish () =
    Mutex.lock t.mutex;
    t.in_flight <- t.in_flight - 1;
    publish_depth t;
    if t.in_flight = 0 then Condition.broadcast t.idle;
    Mutex.unlock t.mutex
  in
  Fun.protect ~finally:finish (fun () ->
      match trace with None -> f () | Some ctx -> Telemetry.with_context ctx f)

let count_rejected t =
  Mutex.lock t.mutex;
  t.rejected <- t.rejected + 1;
  Mutex.unlock t.mutex

let status t ~capacity ~workers ~incumbent_a ~backends =
  Mutex.lock t.mutex;
  let payload =
    {
      Protocol.draining = draining t;
      accepted = t.accepted;
      rejected = t.rejected;
      in_flight = t.in_flight;
      queue_depth = t.in_flight;
      capacity;
      workers;
      uptime_s = Timer.elapsed_s t.started;
      incumbent_a;
      backends;
    }
  in
  Mutex.unlock t.mutex;
  payload

(* ------------------------------------------------------------------ *)
(* Connections                                                          *)

(* Serialized per connection: several requests can finish concurrently
   and interleaved frames would corrupt the stream.  A failed write
   means the peer is gone — flip [alive] so its remaining requests
   cancel. *)
let send conn response =
  let outcome =
    Mutex.protect conn.write_mutex (fun () ->
        if Atomic.get conn.alive && not conn.closed then
          Protocol.Frame.write conn.fd (Json.to_string (Protocol.response_to_json response))
        else Error "connection closed")
  in
  match outcome with
  | Ok () -> ()
  | Error msg ->
    if Atomic.get conn.alive then begin
      Atomic.set conn.alive false;
      Log.debug "write failed, dropping connection"
        ~fields:[ Log.str "peer" conn.peer; Log.str "error" msg ]
    end

(* The drain sweep only hangs up: a reader blocked in [read] wakes with
   EOF, and a writer blocked on a peer that stopped reading fails.  The
   reader thread alone closes the descriptor.  Were the sweep to close
   it, the reader — between two reads — could read the same number after
   the kernel had handed it to a new socket of this process, and swallow
   that socket's bytes (a routed client's reply, for one).  The close
   waits for a write in progress ([write_mutex]) and is ordered against
   hang-ups ([fd_mutex]), so nothing touches a number the descriptor no
   longer owns. *)
let hang_up conn =
  Atomic.set conn.alive false;
  Mutex.protect conn.fd_mutex (fun () ->
      if not conn.closed then
        try Unix.shutdown conn.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())

let close_conn t conn =
  Mutex.lock t.mutex;
  t.conns <- List.filter (fun c -> c != conn) t.conns;
  Mutex.unlock t.mutex;
  hang_up conn;
  Mutex.protect conn.write_mutex (fun () ->
      Mutex.protect conn.fd_mutex (fun () ->
          conn.closed <- true;
          try Unix.close conn.fd with Unix.Unix_error _ -> ()))

let protocol_error t conn message =
  Metrics.incr t.protocol_errors;
  send conn (Protocol.Error_response { id = None; message })

let handle_conn t handler conn () =
  let reader = Protocol.Frame.reader ~max_bytes:t.max_frame_bytes conn.fd in
  let rec loop () =
    match Protocol.Frame.read reader with
    | Ok "" -> loop ()
    | Ok line ->
      (match Json.of_string line with
       | Error msg -> protocol_error t conn ("malformed JSON: " ^ msg)
       | Ok json -> (
         match Protocol.request_of_json json with
         | Error message -> protocol_error t conn message
         | Ok request -> handler conn ~trace:(Protocol.trace_of_json json) request));
      loop ()
    | Error `Eof -> Log.debug "peer disconnected" ~fields:[ Log.str "peer" conn.peer ]
    | Error `Oversized ->
      protocol_error t conn (Printf.sprintf "frame exceeds %d bytes" t.max_frame_bytes);
      Log.warn "oversized frame, dropping connection" ~fields:[ Log.str "peer" conn.peer ]
    | Error (`Error msg) ->
      Log.debug "read failed" ~fields:[ Log.str "peer" conn.peer; Log.str "error" msg ]
  in
  Fun.protect ~finally:(fun () -> close_conn t conn) loop

let peer_name fd =
  match Unix.getpeername fd with
  | Unix.ADDR_UNIX _ -> "unix"
  | Unix.ADDR_INET (addr, port) ->
    Printf.sprintf "%s:%d" (Unix.string_of_inet_addr addr) port
  | exception Unix.Unix_error _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* Main loop                                                            *)

let accept_one t handler =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    let conn =
      {
        fd;
        alive = Atomic.make true;
        closed = false;
        write_mutex = Mutex.create ();
        fd_mutex = Mutex.create ();
        peer = peer_name fd;
      }
    in
    Mutex.lock t.mutex;
    t.conns <- conn :: t.conns;
    Mutex.unlock t.mutex;
    Metrics.incr t.connections;
    Log.debug "connection accepted" ~fields:[ Log.str "peer" conn.peer ];
    ignore (Thread.create (handle_conn t handler conn) ())
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()

let run t ~handler ~on_drain =
  (* A peer that hangs up mid-write must surface as EPIPE, not kill the
     process.  (install_signal_handlers also sets this; embedding tests
     may skip that.) *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Poll the drain flag between accepts: a signal can arrive at any
     moment, and select with a short timeout keeps the loop responsive
     without a self-pipe. *)
  while not (draining t) do
    match Unix.select [ t.listen_fd ] [] [] 0.2 with
    | [ _ ], _, _ -> accept_one t handler
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  (* Drain: stop accepting, let admitted requests finish and their
     responses flush, then tear down. *)
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (match t.address with
   | Protocol.Unix_socket path -> (
     try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
   | Protocol.Tcp _ -> ());
  Mutex.lock t.mutex;
  let backlog = t.in_flight in
  Mutex.unlock t.mutex;
  Log.info "draining" ~fields:[ Log.str "listener" t.name; Log.int "in_flight" backlog ];
  Mutex.lock t.mutex;
  while t.in_flight > 0 do
    Condition.wait t.idle t.mutex
  done;
  Mutex.unlock t.mutex;
  on_drain ();
  (* Remaining readers wake with EOF once their sockets shut down. *)
  let conns, served =
    Mutex.lock t.mutex;
    let snapshot = (t.conns, t.accepted) in
    Mutex.unlock t.mutex;
    snapshot
  in
  List.iter hang_up conns;
  Log.info "drain complete"
    ~fields:
      [
        Log.str "listener" t.name;
        Log.int "served" served;
        Log.float "uptime_s" (Timer.elapsed_s t.started);
      ]
