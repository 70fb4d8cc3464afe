module Json = Standby_telemetry.Json

type error =
  | Unavailable of string
  | Protocol_error of string
  | Closed

let error_message = function
  | Unavailable msg -> Printf.sprintf "backend unavailable: %s" msg
  | Protocol_error msg -> Printf.sprintf "protocol error: %s" msg
  | Closed -> "client is closed"

type t = {
  fd : Unix.file_descr;
  reader : Protocol.Frame.reader;
  mutable closed : bool;
}

(* Transport-level failures — the peer is dead, unreachable or hanging
   up — are [Unavailable]; anything that reached us as bytes but failed
   to parse or validate is [Protocol_error].  Router failover keys off
   exactly this split: a dead backend is retried on the next ring
   replica, a protocol error is not hidden by rerouting. *)

(* Non-blocking connect bounded by [connect_timeout_s], so a dead TCP
   backend costs a bounded wait instead of the kernel's multi-minute
   SYN retry — health probes and failover depend on this bound.  Every
   failure here is transport-level. *)
let connect_fd fd sockaddr ~timeout_s =
  Unix.set_nonblock fd;
  let finish () = Unix.clear_nonblock fd in
  let timed_out () = Error (Printf.sprintf "connect timed out after %.1f s" timeout_s) in
  match Unix.connect fd sockaddr with
  | () ->
    finish ();
    Ok ()
  | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK | Unix.EAGAIN), _, _)
    -> (
    let deadline = Unix.gettimeofday () +. timeout_s in
    let rec await () =
      let remaining = deadline -. Unix.gettimeofday () in
      if remaining <= 0.0 then timed_out ()
      else
        match Unix.select [] [ fd ] [] remaining with
        | _, [ _ ], _ -> (
          match Unix.getsockopt_error fd with
          | None ->
            finish ();
            Ok ()
          | Some e -> Error (Unix.error_message e))
        | _ -> timed_out ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> await ()
    in
    await ())
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let connect ?(connect_timeout_s = 10.0) ?max_frame_bytes address =
  match Protocol.sockaddr_of_address address with
  | Error msg -> Error (Unavailable msg)
  | Ok (sockaddr, domain) -> (
    let fd = Unix.socket domain Unix.SOCK_STREAM 0 in
    (try Unix.set_close_on_exec fd with Unix.Unix_error _ -> ());
    match connect_fd fd sockaddr ~timeout_s:connect_timeout_s with
    | Ok () ->
      Ok { fd; reader = Protocol.Frame.reader ?max_bytes:max_frame_bytes fd; closed = false }
    | Error msg ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Unavailable
           (Printf.sprintf "cannot connect to %s: %s" (Protocol.address_to_string address) msg)))

let send ?trace t request =
  if t.closed then Error Closed
  else
    match
      Protocol.Frame.write t.fd (Json.to_string (Protocol.request_to_json ?trace request))
    with
    | Ok () -> Ok ()
    | Error msg -> Error (Unavailable msg)

let recv t =
  if t.closed then Error Closed
  else
    match Protocol.Frame.read t.reader with
    | Ok line -> (
      match Result.bind (Json.of_string line) Protocol.response_of_json with
      | Ok response -> Ok response
      | Error msg -> Error (Protocol_error msg))
    | Error `Eof -> Error (Unavailable "connection closed by server")
    | Error `Oversized -> Error (Protocol_error "oversized response frame")
    | Error (`Error msg) -> Error (Unavailable msg)

let rpc ?trace t request = Result.bind (send ?trace t request) (fun () -> recv t)

let close t =
  if not t.closed then begin
    t.closed <- true;
    (try Unix.shutdown t.fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ());
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let with_connection ?connect_timeout_s ?max_frame_bytes address f =
  Result.map
    (fun t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t))
    (connect ?connect_timeout_s ?max_frame_bytes address)
