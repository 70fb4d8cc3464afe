module Protocol = Standby_server.Protocol
module Client = Standby_server.Client
module Result_store = Standby_service.Result_store
module Metrics = Standby_telemetry.Metrics
module Log = Standby_telemetry.Log

let m_peer_errors =
  Metrics.counter Metrics.default "cluster.peer_errors"
    ~help:"Shared-tier exchanges lost to dead or misbehaving peers"

(* One short-lived connection per exchange: the tier is consulted only
   on local misses (rare once warm), and a pooled connection to a peer
   that restarts is exactly the kind of stale state this layer must not
   accumulate. *)
let with_peer ~connect_timeout_s peer f =
  match Client.with_connection ~connect_timeout_s peer f with
  | Ok (Some _ as answer) -> answer
  | Ok None ->
    Metrics.incr m_peer_errors;
    None
  | Error e ->
    Metrics.incr m_peer_errors;
    Log.debug "peer unreachable"
      ~fields:
        [
          Log.str "peer" (Protocol.address_to_string peer);
          Log.str "error" (Client.error_message e);
        ];
    None

let fetch ~connect_timeout_s ~peers ~key =
  (* First peer that answers wins; a miss from one peer still asks the
     next — stores are independent, any of them may hold the entry. *)
  List.find_map
    (fun peer ->
      with_peer ~connect_timeout_s peer (fun client ->
          match Client.rpc client (Protocol.Cache_get { key }) with
          | Ok (Protocol.Cache_found { entry; _ }) -> Some (`Hit entry)
          | Ok (Protocol.Cache_missing _) -> Some `Miss
          | Ok _ | Error _ -> None)
      |> function
      | Some (`Hit entry) -> Some entry
      | Some `Miss | None -> None)
    peers

let publish ~connect_timeout_s ~peers ~key entry =
  (* Detached: replication is an optimization, and the worker that just
     finished a job should answer its client, not wait on the fleet. *)
  ignore
    (Thread.create
       (fun () ->
         List.iter
           (fun peer ->
             ignore
               (with_peer ~connect_timeout_s peer (fun client ->
                    match Client.rpc client (Protocol.Cache_put { key; entry }) with
                    | Ok (Protocol.Cache_ack _) -> Some ()
                    | Ok _ | Error _ -> None)))
           peers)
       ())

let remote ?(connect_timeout_s = 2.0) ~peers () =
  {
    Result_store.fetch = (fun ~key -> fetch ~connect_timeout_s ~peers ~key);
    publish = (fun ~key entry -> publish ~connect_timeout_s ~peers ~key entry);
  }

let attach ?connect_timeout_s ~store ~peers () =
  match peers with
  | [] -> ()
  | _ :: _ -> Result_store.set_remote store (Some (remote ?connect_timeout_s ~peers ()))
