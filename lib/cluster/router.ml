module Protocol = Standby_server.Protocol
module Client = Standby_server.Client
module Listener = Standby_server.Listener
module Cache_key = Standby_service.Cache_key
module Process = Standby_device.Process
module Bench_io = Standby_netlist.Bench_io
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Log = Standby_telemetry.Log
module Json = Standby_telemetry.Json

let m_routes =
  Metrics.counter Metrics.default "cluster.routes" ~help:"Optimize requests routed"
let m_failovers =
  Metrics.counter Metrics.default "cluster.failovers"
    ~help:"Routing attempts retried on another ring replica"
let m_rejected =
  Metrics.counter Metrics.default "cluster.rejected"
    ~help:"Requests answered with an aggregated fleet-wide rejection"
let m_unroutable =
  Metrics.counter Metrics.default "cluster.unroutable"
    ~help:"Requests with no backend left to try"
let m_probes =
  Metrics.counter Metrics.default "cluster.probes" ~help:"Health probes sent"
let m_probe_failures =
  Metrics.counter Metrics.default "cluster.probe_failures" ~help:"Health probes failed"
let m_cache_proxied =
  Metrics.counter Metrics.default "cluster.cache_proxied"
    ~help:"Cache verbs proxied to their digest owner"
let m_stats_scrapes =
  Metrics.counter Metrics.default "cluster.stats_scrapes"
    ~help:"Fleet-wide stats aggregations served"
let m_progress_forwarded =
  Metrics.counter Metrics.default "cluster.progress_forwarded"
    ~help:"Progress frames relayed from a backend to the requesting client"
let m_connections =
  Metrics.counter Metrics.default "cluster.connections" ~help:"Client connections accepted"
let m_protocol_errors =
  Metrics.counter Metrics.default "cluster.protocol_errors"
    ~help:"Client frames that failed to parse or validate"
let m_memo_hits =
  Metrics.counter Metrics.default "cluster.source_memo_hits"
    ~help:"Inline netlists routed without a parse"
let m_memo_misses =
  Metrics.counter Metrics.default "cluster.source_memo_misses"
    ~help:"Inline netlists parsed to route them"
let m_memo_evictions =
  Metrics.counter Metrics.default "cluster.source_memo_evictions"
    ~help:"Inline netlists evicted from the routing memo"
let g_memo_bytes =
  Metrics.gauge Metrics.default "cluster.source_memo_bytes"
    ~help:"Bytes of source text and canonical rendering the routing memo holds"
let g_live_backends =
  Metrics.gauge Metrics.default "cluster.live_backends"
    ~help:"Backends currently assignable and not down"

type config = {
  listen : Protocol.address;
  backends : Protocol.address list;
  vnodes : int;
  probe_interval_s : float;
  connect_timeout_s : float;
  max_frame_bytes : int;
}

let default_config ~listen ~backends =
  {
    listen;
    backends;
    vnodes = Ring.default_vnodes;
    probe_interval_s = 2.0;
    connect_timeout_s = 5.0;
    max_frame_bytes = Protocol.Frame.default_max_bytes;
  }

type t = {
  config : config;
  listener : Listener.t;
  ring : Ring.t;  (* static over the configured fleet; health filters it *)
  fleet : (string * Health.t) list;  (* address string -> health, fixed order *)
  fleet_mutex : Mutex.t;  (* guards every Health.t mutation *)
  sources : Cache_key.Source_memo.t;  (* inline .bench text -> canonical rendering *)
}

(* Room for a working set of large inline netlists: perfbench's eleven
   stand-ins take 0.7 MB of text plus renderings. *)
let source_memo_cap_bytes = 8 * 1024 * 1024

(* The lifecycle entry points belong to the listener. *)
let request_drain t = Listener.request_drain t.listener
and install_signal_handlers t = Listener.install_signal_handlers t.listener

let create config =
  if config.backends = [] then Error "router needs at least one --backend"
  else if config.vnodes < 1 then Error "vnodes must be positive"
  else
    let names = List.map Protocol.address_to_string config.backends in
    let distinct = List.sort_uniq String.compare names in
    if List.length distinct <> List.length names then
      Error "duplicate backend address"
    else
      Result.map
        (fun listener ->
          {
            config;
            listener;
            ring = Ring.create ~vnodes:config.vnodes names;
            fleet =
              List.map2
                (fun name address ->
                  (name, Health.create ~probe_interval_s:config.probe_interval_s ~name address))
                names config.backends;
            fleet_mutex = Mutex.create ();
            sources =
              Cache_key.Source_memo.create ~hits:m_memo_hits ~misses:m_memo_misses
                ~evictions:m_memo_evictions ~bytes:g_memo_bytes
                ~cap_bytes:source_memo_cap_bytes;
          })
        (Listener.create ~name:"router" ~connections:m_connections
           ~protocol_errors:m_protocol_errors ~max_frame_bytes:config.max_frame_bytes
           config.listen)

let with_fleet t f =
  Mutex.lock t.fleet_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.fleet_mutex) f

let live_backends t =
  with_fleet t (fun () ->
      List.length
        (List.filter
           (fun (_, h) -> Health.assignable h && Health.state h <> Health.Down)
           t.fleet))

let status t =
  let now = Unix.gettimeofday () in
  let backends =
    with_fleet t (fun () -> List.map (fun (_, h) -> Health.status_view h ~now) t.fleet)
  in
  let live =
    List.length
      (List.filter
         (fun (b : Protocol.backend_status) ->
           b.health = "healthy" || b.health = "suspect")
         backends)
  in
  (* Fleet-best incumbent: the lowest leakage any backend has reported.
     Backends work on different jobs, so this is a dashboard headline,
     not a per-job trajectory — [top] shows the per-backend column. *)
  let incumbent_a =
    List.fold_left
      (fun acc (b : Protocol.backend_status) ->
        match (acc, b.backend_incumbent_a) with
        | None, v | v, None -> v
        | Some a, Some b -> Some (Float.min a b))
      None backends
  in
  (* The router itself does not bound admission — backends do, and
     their rejections propagate. *)
  Listener.status t.listener ~capacity:0 ~workers:live ~incumbent_a ~backends

let drain_backend t name =
  with_fleet t (fun () ->
      match List.assoc_opt name t.fleet with
      | None ->
        Error
          (Printf.sprintf "unknown backend %S (backends: %s)" name
             (String.concat ", " (List.map fst t.fleet)))
      | Some h ->
        Health.mark_draining h;
        Log.info "backend draining" ~fields:[ Log.str "backend" name ];
        Ok ())

(* ------------------------------------------------------------------ *)
(* Routing                                                              *)

(* The routing key is the same content digest the result stores use, so
   the ring sends every repetition of a job to the backend whose cache
   already holds it.  An inline netlist seen before is keyed from its
   memoized rendering without a parse; the backend still parses it. *)
let digest_of_optimize t (o : Protocol.optimize) =
  let canonical =
    match o.Protocol.source with
    | Protocol.Bench { name; text } ->
      Cache_key.Source_memo.canonical t.sources text ~parse:(Bench_io.of_string ~name)
    | Protocol.Circuit _ as source ->
      Result.map Cache_key.canonical (Protocol.netlist_of_source source)
  in
  Result.map
    (fun canonical ->
      Cache_key.digest_of_canonical ~canonical ~process:Process.default
        ~mode:o.Protocol.mode ~penalty:o.Protocol.penalty ~method_:o.Protocol.method_)
    canonical

(* Replica walk for [key]: assignable backends in ring order, the ones
   worth trying first (up, not backpressured) ahead of the last resorts
   (down or backpressured — the verdict may be stale, and a desperate
   attempt beats an unconditional refusal). *)
let candidates t ~key =
  let now = Unix.gettimeofday () in
  with_fleet t (fun () ->
      let order =
        List.filter_map (fun name -> List.assoc_opt name t.fleet) (Ring.replicas t.ring ~key)
      in
      let eligible = List.filter Health.assignable order in
      let preferred, last_resort = List.partition (Health.routable ~now) eligible in
      preferred @ last_resort)

type attempt =
  | Answered of Protocol.response
  | Rejected_by of { reason : string; retry_after_s : float }
  | Unavailable of string
  | Fatal of string

(* One request, one downstream connection: the first terminal response
   on the wire is necessarily ours, and a backend death mid-request
   surfaces as [Unavailable] on this dial alone.  Non-terminal
   [Progress] frames are relayed to the requesting client as they
   arrive (a failover after relayed progress is harmless — progress is
   advisory and the retry's frames simply continue the stream).  The
   caller's trace context rides downstream on the frame so the
   backend's spans join the same trace. *)
let attempt_on t conn request backend =
  let failed = function
    | Client.Unavailable msg -> Unavailable msg
    | e -> Fatal (Client.error_message e)
  in
  match
    Client.with_connection ~connect_timeout_s:t.config.connect_timeout_s
      ~max_frame_bytes:t.config.max_frame_bytes (Health.address backend) (fun client ->
        match Client.send ?trace:(Telemetry.current_context ()) client request with
        | Error e -> failed e
        | Ok () ->
          let rec await () =
            match Client.recv client with
            | Ok (Protocol.Progress _ as frame) ->
              Metrics.incr m_progress_forwarded;
              (* A client that went away mid-stream does not abort the
                 backend run; [send] just stops delivering. *)
              Listener.send conn frame;
              await ()
            | Ok (Protocol.Rejected { reason; retry_after_s; _ }) ->
              Rejected_by { reason; retry_after_s }
            | Ok response -> Answered response
            | Error e -> failed e
          in
          await ())
  with
  | Ok attempt -> attempt
  | Error e -> failed e

(* Walk the replica order until a backend answers.  Returns the final
   verdict; health bookkeeping happens as each attempt resolves. *)
let route_request t conn ~key request =
  let backends = candidates t ~key in
  Metrics.set_gauge g_live_backends (float_of_int (live_backends t));
  let rec walk tried rejection = function
    | [] ->
      if tried = 0 then `No_backend
      else (match rejection with Some r -> `All_rejected r | None -> `All_failed tried)
    | backend :: rest -> (
      if tried > 0 then Metrics.incr m_failovers;
      with_fleet t (fun () -> Health.begin_request backend);
      let outcome =
        Fun.protect
          ~finally:(fun () -> with_fleet t (fun () -> Health.end_request backend))
          (fun () -> attempt_on t conn request backend)
      in
      let now = Unix.gettimeofday () in
      match outcome with
      | Answered response ->
        with_fleet t (fun () -> Health.note_success backend ~now ());
        `Answered (response, Health.name backend)
      | Rejected_by { reason; retry_after_s } ->
        with_fleet t (fun () -> Health.note_backpressure backend ~now ~retry_after_s);
        Log.debug "backend rejected, trying next replica"
          ~fields:
            [
              Log.str "backend" (Health.name backend);
              Log.str "reason" reason;
              Log.float "retry_after_s" retry_after_s;
            ];
        (* Keep the minimum hint: the fleet frees up when its
           least-loaded member does. *)
        let rejection =
          match rejection with
          | Some (_, best) when best <= retry_after_s -> rejection
          | _ -> Some (reason, retry_after_s)
        in
        walk (tried + 1) rejection rest
      | Unavailable msg ->
        with_fleet t (fun () -> Health.note_failure backend ~now);
        Log.info "backend unavailable, failing over"
          ~fields:[ Log.str "backend" (Health.name backend); Log.str "error" msg ];
        walk (tried + 1) rejection rest
      | Fatal msg -> `Fatal (msg, Health.name backend))
  in
  walk 0 None backends

let route_optimize t conn ~trace (o : Protocol.optimize) =
  (* Join the client's trace when the frame carried one: the
     [cluster.route] span below parents to the client's span, and
     [attempt_on] forwards the freshened context to the backend. *)
  Listener.serve_admitted t.listener ~trace (fun () ->
      Telemetry.span "cluster.route"
        ~fields:[ ("id", Json.String o.Protocol.id) ]
        (fun () ->
          match digest_of_optimize t o with
          | Error message ->
            Telemetry.add_fields [ ("error", Json.String message) ];
            Listener.send conn (Protocol.Error_response { id = Some o.Protocol.id; message })
          | Ok key -> (
            Telemetry.add_fields [ ("key", Json.String key) ];
            Metrics.incr m_routes;
            match route_request t conn ~key (Protocol.Optimize o) with
            | `Answered (response, backend) ->
              Telemetry.add_fields [ ("backend", Json.String backend) ];
              (* Forward verbatim: the router adds routing, never
                 rewrites results. *)
              Listener.send conn response
            | `Fatal (message, backend) ->
              Telemetry.add_fields
                [ ("error", Json.String message); ("backend", Json.String backend) ];
              Listener.send conn
                (Protocol.Error_response
                   {
                     id = Some o.Protocol.id;
                     message = Printf.sprintf "backend %s: %s" backend message;
                   })
            | `All_rejected (reason, retry_after_s) ->
              Metrics.incr m_rejected;
              Listener.count_rejected t.listener;
              Listener.send conn
                (Protocol.Rejected { id = o.Protocol.id; reason; retry_after_s })
            | `No_backend | `All_failed _ ->
              Metrics.incr m_unroutable;
              Listener.count_rejected t.listener;
              Listener.send conn
                (Protocol.Error_response
                   {
                     id = Some o.Protocol.id;
                     message = "no backend available for request";
                   }))))

(* Cache verbs are proxied along the same walk.  A fleet that cannot be
   reached degrades to a miss / unstored ack — the cache tier never
   fails harder than having no cache. *)
let route_cache t conn ~key request ~on_unreachable =
  Metrics.incr m_cache_proxied;
  match route_request t conn ~key request with
  | `Answered (response, _) -> Listener.send conn response
  | `Fatal (message, backend) ->
    Listener.send conn
      (Protocol.Error_response
         { id = None; message = Printf.sprintf "backend %s: %s" backend message })
  | `No_backend | `All_failed _ | `All_rejected _ -> Listener.send conn on_unreachable

(* ------------------------------------------------------------------ *)
(* Fleet-wide stats                                                     *)

(* The routing memo's instruments: the one router-local part of the
   fleet stats, since no backend moves them. *)
let memo_snapshot () =
  let own (name, _) = String.starts_with ~prefix:"cluster.source_memo_" name in
  let s = Metrics.registry_snapshot Metrics.default in
  {
    Metrics.counters = List.filter own s.Metrics.counters;
    gauges = List.filter own s.Metrics.gauges;
    histograms = [];
  }

(* One scrape per backend, merged bucket-wise: the reply is the sum of
   what each backend's own [stats] verb returns (plus [memo_snapshot]),
   so a client can check the aggregate against per-backend scrapes.
   Unreachable backends contribute nothing (their health record already
   tells that story). *)
let fleet_stats t =
  Metrics.incr m_stats_scrapes;
  let targets =
    with_fleet t (fun () -> List.map (fun (name, h) -> (name, Health.address h)) t.fleet)
  in
  let snapshots =
    List.filter_map
      (fun (name, address) ->
        match
          Result.join
            (Client.with_connection
               ~connect_timeout_s:(Float.min 2.0 t.config.connect_timeout_s)
               ~max_frame_bytes:t.config.max_frame_bytes address (fun client ->
                 Client.rpc client Protocol.Stats))
        with
        | Ok (Protocol.Stats_reply snapshot) -> Some snapshot
        | Ok _ ->
          Log.debug "unexpected response to stats scrape" ~fields:[ Log.str "backend" name ];
          None
        | Error e ->
          Log.debug "stats scrape failed"
            ~fields:[ Log.str "backend" name; Log.str "error" (Client.error_message e) ];
          None)
      targets
  in
  Metrics.merge_snapshots (snapshots @ [ memo_snapshot () ])

(* ------------------------------------------------------------------ *)
(* Front-side requests                                                  *)

let handle_request t conn ~trace = function
  | Protocol.Status -> Listener.send conn (Protocol.Status_reply (status t))
  | Protocol.Stats -> Listener.send conn (Protocol.Stats_reply (fleet_stats t))
  | Protocol.Metrics -> Listener.send conn (Protocol.metrics_reply Metrics.default)
  | Protocol.Drain { backend = None } ->
    Log.info "router drain requested over the wire"
      ~fields:[ Log.str "peer" (Listener.peer conn) ];
    request_drain t;
    Listener.send conn (Protocol.Status_reply (status t))
  | Protocol.Drain { backend = Some name } -> (
    match drain_backend t name with
    | Ok () -> Listener.send conn (Protocol.Status_reply (status t))
    | Error message ->
      Listener.send conn (Protocol.Error_response { id = None; message }))
  | Protocol.Cache_get { key } as request ->
    route_cache t conn ~key request ~on_unreachable:(Protocol.Cache_missing { key })
  | Protocol.Cache_put { key; _ } as request ->
    route_cache t conn ~key request
      ~on_unreachable:(Protocol.Cache_ack { key; stored = false })
  | Protocol.Optimize o -> (
    match Listener.admit t.listener with
    | Listener.Admitted ->
      ignore (Thread.create (fun () -> route_optimize t conn ~trace o) ())
    | Listener.Draining | Listener.Full _ ->
      Listener.send conn
        (Protocol.Rejected
           { id = o.Protocol.id; reason = "router draining"; retry_after_s = 5.0 }))

(* ------------------------------------------------------------------ *)
(* Prober                                                               *)

let probe_round t =
  let now = Unix.gettimeofday () in
  let due =
    with_fleet t (fun () -> List.filter (fun (_, h) -> Health.probe_due h ~now) t.fleet)
  in
  List.iter
    (fun (name, h) ->
      Metrics.incr m_probes;
      let verdict =
        (* Probe dials stay short even when routing tolerates slower
           backends — a probe that waits is a probe that lies about
           freshness. *)
        match
          Result.join
            (Client.with_connection
               ~connect_timeout_s:(Float.min 2.0 t.config.connect_timeout_s)
               (Health.address h) (fun client -> Client.rpc client Protocol.Status))
        with
        | Ok (Protocol.Status_reply s) -> Ok s
        | Ok _ -> Error "unexpected response to status probe"
        | Error e -> Error (Client.error_message e)
      in
      let now = Unix.gettimeofday () in
      with_fleet t (fun () ->
          match verdict with
          | Ok s ->
            Health.note_success h ~now ~in_flight:s.Protocol.queue_depth
              ?incumbent_a:s.Protocol.incumbent_a ();
            (* A backend draining on its own (direct SIGTERM) is treated
               like an administrative drain: no new assignments. *)
            if s.Protocol.draining then Health.mark_draining h;
            if Health.observe_drained h then
              Log.info "backend drained" ~fields:[ Log.str "backend" name ]
          | Error msg ->
            Metrics.incr m_probe_failures;
            Health.note_failure h ~now;
            Log.debug "probe failed"
              ~fields:[ Log.str "backend" name; Log.str "error" msg ]))
    due;
  Metrics.set_gauge g_live_backends (float_of_int (live_backends t))

let prober t () =
  while not (Listener.draining t.listener) do
    probe_round t;
    (* Short fixed sleep, drain-responsive; per-backend cadence lives in
       [Health.probe_due]. *)
    Thread.delay 0.2
  done

(* ------------------------------------------------------------------ *)
(* Main loop                                                            *)

let run t =
  Log.info "standbyd router listening"
    ~fields:
      [
        Log.str "address" (Protocol.address_to_string t.config.listen);
        Log.int "backends" (List.length t.fleet);
        Log.int "vnodes" (Ring.vnodes t.ring);
      ];
  let prober_thread = Thread.create (prober t) () in
  Listener.run t.listener ~handler:(handle_request t) ~on_drain:(fun () ->
      Thread.join prober_thread)
