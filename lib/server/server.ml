module Pool = Standby_pool.Pool
module Engine = Standby_service.Engine
module Job = Standby_service.Job
module Manifest = Standby_service.Manifest
module Result_store = Standby_service.Result_store
module Process = Standby_device.Process
module Optimizer = Standby_opt.Optimizer
module State_tree = Standby_opt.State_tree
module Evaluate = Standby_power.Evaluate
module Assignment = Standby_power.Assignment
module Timer = Standby_util.Timer
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Log = Standby_telemetry.Log
module Json = Standby_telemetry.Json

(* Registered at module initialization, before any domain or thread
   exists. *)
let m_accepted =
  Metrics.counter Metrics.default "server.accepted" ~help:"Optimize requests admitted"
let m_rejected =
  Metrics.counter Metrics.default "server.rejected"
    ~help:"Optimize requests refused (queue full or draining)"
let g_queue_depth =
  Metrics.gauge Metrics.default "server.queue_depth"
    ~help:"Admitted optimize requests not yet answered"
let m_deadline_degraded =
  Metrics.counter Metrics.default "server.deadline_degraded"
    ~help:"Served results cut short by their request deadline"
let m_cancelled =
  Metrics.counter Metrics.default "server.cancelled"
    ~help:"Jobs cancelled because their client disconnected"
let m_connections =
  Metrics.counter Metrics.default "server.connections" ~help:"Connections accepted"
let m_protocol_errors =
  Metrics.counter Metrics.default "server.protocol_errors"
    ~help:"Frames that failed to parse or validate"
let m_cache_gets =
  Metrics.counter Metrics.default "server.cache_gets"
    ~help:"Shared-tier cache-get probes served"
let m_cache_puts =
  Metrics.counter Metrics.default "server.cache_puts"
    ~help:"Shared-tier cache-put write-backs served"
let m_progress_pushed =
  Metrics.counter Metrics.default "server.progress_pushed"
    ~help:"Mid-job progress frames pushed to clients"
let g_incumbent =
  Metrics.gauge Metrics.default "server.incumbent_a"
    ~help:"Latest incumbent leakage (A) seen by any job on this daemon"

type config = {
  address : Protocol.address;
  capacity : int;
  workers : int option;
  store : Result_store.t option;
  max_frame_bytes : int;
}

let default_config address =
  {
    address;
    capacity = 64;
    workers = None;
    store = None;
    max_frame_bytes = Protocol.Frame.default_max_bytes;
  }

type t = {
  config : config;
  listener : Listener.t;
  pool : Pool.t;
  libraries : Job.Library_cache.t;
  (* Latest incumbent leakage seen by any job, NaN before the first
     improvement — atomically published so STATUS never takes the
     admission mutex against a running search. *)
  last_incumbent : float Atomic.t;
}

(* The lifecycle entry points belong to the listener. *)
let request_drain t = Listener.request_drain t.listener
and install_signal_handlers t = Listener.install_signal_handlers t.listener

let create ?libraries config =
  if config.capacity < 1 then Error "server capacity must be at least 1"
  else
    Result.map
      (fun listener ->
        {
          config;
          listener;
          pool = Pool.create ?workers:config.workers ();
          libraries =
            (match libraries with Some l -> l | None -> Job.Library_cache.create ());
          last_incumbent = Atomic.make Float.nan;
        })
      (Listener.create ~name:"standbyd" ~connections:m_connections
         ~protocol_errors:m_protocol_errors ~queue_depth:g_queue_depth
         ~max_frame_bytes:config.max_frame_bytes config.address)

(* ------------------------------------------------------------------ *)
(* Requests                                                             *)

let status_payload t =
  let incumbent_a =
    let v = Atomic.get t.last_incumbent in
    if Float.is_nan v then None else Some v
  in
  Listener.status t.listener ~capacity:t.config.capacity ~workers:(Pool.workers t.pool)
    ~incumbent_a ~backends:[]

(* How long a refused client should wait before retrying: the backlog
   ahead of it, paced by the observed mean job wall time. *)
let retry_after_s t ~in_flight =
  let avg = Option.value (Engine.average_job_wall_s ()) ~default:1.0 in
  let backlog = float_of_int (in_flight + 1) in
  let per_worker = backlog /. float_of_int (Pool.workers t.pool) in
  Float.min 60.0 (Float.max 0.1 (avg *. per_worker))

let resolve_request (o : Protocol.optimize) =
  let source =
    match o.Protocol.source with
    | Protocol.Circuit name -> Manifest.Builtin name
    | Protocol.Bench { name; _ } -> Manifest.File name
  in
  Result.map
    (fun net ->
      {
        Job.job =
          {
            Manifest.id = o.Protocol.id;
            source;
            mode = o.Protocol.mode;
            method_ = o.Protocol.method_;
            penalty = o.Protocol.penalty;
            deadline_s = o.Protocol.deadline_s;
            process_file = None;
          };
        net;
        process = Process.default;
      })
    (Protocol.netlist_of_source o.Protocol.source)

let payload_of_outcome (o : Engine.outcome) =
  match o.Engine.result with
  | None -> None
  | Some r ->
    Some
      {
        Protocol.id = o.Engine.job.Manifest.id;
        status = Engine.status_name o.Engine.status;
        method_name = r.Optimizer.method_name;
        library_mode = r.Optimizer.library_mode;
        key = Option.value o.Engine.key ~default:"";
        leakage_a = r.Optimizer.breakdown.Evaluate.total;
        isub_a = r.Optimizer.breakdown.Evaluate.isub;
        igate_a = r.Optimizer.breakdown.Evaluate.igate;
        delay = r.Optimizer.delay;
        budget = r.Optimizer.budget;
        delay_fast = r.Optimizer.delay_fast;
        delay_slow = r.Optimizer.delay_slow;
        penalty = r.Optimizer.penalty;
        runtime_s = r.Optimizer.runtime_s;
        wall_s = o.Engine.wall_s;
        inputs = o.Engine.inputs;
        gates = o.Engine.gates;
        assignment = Assignment.to_string r.Optimizer.assignment;
      }

let run_admitted t conn ~trace (o : Protocol.optimize) =
  (* The propagated trace context (if the client sent one) is installed
     for this pool task: the server.request span and everything under it
     then carry the client's trace id, and the span parents onto the
     client's (or router's) own span across the process boundary. *)
  Listener.serve_admitted t.listener ~trace (fun () ->
      Telemetry.span "server.request"
        ~fields:
          [
            ("id", Json.String o.Protocol.id);
            ("method", Json.String (Optimizer.method_name o.Protocol.method_));
          ]
        (fun () ->
          match resolve_request o with
          | Error message ->
            Telemetry.add_fields [ ("error", Json.String message) ];
            Listener.send conn (Protocol.Error_response { id = Some o.Protocol.id; message })
          | Ok resolved ->
            let interrupt () = not (Listener.alive conn) in
            let admitted = Timer.unlimited () in
            let improvements = ref 0 in
            let on_incumbent (leaf : State_tree.leaf) =
              let leakage = leaf.State_tree.leakage in
              Atomic.set t.last_incumbent leakage;
              Metrics.set_gauge g_incumbent leakage;
              incr improvements;
              if o.Protocol.progress then begin
                Metrics.incr m_progress_pushed;
                Listener.send conn
                  (Protocol.Progress
                     {
                       progress_id = o.Protocol.id;
                       progress_leakage_a = leakage;
                       progress_elapsed_s = Timer.elapsed_s admitted;
                       improvement = !improvements;
                     })
              end
            in
            let outcome =
              Engine.execute ?store:t.config.store ~interrupt ~on_incumbent
                ~libraries:t.libraries resolved
            in
            Telemetry.add_fields
              [
                ("status", Json.String (Engine.status_name outcome.Engine.status));
                ("wall_s", Json.Float outcome.Engine.wall_s);
              ];
            if not (Listener.alive conn) then begin
              (* The client hung up while we were computing: the
                 interrupt poll already stopped the search; drop the
                 result on the floor and keep serving. *)
              Metrics.incr m_cancelled;
              Log.info "job cancelled by client disconnect"
                ~fields:[ Log.str "id" o.Protocol.id; Log.str "peer" (Listener.peer conn) ]
            end
            else begin
              (match (outcome.Engine.status, payload_of_outcome outcome) with
               | Engine.Failed _, _ | _, None ->
                 let message =
                   match outcome.Engine.status with
                   | Engine.Failed m -> m
                   | _ -> "internal error: no result"
                 in
                 Listener.send conn (Protocol.Error_response { id = Some o.Protocol.id; message })
               | Engine.Degraded, Some payload ->
                 Metrics.incr m_deadline_degraded;
                 Listener.send conn (Protocol.Result payload)
               | _, Some payload -> Listener.send conn (Protocol.Result payload));
              Log.info "request served"
                ~fields:
                  [
                    Log.str "id" o.Protocol.id;
                    Log.str "status" (Engine.status_name outcome.Engine.status);
                    Log.float "wall_s" outcome.Engine.wall_s;
                  ]
            end))

let handle_optimize t conn ~trace (o : Protocol.optimize) =
  let refuse reason retry_after_s =
    Metrics.incr m_rejected;
    Log.info "request rejected"
      ~fields:
        [
          Log.str "id" o.Protocol.id;
          Log.str "reason" reason;
          Log.float "retry_after_s" retry_after_s;
        ];
    Listener.send conn (Protocol.Rejected { id = o.Protocol.id; reason; retry_after_s })
  in
  match Listener.admit ~capacity:t.config.capacity t.listener with
  | Listener.Draining -> refuse "draining" 5.0
  | Listener.Full in_flight -> refuse "queue full" (retry_after_s t ~in_flight)
  | Listener.Admitted ->
    Metrics.incr m_accepted;
    Pool.submit t.pool (fun () -> run_admitted t conn ~trace o)

let handle_request t conn ~trace = function
  | Protocol.Status ->
    Listener.send conn (Protocol.Status_reply (status_payload t))
  | Protocol.Metrics -> Listener.send conn (Protocol.metrics_reply Metrics.default)
  | Protocol.Stats ->
    Listener.send conn (Protocol.Stats_reply (Metrics.registry_snapshot Metrics.default))
  | Protocol.Cache_get { key } ->
    Metrics.incr m_cache_gets;
    (* Serve from the local store only: peers never chain through each
       other's remote tiers, so mutually-peered daemons cannot loop. *)
    let response =
      match t.config.store with
      | None -> Protocol.Cache_missing { key }
      | Some store -> (
        match Result_store.find_local store ~key with
        | Some entry -> Protocol.Cache_found { key; entry }
        | None -> Protocol.Cache_missing { key })
    in
    Listener.send conn response
  | Protocol.Cache_put { key; entry } ->
    Metrics.incr m_cache_puts;
    let response =
      match t.config.store with
      | None -> Protocol.Cache_ack { key; stored = false }
      | Some store -> (
        match Result_store.store_local store ~key entry with
        | () -> Protocol.Cache_ack { key; stored = true }
        | exception Invalid_argument message ->
          Metrics.incr m_protocol_errors;
          Protocol.Error_response { id = None; message }
        | exception Sys_error msg ->
          (* Local disk trouble is this daemon's problem, not the
             peer's: acknowledge without storing. *)
          Log.warn "cache-put failed"
            ~fields:[ Log.str "key" key; Log.str "error" msg ];
          Protocol.Cache_ack { key; stored = false })
    in
    Listener.send conn response
  | Protocol.Drain { backend = None } ->
    Log.info "drain requested over the wire" ~fields:[ Log.str "peer" (Listener.peer conn) ];
    request_drain t;
    Listener.send conn (Protocol.Status_reply (status_payload t))
  | Protocol.Drain { backend = Some b } ->
    Listener.send conn
      (Protocol.Error_response
         {
           id = None;
           message =
             Printf.sprintf
               "this daemon has no backends (cannot drain %S); omit the backend \
                to drain the daemon itself"
               b;
         })
  | Protocol.Optimize o -> handle_optimize t conn ~trace o

(* ------------------------------------------------------------------ *)
(* Main loop                                                            *)

let run t =
  Log.info "standbyd listening"
    ~fields:
      [
        Log.str "address" (Protocol.address_to_string t.config.address);
        Log.int "capacity" t.config.capacity;
        Log.int "workers" (Pool.workers t.pool);
        Log.str "cache"
          (match t.config.store with
           | Some s -> Result_store.dir s
           | None -> "disabled");
      ];
  Listener.run t.listener ~handler:(handle_request t) ~on_drain:(fun () ->
      Pool.shutdown t.pool)
