module Json = Standby_telemetry.Json
module Metrics = Standby_telemetry.Metrics
module Telemetry = Standby_telemetry.Telemetry
module Version = Standby_cells.Version
module Optimizer = Standby_opt.Optimizer
module Result_store = Standby_service.Result_store

(* v2 adds the optional "trace" field (carried on every verb, ignored
   by v1 peers, so frames that only add it still say v:1), the "stats"
   verb and the mid-job "progress" push.  Encoders stamp each frame
   with the lowest version whose peers can handle it; decoders accept
   the whole [min_version]..[version] range. *)
let version = 2
let min_version = 1

(* ------------------------------------------------------------------ *)
(* Addresses                                                            *)

type address = Unix_socket of string | Tcp of string * int

let address_of_string s =
  if s = "" then Error "empty address"
  else
    match String.index_opt s ':' with
    | None -> Ok (Unix_socket s)
    | Some i when String.sub s 0 i = "unix" ->
      let path = String.sub s (i + 1) (String.length s - i - 1) in
      if path = "" then Error "unix: address needs a socket path" else Ok (Unix_socket path)
    | Some i -> (
      let host = String.sub s 0 i in
      let port = String.sub s (i + 1) (String.length s - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 && host <> "" -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "malformed TCP address %S (want HOST:PORT)" s))

let address_to_string = function
  | Unix_socket path -> "unix:" ^ path
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port

let sockaddr_of_address address =
  match address with
  | Unix_socket path -> Ok (Unix.ADDR_UNIX path, Unix.PF_UNIX)
  | Tcp (host, port) -> (
    match
      try Some (Unix.inet_addr_of_string host)
      with Failure _ -> (
        match Unix.gethostbyname host with
        | { Unix.h_addr_list = [||]; _ } -> None
        | entry -> Some entry.Unix.h_addr_list.(0)
        | exception Not_found -> None)
    with
    | Some addr -> Ok (Unix.ADDR_INET (addr, port), Unix.PF_INET)
    | None -> Error (Printf.sprintf "cannot resolve %s" (address_to_string address)))

(* ------------------------------------------------------------------ *)
(* Records                                                              *)

type source = Circuit of string | Bench of { name : string; text : string }

let netlist_of_source = function
  | Circuit name -> Standby_circuits.Benchmarks.find name
  | Bench { name; text } -> Standby_netlist.Bench_io.of_string ~name text

type optimize = {
  id : string;
  source : source;
  mode : Version.mode;
  method_ : Optimizer.method_;
  penalty : float;
  deadline_s : float option;
  progress : bool;
}

type request =
  | Optimize of optimize
  | Status
  | Metrics
  | Stats
  | Cache_get of { key : string }
  (* A cache entry travels as [Result_store.entry_members] after the
     frame's key: the store's own file format, so a shared-tier hit is
     bit-identical to the entry the peer computed. *)
  | Cache_put of { key : string; entry : Result_store.entry }
  | Drain of { backend : string option }

type result_payload = {
  id : string;
  status : string;
  method_name : string;
  library_mode : string;
  key : string;
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
  assignment : string;
}

type backend_status = {
  backend : string;
  health : string;
  backend_in_flight : int;
  consecutive_failures : int;
  last_probe_s : float;
  backend_incumbent_a : float option;
}

type status_payload = {
  draining : bool;
  accepted : int;
  rejected : int;
  in_flight : int;
  queue_depth : int;
  capacity : int;
  workers : int;
  uptime_s : float;
  incumbent_a : float option;
  backends : backend_status list;
}

type progress_payload = {
  progress_id : string;
  progress_leakage_a : float;
  progress_elapsed_s : float;
  improvement : int;
}

type response =
  | Result of result_payload
  | Rejected of { id : string; reason : string; retry_after_s : float }
  | Error_response of { id : string option; message : string }
  | Status_reply of status_payload
  | Metrics_reply of { content_type : string; body : string }
  | Stats_reply of Metrics.registry_snapshot
  | Progress of progress_payload
  | Cache_found of { key : string; entry : Result_store.entry }
  | Cache_missing of { key : string }
  | Cache_ack of { key : string; stored : bool }

let is_terminal = function Progress _ -> false | _ -> true

let metrics_reply registry =
  Metrics_reply
    { content_type = "text/plain; version=0.0.4"; body = Metrics.to_prometheus registry }

(* ------------------------------------------------------------------ *)
(* Encoding                                                             *)

(* The method object: its token under "name" plus the parameters the
   method takes, under the manifest's key names. *)
let method_to_json m =
  Json.Obj
    (("name", Json.String (Optimizer.method_token m))
    :: List.map
         (function
           | Optimizer.Time_limit t -> ("time_limit_s", Json.Float t)
           | Optimizer.Rounds r -> ("rounds", Json.Int r)
           | Optimizer.Regions k -> ("regions", Json.Int k))
         (Optimizer.method_params m))

(* The optional cross-process trace context, carried verbatim on any
   request verb.  v1 decoders ignore unknown fields, so its presence
   does not bump the frame version. *)
let trace_members = function
  | None -> []
  | Some (ctx : Telemetry.context) ->
    [
      ("trace",
       Json.Obj
         (("id", Json.String ctx.Telemetry.trace_id)
         ::
         (match ctx.Telemetry.parent with
          | None -> []
          | Some r ->
            [
              ("parent_pid", Json.Int r.Telemetry.pid);
              ("parent_span", Json.Int r.Telemetry.span);
            ])));
    ]

let trace_of_json json =
  match Json.member "trace" json with
  | None -> None
  | Some t -> (
    match Option.bind (Json.member "id" t) Json.to_string_opt with
    | None | Some "" -> None
    | Some trace_id ->
      let parent =
        match
          ( Option.bind (Json.member "parent_pid" t) Json.to_int_opt,
            Option.bind (Json.member "parent_span" t) Json.to_int_opt )
        with
        | Some pid, Some span -> Some { Telemetry.pid; span }
        | _ -> None
      in
      Some { Telemetry.trace_id; parent })

(* Every record opens with its version and type. *)
let record ?(v = min_version) type_ members =
  Json.Obj (("v", Json.Int v) :: ("type", Json.String type_) :: members)

let request_to_json ?trace request =
  let frame ?v type_ members = record ?v type_ (members @ trace_members trace) in
  match request with
  | Status -> frame "status" []
  | Metrics -> frame "metrics" []
  | Stats -> frame ~v:2 "stats" []
  | Cache_get { key } -> frame "cache-get" [ ("key", Json.String key) ]
  | Cache_put { key; entry } ->
    frame "cache-put" (("key", Json.String key) :: Result_store.entry_members entry)
  | Drain { backend } ->
    frame "drain"
      (match backend with None -> [] | Some b -> [ ("backend", Json.String b) ])
  | Optimize o ->
    let source_members =
      match o.source with
      | Circuit name -> [ ("circuit", Json.String name) ]
      | Bench { name; text } ->
        [ ("name", Json.String name); ("bench", Json.String text) ]
    in
    (* A v1 server would accept-and-never-push a progress-requesting
       job, and would not know the greedy or partition methods; stamping
       v:2 makes it reject loudly instead. *)
    frame
      ~v:
        (match o.method_ with
         | Optimizer.Greedy _ | Optimizer.Partition _ -> 2
         | _ -> if o.progress then 2 else min_version)
      "optimize"
      ((("id", Json.String o.id) :: source_members)
      @ [
          ("library", Json.String (Version.mode_token o.mode));
          ("method", method_to_json o.method_);
          ("penalty", Json.Float o.penalty);
        ]
      @ (if o.progress then [ ("progress", Json.Bool true) ] else [])
      @
      match o.deadline_s with
      | None -> []
      | Some d -> [ ("deadline_s", Json.Float d) ])

(* Snapshot of a metrics registry on the wire (the "stats" reply). *)
let snapshot_to_members (s : Metrics.registry_snapshot) =
  let histogram_to_json (name, (h : Metrics.histogram_snapshot)) =
    Json.Obj
      [
        ("name", Json.String name);
        ("bounds", Json.List (List.map (fun b -> Json.Float b) (Array.to_list h.upper_bounds)));
        ("cumulative", Json.List (List.map (fun c -> Json.Int c) (Array.to_list h.cumulative)));
        ("count", Json.Int h.count);
        ("sum", Json.Float h.sum);
      ]
  in
  [
    ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) s.counters));
    ("gauges", Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) s.gauges));
    ("histograms", Json.List (List.map histogram_to_json s.histograms));
  ]

let response_to_json = function
  | Result r ->
    record "result"
      [
        ("id", Json.String r.id);
        ("status", Json.String r.status);
        ("method", Json.String r.method_name);
        ("library", Json.String r.library_mode);
        ("key", Json.String r.key);
        ("leakage_A", Json.Float r.leakage_a);
        ("isub_A", Json.Float r.isub_a);
        ("igate_A", Json.Float r.igate_a);
        ("delay", Json.Float r.delay);
        ("budget", Json.Float r.budget);
        ("delay_fast", Json.Float r.delay_fast);
        ("delay_slow", Json.Float r.delay_slow);
        ("penalty", Json.Float r.penalty);
        ("runtime_s", Json.Float r.runtime_s);
        ("wall_s", Json.Float r.wall_s);
        ("inputs", Json.Int r.inputs);
        ("gates", Json.Int r.gates);
        ("assignment", Json.String r.assignment);
      ]
  | Rejected { id; reason; retry_after_s } ->
    record "rejected"
      [
        ("id", Json.String id);
        ("reason", Json.String reason);
        ("retry_after_s", Json.Float retry_after_s);
      ]
  | Error_response { id; message } ->
    record "error"
      ((match id with None -> [] | Some id -> [ ("id", Json.String id) ])
      @ [ ("message", Json.String message) ])
  | Status_reply s ->
    let backend_to_json b =
      Json.Obj
        ([
           ("backend", Json.String b.backend);
           ("health", Json.String b.health);
           ("in_flight", Json.Int b.backend_in_flight);
           ("consecutive_failures", Json.Int b.consecutive_failures);
           ("last_probe_s", Json.Float b.last_probe_s);
         ]
        @
        match b.backend_incumbent_a with
        | None -> []
        | Some v -> [ ("incumbent_A", Json.Float v) ])
    in
    record "status"
      ([
         ("draining", Json.Bool s.draining);
         ("accepted", Json.Int s.accepted);
         ("rejected", Json.Int s.rejected);
         ("in_flight", Json.Int s.in_flight);
         ("queue_depth", Json.Int s.queue_depth);
         ("capacity", Json.Int s.capacity);
         ("workers", Json.Int s.workers);
         ("uptime_s", Json.Float s.uptime_s);
       ]
      @ (match s.incumbent_a with
         | None -> []
         | Some v -> [ ("incumbent_A", Json.Float v) ])
      @
      match s.backends with
      | [] -> []
      | bs -> [ ("backends", Json.List (List.map backend_to_json bs)) ])
  | Metrics_reply { content_type; body } ->
    record "metrics"
      [ ("content_type", Json.String content_type); ("body", Json.String body) ]
  | Stats_reply snapshot -> record ~v:2 "stats" (snapshot_to_members snapshot)
  | Progress p ->
    record ~v:2 "progress"
      [
        ("id", Json.String p.progress_id);
        ("leakage_A", Json.Float p.progress_leakage_a);
        ("elapsed_s", Json.Float p.progress_elapsed_s);
        ("improvement", Json.Int p.improvement);
      ]
  | Cache_found { key; entry } ->
    record "cache-found" (("key", Json.String key) :: Result_store.entry_members entry)
  | Cache_missing { key } -> record "cache-miss" [ ("key", Json.String key) ]
  | Cache_ack { key; stored } ->
    record "cache-ack" [ ("key", Json.String key); ("stored", Json.Bool stored) ]

(* ------------------------------------------------------------------ *)
(* Decoding                                                             *)

let ( let* ) = Result.bind

let str_member name json =
  match Option.bind (Json.member name json) Json.to_string_opt with
  | Some s -> Ok s
  | None -> Error (Printf.sprintf "missing or non-string %S field" name)

let float_member name json =
  match Option.bind (Json.member name json) Json.to_float_opt with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "missing or non-numeric %S field" name)

let int_member name json =
  match Option.bind (Json.member name json) Json.to_int_opt with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "missing or non-integer %S field" name)

let check_version json =
  match Option.bind (Json.member "v" json) Json.to_int_opt with
  | Some v when v >= min_version && v <= version -> Ok ()
  | Some v ->
    Error
      (Printf.sprintf "unsupported protocol version %d (this server speaks %d-%d)" v
         min_version version)
  | None -> Error "missing protocol version field \"v\""

let method_of_json json =
  let* name = str_member "name" json in
  let param key conv default =
    match Json.member key json with
    | None -> Ok default
    | Some j -> (
      match conv j with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "malformed method member %S" key))
  in
  let d = Optimizer.default_params in
  (* Clients built before the budget moved to float seconds send an
     integer "time_budget_ms"; running them under the default budget
     would silently answer a different job. *)
  if Json.member "time_budget_ms" json <> None then
    Error "method \"time_budget_ms\" is no longer accepted: send \"time_limit_s\" in seconds"
  else
    let* time_limit_s = param "time_limit_s" Json.to_float_opt d.Optimizer.time_limit_s in
    let* rounds = param "rounds" Json.to_int_opt d.Optimizer.rounds in
    let* regions = param "regions" Json.to_int_opt d.Optimizer.regions in
    Optimizer.method_of_token name { Optimizer.time_limit_s; rounds; regions }

let source_of_json json =
  match (Json.member "circuit" json, Json.member "bench" json) with
  | Some _, Some _ -> Error "request sets both \"circuit\" and \"bench\""
  | Some c, None -> (
    match Json.to_string_opt c with
    | Some name when name <> "" -> Ok (Circuit name)
    | _ -> Error "\"circuit\" must be a non-empty string")
  | None, Some b -> (
    match Json.to_string_opt b with
    | Some text when text <> "" ->
      let name =
        match Option.bind (Json.member "name" json) Json.to_string_opt with
        | Some n when n <> "" -> n
        | _ -> "inline"
      in
      Ok (Bench { name; text })
    | _ -> Error "\"bench\" must be a non-empty string")
  | None, None -> Error "optimize request needs \"circuit\" or \"bench\""

let optimize_of_json json =
  let* id = str_member "id" json in
  let* source = source_of_json json in
  let* mode =
    match Option.bind (Json.member "library" json) Json.to_string_opt with
    | None -> Ok Version.default_mode
    | Some s -> Version.mode_of_token s
  in
  let* method_ =
    match Json.member "method" json with
    | None -> Ok Optimizer.Heuristic_1
    | Some (Json.String name) -> Optimizer.method_of_token name Optimizer.default_params
    | Some (Json.Obj _ as m) -> method_of_json m
    | Some _ -> Error "\"method\" must be a string or an object"
  in
  let* penalty =
    match Json.member "penalty" json with
    | None -> Ok 0.05
    | Some p -> (
      match Json.to_float_opt p with
      | Some f when f >= 0.0 -> Ok f
      | _ -> Error "\"penalty\" must be a non-negative number")
  in
  let* deadline_s =
    match Json.member "deadline_s" json with
    | None -> Ok None
    | Some d -> (
      match Json.to_float_opt d with
      | Some f when f >= 0.0 -> Ok (Some f)
      | _ -> Error "\"deadline_s\" must be a non-negative number")
  in
  let progress =
    match Json.member "progress" json with Some (Json.Bool b) -> b | _ -> false
  in
  Ok (Optimize { id; source; mode; method_; penalty; deadline_s; progress })

let key_member json =
  let* key = str_member "key" json in
  if key = "" then Error "\"key\" must be a non-empty digest" else Ok key

let request_of_json json =
  let* () = check_version json in
  let* type_ = str_member "type" json in
  match type_ with
  | "status" -> Ok Status
  | "metrics" -> Ok Metrics
  | "stats" -> Ok Stats
  | "optimize" -> optimize_of_json json
  | "cache-get" ->
    let* key = key_member json in
    Ok (Cache_get { key })
  | "cache-put" ->
    let* key = key_member json in
    let* entry = Result_store.entry_of_json json in
    Ok (Cache_put { key; entry })
  | "drain" ->
    let backend = Option.bind (Json.member "backend" json) Json.to_string_opt in
    Ok (Drain { backend })
  | other -> Error (Printf.sprintf "unknown request type %S" other)

let result_of_json json =
  let* id = str_member "id" json in
  let* status = str_member "status" json in
  let* method_name = str_member "method" json in
  let* library_mode = str_member "library" json in
  let* key = str_member "key" json in
  let* leakage_a = float_member "leakage_A" json in
  let* isub_a = float_member "isub_A" json in
  let* igate_a = float_member "igate_A" json in
  let* delay = float_member "delay" json in
  let* budget = float_member "budget" json in
  let* delay_fast = float_member "delay_fast" json in
  let* delay_slow = float_member "delay_slow" json in
  let* penalty = float_member "penalty" json in
  let* runtime_s = float_member "runtime_s" json in
  let* wall_s = float_member "wall_s" json in
  let* inputs = int_member "inputs" json in
  let* gates = int_member "gates" json in
  let* assignment = str_member "assignment" json in
  Ok
    (Result
       {
         id; status; method_name; library_mode; key; leakage_a; isub_a; igate_a; delay;
         budget; delay_fast; delay_slow; penalty; runtime_s; wall_s; inputs; gates;
         assignment;
       })

let backend_status_of_json json =
  let* backend = str_member "backend" json in
  let* health = str_member "health" json in
  let* backend_in_flight = int_member "in_flight" json in
  let* consecutive_failures = int_member "consecutive_failures" json in
  let* last_probe_s = float_member "last_probe_s" json in
  let backend_incumbent_a =
    Option.bind (Json.member "incumbent_A" json) Json.to_float_opt
  in
  Ok
    {
      backend; health; backend_in_flight; consecutive_failures; last_probe_s;
      backend_incumbent_a;
    }

let status_of_json json =
  let* accepted = int_member "accepted" json in
  let* rejected = int_member "rejected" json in
  let* in_flight = int_member "in_flight" json in
  let* capacity = int_member "capacity" json in
  let* workers = int_member "workers" json in
  let* uptime_s = float_member "uptime_s" json in
  let draining =
    match Json.member "draining" json with Some (Json.Bool b) -> b | _ -> false
  in
  (* Absent on pre-cluster peers: queue_depth falls back to the in-flight
     count and the backend list to empty, so a v1 STATUS still parses. *)
  let queue_depth =
    match Option.bind (Json.member "queue_depth" json) Json.to_int_opt with
    | Some d -> d
    | None -> in_flight
  in
  let* backends =
    match Json.member "backends" json with
    | None -> Ok []
    | Some j -> (
      match Json.to_list_opt j with
      | None -> Error "\"backends\" must be a list"
      | Some items ->
        List.fold_left
          (fun acc item -> Result.bind acc (fun acc ->
               Result.map (fun b -> b :: acc) (backend_status_of_json item)))
          (Ok []) items
        |> Result.map List.rev)
  in
  let incumbent_a = Option.bind (Json.member "incumbent_A" json) Json.to_float_opt in
  Ok
    (Status_reply
       {
         draining; accepted; rejected; in_flight; queue_depth; capacity; workers;
         uptime_s; incumbent_a; backends;
       })

let snapshot_of_json json =
  let assoc kind conv name =
    match Option.bind (Json.member name json) Json.to_obj_opt with
    | None -> Ok []
    | Some members ->
      List.fold_left
        (fun acc (key, v) ->
          Result.bind acc (fun acc ->
              match conv v with
              | Some v -> Ok ((key, v) :: acc)
              | None -> Error (Printf.sprintf "non-%s %S entry %S" kind name key)))
        (Ok []) members
      |> Result.map List.rev
  in
  let* counters = assoc "integer" Json.to_int_opt "counters" in
  let* gauges = assoc "numeric" Json.to_float_opt "gauges" in
  let histogram_of_json j =
    let* name = str_member "name" j in
    let floats k =
      match Option.bind (Json.member k j) Json.to_list_opt with
      | None -> Error (Printf.sprintf "histogram %S: missing %S" name k)
      | Some items -> (
        let vs = List.filter_map Json.to_float_opt items in
        if List.length vs = List.length items then Ok (Array.of_list vs)
        else Error (Printf.sprintf "histogram %S: non-numeric %S" name k))
    in
    let ints k =
      match Option.bind (Json.member k j) Json.to_list_opt with
      | None -> Error (Printf.sprintf "histogram %S: missing %S" name k)
      | Some items -> (
        let vs = List.filter_map Json.to_int_opt items in
        if List.length vs = List.length items then Ok (Array.of_list vs)
        else Error (Printf.sprintf "histogram %S: non-integer %S" name k))
    in
    let* upper_bounds = floats "bounds" in
    let* cumulative = ints "cumulative" in
    let* count = int_member "count" j in
    let* sum = float_member "sum" j in
    if Array.length cumulative <> Array.length upper_bounds + 1 then
      Error (Printf.sprintf "histogram %S: %d cumulative buckets for %d bounds" name
               (Array.length cumulative) (Array.length upper_bounds))
    else Ok (name, { Metrics.upper_bounds; cumulative; count; sum })
  in
  let* histograms =
    match Json.member "histograms" json with
    | None -> Ok []
    | Some j -> (
      match Json.to_list_opt j with
      | None -> Error "\"histograms\" must be a list"
      | Some items ->
        List.fold_left
          (fun acc item ->
            Result.bind acc (fun acc ->
                Result.map (fun h -> h :: acc) (histogram_of_json item)))
          (Ok []) items
        |> Result.map List.rev)
  in
  Ok { Metrics.counters; gauges; histograms }

let response_of_json json =
  let* () = check_version json in
  let* type_ = str_member "type" json in
  match type_ with
  | "result" -> result_of_json json
  | "status" -> status_of_json json
  | "stats" ->
    let* snapshot = snapshot_of_json json in
    Ok (Stats_reply snapshot)
  | "progress" ->
    let* progress_id = str_member "id" json in
    let* progress_leakage_a = float_member "leakage_A" json in
    let* progress_elapsed_s = float_member "elapsed_s" json in
    let* improvement = int_member "improvement" json in
    Ok (Progress { progress_id; progress_leakage_a; progress_elapsed_s; improvement })
  | "rejected" ->
    let* id = str_member "id" json in
    let* reason = str_member "reason" json in
    let* retry_after_s = float_member "retry_after_s" json in
    Ok (Rejected { id; reason; retry_after_s })
  | "error" ->
    let* message = str_member "message" json in
    let id = Option.bind (Json.member "id" json) Json.to_string_opt in
    Ok (Error_response { id; message })
  | "metrics" ->
    let* content_type = str_member "content_type" json in
    let* body = str_member "body" json in
    Ok (Metrics_reply { content_type; body })
  | "cache-found" ->
    let* key = key_member json in
    let* entry = Result_store.entry_of_json json in
    Ok (Cache_found { key; entry })
  | "cache-miss" ->
    let* key = key_member json in
    Ok (Cache_missing { key })
  | "cache-ack" ->
    let* key = key_member json in
    let* stored =
      match Json.member "stored" json with
      | Some (Json.Bool b) -> Ok b
      | _ -> Error "missing or non-boolean \"stored\" field"
    in
    Ok (Cache_ack { key; stored })
  | other -> Error (Printf.sprintf "unknown response type %S" other)

(* ------------------------------------------------------------------ *)
(* Framing                                                              *)

module Frame = struct
  let default_max_bytes = 4 * 1024 * 1024

  type reader = {
    fd : Unix.file_descr;
    max_bytes : int;
    chunk : Bytes.t;
    pending : Buffer.t;  (* bytes read but not yet returned *)
    mutable eof : bool;
    mutable poisoned : bool;  (* an oversized line sank the stream *)
  }

  let reader ?(max_bytes = default_max_bytes) fd =
    {
      fd;
      max_bytes;
      chunk = Bytes.create 65536;
      pending = Buffer.create 4096;
      eof = false;
      poisoned = false;
    }

  (* Pop the first complete line out of [pending], if any. *)
  let take_line r =
    let s = Buffer.contents r.pending in
    match String.index_opt s '\n' with
    | None -> None
    | Some i ->
      Buffer.clear r.pending;
      Buffer.add_substring r.pending s (i + 1) (String.length s - i - 1);
      (* Tolerate CRLF peers. *)
      let line = if i > 0 && s.[i - 1] = '\r' then String.sub s 0 (i - 1) else String.sub s 0 i in
      Some line

  let rec read r =
    if r.poisoned then Error (`Error "stream poisoned by an earlier oversized frame")
    else
      match take_line r with
      | Some line when String.length line > r.max_bytes ->
        (* A complete line can blow the cap too, when it arrives in one
           gulp — same verdict as one that never terminated. *)
        r.poisoned <- true;
        Error `Oversized
      | Some line -> Ok line
      | None ->
        if Buffer.length r.pending > r.max_bytes then begin
          r.poisoned <- true;
          Error `Oversized
        end
        else if r.eof then Error `Eof
        else begin
          match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
          | 0 ->
            r.eof <- true;
            read r
          | n ->
            Buffer.add_subbytes r.pending r.chunk 0 n;
            read r
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> read r
          | exception Unix.Unix_error (e, _, _) -> Error (`Error (Unix.error_message e))
        end

  let write fd payload =
    if String.contains payload '\n' then
      invalid_arg "Frame.write: payload contains a newline";
    let data = Bytes.of_string (payload ^ "\n") in
    let total = Bytes.length data in
    let rec push off =
      if off >= total then Ok ()
      else
        match Unix.write fd data off (total - off) with
        | n -> push (off + n)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> push off
        | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
    in
    push 0
end
