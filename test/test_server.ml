(* standbyd end to end: an in-process server on a Unix socket driven
   through the real wire protocol — served results vs the offline
   engine, admission backpressure, deadline degradation, protocol
   robustness (malformed/oversized/partial/unknown-version frames),
   client-disconnect cancellation and graceful draining. *)

module Process = Standby_device.Process
module Version = Standby_cells.Version
module Optimizer = Standby_opt.Optimizer
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate
module Benchmarks = Standby_circuits.Benchmarks
module Job = Standby_service.Job
module Result_store = Standby_service.Result_store
module Json = Standby_telemetry.Json
module Metrics = Standby_telemetry.Metrics
module Telemetry = Standby_telemetry.Telemetry
module Protocol = Standby_server.Protocol
module Server = Standby_server.Server
module Listener = Standby_server.Listener
module Router = Standby_cluster.Router
module Client = Standby_server.Client

let check = Alcotest.check
let quick name f = Alcotest.test_case name `Quick f

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let ok = function Ok v -> v | Error msg -> Alcotest.failf "unexpected error: %s" msg

(* Client calls fail with typed errors; render them for the report. *)
let cok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected client error: %s" (Client.error_message e)

(* One characterized-library cache shared by every server in this
   binary — characterization is the expensive setup. *)
let libraries = Job.Library_cache.create ()

let fresh_socket () =
  let file = Filename.temp_file "standbyd" ".sock" in
  Sys.remove file;
  file

type harness = { server : Server.t; thread : Thread.t; address : Protocol.address }

let start ?(capacity = 4) ?(workers = 2) ?max_frame_bytes ?store () =
  let address = Protocol.Unix_socket (fresh_socket ()) in
  let config = Server.default_config address in
  let config =
    {
      config with
      Server.capacity;
      workers = Some workers;
      store;
      max_frame_bytes =
        Option.value max_frame_bytes ~default:config.Server.max_frame_bytes;
    }
  in
  match Server.create ~libraries config with
  | Error msg -> Alcotest.failf "server create: %s" msg
  | Ok server -> { server; thread = Thread.create Server.run server; address }

let stop h =
  Server.request_drain h.server;
  Thread.join h.thread

let with_server ?capacity ?workers ?max_frame_bytes ?store f =
  let h = start ?capacity ?workers ?max_frame_bytes ?store () in
  Fun.protect ~finally:(fun () -> stop h) (fun () -> f h)

let connect_to address =
  match Client.connect address with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Client.error_message e)

let connect h = connect_to h.address

let with_client h f =
  let c = connect h in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let optimize ?(id = "job") ?(source = Protocol.Circuit "c432")
    ?(mode = Version.default_mode) ?(method_ = Optimizer.Heuristic_1)
    ?(penalty = 0.05) ?deadline_s ?(progress = false) () =
  Protocol.Optimize { Protocol.id; source; mode; method_; penalty; deadline_s; progress }

let show_response r = Json.to_string (Protocol.response_to_json r)

(* Awkward floats on purpose: the wire codec must round-trip entries at
   full precision for the shared cache tier's bit-identity claim. *)
let sample_entry =
  {
    Result_store.method_name = "heu1";
    penalty = 0.05;
    budget = 6.2912600027129457;
    delay = 6.1979138612693045;
    delay_fast = 6.17;
    delay_slow = 6.9;
    total = 4.0582109633403818e-07;
    isub = 2.6e-07;
    igate = 1.45e-07;
    runtime_s = 0.125;
    assignment = "vector 10110\ngate 0 0 1\n";
  }

let expect_result = function
  | Protocol.Result p -> p
  | r -> Alcotest.failf "expected a result, got %s" (show_response r)

let expect_status = function
  | Protocol.Status_reply s -> s
  | r -> Alcotest.failf "expected a status reply, got %s" (show_response r)

(* Poll the daemon's status until [pred] holds (fresh connection per
   probe, so probes never interleave with a pipelined client). *)
let wait_status ?(timeout_s = 20.0) h pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    let s = with_client h (fun c -> expect_status (cok (Client.rpc c Protocol.Status))) in
    if pred s then s
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "status condition not reached within %.0f s" timeout_s
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let metric_value h name =
  let body =
    with_client h (fun c ->
        match cok (Client.rpc c Protocol.Metrics) with
        | Protocol.Metrics_reply { body; _ } -> body
        | r -> Alcotest.failf "expected metrics, got %s" (show_response r))
  in
  let value = ref None in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
           value :=
             float_of_string_opt
               (String.sub line (i + 1) (String.length line - i - 1))
         | _ -> ());
  match !value with
  | Some v -> v
  | None -> Alcotest.failf "metric %s not in exposition" name

(* Raw-socket access for the robustness tests: drive the wire format by
   hand, below the typed client. *)
let raw_connect address =
  let path =
    match address with Protocol.Unix_socket p -> p | _ -> assert false
  in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  fd

let write_all fd s =
  let b = Bytes.of_string s in
  let rec go off =
    if off < Bytes.length b then
      go (off + Unix.write fd b off (Bytes.length b - off))
  in
  go 0

let read_response reader =
  match Protocol.Frame.read reader with
  | Ok line -> ok (Result.bind (Json.of_string line) Protocol.response_of_json)
  | Error `Eof -> Alcotest.fail "unexpected EOF from server"
  | Error `Oversized -> Alcotest.fail "oversized server response"
  | Error (`Error msg) -> Alcotest.failf "read: %s" msg

let expect_error ~sub = function
  | Protocol.Error_response { message; _ } ->
    if not (contains ~sub message) then
      Alcotest.failf "error %S does not mention %S" message sub
  | r -> Alcotest.failf "expected an error response, got %s" (show_response r)

let status_line = Json.to_string (Protocol.request_to_json Protocol.Status) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Protocol codec (pure)                                                *)

let roundtrip_request r =
  match Protocol.request_of_json (Protocol.request_to_json r) with
  | Ok r' -> check Alcotest.bool "request survives the round trip" true (r = r')
  | Error msg -> Alcotest.failf "request round trip: %s" msg

let roundtrip_response r =
  match Protocol.response_of_json (Protocol.response_to_json r) with
  | Ok r' -> check Alcotest.bool "response survives the round trip" true (r = r')
  | Error msg -> Alcotest.failf "response round trip: %s" msg

let test_codec_roundtrip () =
  roundtrip_request (optimize ());
  roundtrip_request
    (optimize ~id:"x/1"
       ~source:(Protocol.Bench { name = "tiny"; text = "INPUT(a)\nOUTPUT(a)\n" })
       ~mode:Version.state_only_mode
       ~method_:(Optimizer.Heuristic_2 { time_limit_s = 1.5 })
       ~penalty:0.25 ~deadline_s:3.0 ());
  roundtrip_request
    (optimize ~method_:(Optimizer.Hill_climb { time_limit_s = 0.5; max_rounds = 3 }) ());
  roundtrip_request (optimize ~method_:Optimizer.Exact ());
  (* The anytime budgets travel as float seconds: a value that is not a
     whole number of milliseconds, or is under one, must come back
     exactly, or the served digest parts from the offline one.  Both
     methods ride the v2 window. *)
  List.iter
    (fun method_ ->
      let r = optimize ~method_ () in
      roundtrip_request r;
      check (Alcotest.option Alcotest.int) "anytime frames say v:2" (Some 2)
        (Option.bind (Json.member "v" (Protocol.request_to_json r)) Json.to_int_opt))
    [
      Optimizer.Greedy { time_budget_s = 2.0 };
      Optimizer.Greedy { time_budget_s = 1.2345 };
      Optimizer.Partition { time_budget_s = 0.0004; regions = 2 };
      Optimizer.Partition { time_budget_s = 3.0; regions = 0 };
    ];
  roundtrip_request Protocol.Status;
  roundtrip_request Protocol.Metrics;
  roundtrip_request (Protocol.Cache_get { key = "0123456789abcdef" });
  roundtrip_request (Protocol.Cache_put { key = "0123456789abcdef"; entry = sample_entry });
  roundtrip_request (Protocol.Drain { backend = None });
  roundtrip_request (Protocol.Drain { backend = Some "unix:/tmp/b1.sock" });
  roundtrip_response
    (Protocol.Rejected { id = "j"; reason = "queue full"; retry_after_s = 1.25 });
  roundtrip_response (Protocol.Error_response { id = None; message = "nope" });
  roundtrip_response (Protocol.Error_response { id = Some "j"; message = "nope" });
  roundtrip_response
    (Protocol.Status_reply
       {
         Protocol.draining = false;
         accepted = 3;
         rejected = 1;
         in_flight = 2;
         queue_depth = 2;
         capacity = 64;
         workers = 4;
         uptime_s = 1.5;
         incumbent_a = None;
         backends = [];
       });
  roundtrip_response
    (Protocol.Status_reply
       {
         Protocol.draining = true;
         accepted = 10;
         rejected = 0;
         in_flight = 1;
         queue_depth = 1;
         capacity = 0;
         workers = 2;
         uptime_s = 99.25;
         incumbent_a = Some 2.3546121681693101e-06;
         backends =
           [
             {
               Protocol.backend = "unix:/tmp/b1.sock";
               health = "healthy";
               backend_in_flight = 3;
               backend_incumbent_a = Some 4.0582109633403818e-07;
               consecutive_failures = 0;
               last_probe_s = 0.5;
             };
             {
               Protocol.backend = "127.0.0.1:7171";
               health = "down";
               backend_in_flight = 0;
               backend_incumbent_a = None;
               consecutive_failures = 4;
               last_probe_s = -1.0;
             };
           ];
       });
  roundtrip_response (Protocol.Cache_found { key = "ff00"; entry = sample_entry });
  roundtrip_response (Protocol.Cache_missing { key = "ff00" });
  roundtrip_response (Protocol.Cache_ack { key = "ff00"; stored = true });
  roundtrip_response (Protocol.Cache_ack { key = "ff00"; stored = false });
  roundtrip_response
    (Protocol.Metrics_reply { content_type = "text/plain"; body = "a 1" })

let test_codec_roundtrip_v2 () =
  roundtrip_request (optimize ~progress:true ());
  roundtrip_request Protocol.Stats;
  roundtrip_response
    (Protocol.Progress
       {
         Protocol.progress_id = "job/7";
         progress_leakage_a = 2.3546121681693101e-06;
         progress_elapsed_s = 0.0625;
         improvement = 3;
       });
  (* A registry snapshot with histograms survives the wire — the fleet
     aggregation path depends on bucket-exact round trips. *)
  let reg = Metrics.create () in
  Metrics.add (Metrics.counter reg "server.accepted") 5;
  Metrics.set_gauge (Metrics.gauge reg "server.queue_depth") 2.0;
  let h = Metrics.histogram reg "engine.job_wall_s" ~buckets:[ 0.1; 1.0 ] in
  List.iter (Metrics.observe h) [ 0.05; 0.5; 3.0 ];
  roundtrip_response (Protocol.Stats_reply (Metrics.registry_snapshot reg));
  check Alcotest.bool "progress is not terminal" false
    (Protocol.is_terminal
       (Protocol.Progress
          {
            Protocol.progress_id = "j";
            progress_leakage_a = 1e-6;
            progress_elapsed_s = 0.1;
            improvement = 1;
          }));
  check Alcotest.bool "stats reply is terminal" true
    (Protocol.is_terminal (Protocol.Stats_reply (Metrics.registry_snapshot reg)))

(* The optional trace field: attached by request_to_json ?trace, read
   back by trace_of_json, invisible to request_of_json (v1 peers just
   ignore it). *)
let test_trace_field_roundtrip () =
  let ctx =
    {
      Telemetry.trace_id = "4fd1e20a55aa33cc";
      parent = Some { Telemetry.pid = 1234; span = 56 };
    }
  in
  let json = Protocol.request_to_json ~trace:ctx (optimize ~progress:true ()) in
  (match Protocol.trace_of_json json with
   | Some got -> check Alcotest.bool "trace context round trips" true (got = ctx)
   | None -> Alcotest.fail "trace field did not survive the round trip");
  (match Protocol.request_of_json json with
   | Ok r -> check Alcotest.bool "request decodes with trace attached" true
               (r = optimize ~progress:true ())
   | Error msg -> Alcotest.failf "request with trace rejected: %s" msg);
  (* Root context: no parent ref. *)
  let root = { Telemetry.trace_id = "abc"; parent = None } in
  (match Protocol.trace_of_json (Protocol.request_to_json ~trace:root Protocol.Status) with
   | Some got -> check Alcotest.bool "rootless parent round trips" true (got = root)
   | None -> Alcotest.fail "root trace context lost");
  (* Absent and malformed trace fields degrade to None, never an error. *)
  check Alcotest.bool "absent -> None" true
    (Protocol.trace_of_json (Protocol.request_to_json Protocol.Status) = None);
  let raw s = ok (Json.of_string s) in
  check Alcotest.bool "non-object trace -> None" true
    (Protocol.trace_of_json (raw {|{"v":1,"type":"status","trace":42}|}) = None);
  check Alcotest.bool "missing trace_id -> None" true
    (Protocol.trace_of_json (raw {|{"v":1,"type":"status","trace":{"span":7}}|}) = None)

(* v1 <-> v2 compatibility: a bare v1 optimize (no progress, no trace)
   decodes with the v2 defaults; the version window is [1..2] so v:3 is
   refused with the speaking range. *)
let test_version_window () =
  (match
     Result.bind
       (Json.of_string {|{"v":1,"type":"optimize","id":"x","circuit":"c432"}|})
       Protocol.request_of_json
   with
   | Ok (Protocol.Optimize o) ->
     check Alcotest.bool "v1 optimize defaults progress off" false o.Protocol.progress
   | Ok _ -> Alcotest.fail "v1 optimize decoded to the wrong verb"
   | Error msg -> Alcotest.failf "v1 optimize rejected: %s" msg);
  match
    Result.bind (Json.of_string {|{"v":3,"type":"status"}|}) Protocol.request_of_json
  with
  | Ok _ -> Alcotest.fail "accepted v:3"
  | Error msg ->
    check Alcotest.bool "names the speaking range" true
      (contains ~sub:"unsupported protocol version 3" msg
      && contains ~sub:"1-2" msg)

(* A pre-cluster v1 status record (no queue_depth, no backends) must
   still decode — additive protocol extension, no version bump. *)
let test_status_decodes_precluster () =
  let old =
    {|{"v":1,"type":"status","draining":false,"accepted":3,"rejected":1,"in_flight":2,"capacity":64,"workers":4,"uptime_s":1.5}|}
  in
  match Result.bind (Json.of_string old) Protocol.response_of_json with
  | Ok (Protocol.Status_reply s) ->
    check Alcotest.int "queue_depth falls back to in_flight" 2 s.Protocol.queue_depth;
    check Alcotest.bool "backends default to empty" true (s.Protocol.backends = [])
  | Ok r -> Alcotest.failf "expected a status reply, got %s" (show_response r)
  | Error msg -> Alcotest.failf "pre-cluster status: %s" msg

(* The tree-search frames are what every deployed peer speaks: their
   bytes may not move. *)
let test_optimize_frames_pinned () =
  let frame method_ =
    Json.to_string (Protocol.request_to_json (optimize ~id:"x" ~method_ ()))
  in
  let pinned m =
    {|{"v":1,"type":"optimize","id":"x","circuit":"c432","library":"4opt","method":|} ^ m
    ^ {|,"penalty":0.050000000000000003}|}
  in
  check Alcotest.string "heu1" (pinned {|{"name":"heu1"}|}) (frame Optimizer.Heuristic_1);
  check Alcotest.string "heu2"
    (pinned {|{"name":"heu2","time_limit_s":1.5}|})
    (frame (Optimizer.Heuristic_2 { time_limit_s = 1.5 }));
  check Alcotest.string "hc"
    (pinned {|{"name":"hc","time_limit_s":0.5,"rounds":3}|})
    (frame (Optimizer.Hill_climb { time_limit_s = 0.5; max_rounds = 3 }));
  check Alcotest.string "exact" (pinned {|{"name":"exact"}|}) (frame Optimizer.Exact)

let test_codec_rejects () =
  let req s = Result.bind (Json.of_string s) Protocol.request_of_json in
  let expect ~sub name = function
    | Ok _ -> Alcotest.failf "%s: expected an error mentioning %S" name sub
    | Error msg ->
      if not (contains ~sub msg) then
        Alcotest.failf "%s: error %S does not mention %S" name msg sub
  in
  expect ~sub:"version" "future version" (req {|{"v":99,"type":"status"}|});
  expect ~sub:"type" "unknown type" (req {|{"v":1,"type":"frobnicate"}|});
  expect ~sub:"circuit" "no source" (req {|{"v":1,"type":"optimize","id":"x"}|});
  expect ~sub:"method" "bad method"
    (req {|{"v":1,"type":"optimize","id":"x","circuit":"c432","method":"annealing"}|});
  expect ~sub:"rounds must be positive" "zero rounds"
    (req {|{"v":1,"type":"optimize","id":"x","circuit":"c432","method":{"name":"hc","rounds":0}}|});
  (* A client built before the budget moved to float seconds: refused,
     never run under the default budget. *)
  expect ~sub:"time_limit_s" "millisecond budget"
    (req
       {|{"v":2,"type":"optimize","id":"x","circuit":"c432","method":{"name":"greedy","time_budget_ms":1235},"penalty":0.05,"mode":"greedy","time_budget_ms":1235}|})

let test_addresses () =
  check Alcotest.bool "unix: prefix" true
    (Protocol.address_of_string "unix:/tmp/s.sock"
    = Ok (Protocol.Unix_socket "/tmp/s.sock"));
  check Alcotest.bool "bare path" true
    (Protocol.address_of_string "standbyopt.sock"
    = Ok (Protocol.Unix_socket "standbyopt.sock"));
  check Alcotest.bool "host:port" true
    (Protocol.address_of_string "127.0.0.1:7171"
    = Ok (Protocol.Tcp ("127.0.0.1", 7171)));
  check Alcotest.bool "bad port is an error" true
    (Result.is_error (Protocol.address_of_string "host:notaport"));
  check Alcotest.bool "empty is an error" true
    (Result.is_error (Protocol.address_of_string ""))

(* ------------------------------------------------------------------ *)
(* Served results vs the offline engine                                 *)

let offline ~penalty method_ =
  let lib =
    Job.Library_cache.get libraries ~mode:Version.default_mode
      ~process:Process.default
  in
  Optimizer.run lib (Benchmarks.circuit "c432") ~penalty method_

let check_matches_offline name (p : Protocol.result_payload) ~penalty method_ =
  let o = offline ~penalty method_ in
  check (Alcotest.float 0.0)
    (name ^ ": leakage bit-identical")
    o.Optimizer.breakdown.Evaluate.total p.Protocol.leakage_a;
  check Alcotest.string
    (name ^ ": assignment bit-identical")
    (Assignment.to_string o.Optimizer.assignment)
    p.Protocol.assignment;
  check (Alcotest.float 0.0) (name ^ ": delay") o.Optimizer.delay p.Protocol.delay

let test_serve_matches_offline () =
  with_server (fun h ->
      with_client h (fun c ->
          let p = expect_result (cok (Client.rpc c (optimize ~id:"one" ()))) in
          check Alcotest.string "id echoed" "one" p.Protocol.id;
          check Alcotest.string "computed" "computed" p.Protocol.status;
          check_matches_offline "serve" p ~penalty:0.05 Optimizer.Heuristic_1))

(* progress=true streams incumbent pushes before the terminal result:
   a fresh heu1 computation always visits at least one leaf, so at
   least one Progress frame precedes the Result, ordinals count up
   from 1, and the final incumbent equals the result's leakage. *)
let test_progress_stream () =
  with_server (fun h ->
      with_client h (fun c ->
          cok (Client.send c (optimize ~id:"live" ~progress:true ()));
          let rec drain acc =
            match cok (Client.recv c) with
            | Protocol.Progress p -> drain (p :: acc)
            | r -> (List.rev acc, r)
          in
          let pushes, terminal = drain [] in
          let p = expect_result terminal in
          check Alcotest.bool "at least one progress push" true (pushes <> []);
          List.iteri
            (fun i (push : Protocol.progress_payload) ->
              check Alcotest.string "push echoes the job id" "live"
                push.Protocol.progress_id;
              check Alcotest.int "improvements count from 1" (i + 1)
                push.Protocol.improvement;
              check Alcotest.bool "elapsed is non-negative" true
                (push.Protocol.progress_elapsed_s >= 0.0))
            pushes;
          (* The push carries the search tree's incremental leakage; the
             result re-evaluates the breakdown — same leaf, so equal to
             within float noise but not bit-identical. *)
          let last = List.nth pushes (List.length pushes - 1) in
          check Alcotest.bool "final push is the answer" true
            (Float.abs (last.Protocol.progress_leakage_a -. p.Protocol.leakage_a)
            <= 1e-9 *. Float.abs p.Protocol.leakage_a);
          check_matches_offline "progress stream" p ~penalty:0.05 Optimizer.Heuristic_1))

(* Greedy over the wire: an optimize frame carrying the greedy method
   (stamped v2, its budget in the method object) streams incumbents
   like any progress job, and its terminal result is bit-identical to
   an offline greedy run with the same budget — c432 reaches greedy
   quiescence in milliseconds, so the 5 s ceiling never cuts in and
   the answer is deterministic. *)
let test_greedy_submit_progress () =
  let greedy = Optimizer.Greedy { time_budget_s = 5.0 } in
  with_server (fun h ->
      with_client h (fun c ->
          cok (Client.send c (optimize ~id:"big" ~method_:greedy ~progress:true ()));
          let rec drain acc =
            match cok (Client.recv c) with
            | Protocol.Progress p -> drain (p :: acc)
            | r -> (List.rev acc, r)
          in
          let pushes, terminal = drain [] in
          let p = expect_result terminal in
          check Alcotest.bool "at least one progress push" true (pushes <> []);
          List.iter
            (fun (push : Protocol.progress_payload) ->
              check Alcotest.string "push echoes the job id" "big"
                push.Protocol.progress_id)
            pushes;
          check Alcotest.string "computed" "computed" p.Protocol.status;
          check_matches_offline "greedy submit" p ~penalty:0.05 greedy))

(* The stats verb returns the structured registry snapshot — the wire
   view standbyopt top and the router aggregator read. *)
let test_stats_verb () =
  with_server (fun h ->
      with_client h (fun c ->
          let _ = expect_result (cok (Client.rpc c (optimize ~id:"warm" ()))) in
          match cok (Client.rpc c Protocol.Stats) with
          | Protocol.Stats_reply snap ->
            check Alcotest.bool "server.accepted counted" true
              (Option.value (Metrics.find_counter snap "server.accepted") ~default:0 >= 1);
            (match Metrics.find_histogram snap "engine.job_wall_s" with
             | Some h -> check Alcotest.bool "wall histogram populated" true (h.Metrics.count >= 1)
             | None -> Alcotest.fail "engine.job_wall_s missing from stats");
            (* p99 estimation works straight off the wire snapshot. *)
            (match Metrics.find_histogram snap "engine.job_wall_s" with
             | Some h ->
               check Alcotest.bool "p99 estimable" true
                 (Metrics.percentile h 0.99 <> None)
             | None -> ())
          | r -> Alcotest.failf "expected stats, got %s" (show_response r)))

let test_concurrent_submits () =
  let penalties = [ 0.02; 0.05; 0.08; 0.1; 0.15; 0.25 ] in
  with_server ~capacity:8 ~workers:3 (fun h ->
      with_client h (fun c ->
          List.iteri
            (fun i penalty ->
              cok
                (Client.send c
                   (optimize ~id:(Printf.sprintf "p%d" i) ~penalty ())))
            penalties;
          let got = Hashtbl.create 8 in
          List.iter
            (fun _ ->
              let p = expect_result (cok (Client.recv c)) in
              Hashtbl.replace got p.Protocol.id p)
            penalties;
          (* Responses arrive in completion order; every request must be
             answered and each must match its own offline run. *)
          List.iteri
            (fun i penalty ->
              let id = Printf.sprintf "p%d" i in
              match Hashtbl.find_opt got id with
              | None -> Alcotest.failf "no response for %s" id
              | Some p ->
                check_matches_offline id p ~penalty Optimizer.Heuristic_1)
            penalties))

let test_inline_bench_source () =
  (* The .bench rendering lowers rich gates onto NAND/NOR/NOT, so the
     reference is an offline run on the same re-parsed text — not on the
     built-in original. *)
  let text = Standby_netlist.Bench_io.to_string (Benchmarks.circuit "c432") in
  let net = ok (Standby_netlist.Bench_io.of_string ~name:"c432-wire" text) in
  let lib =
    Job.Library_cache.get libraries ~mode:Version.default_mode
      ~process:Process.default
  in
  let o = Optimizer.run lib net ~penalty:0.05 Optimizer.Heuristic_1 in
  with_server (fun h ->
      with_client h (fun c ->
          let p =
            expect_result
              (cok
                 (Client.rpc c
                    (optimize ~id:"inline"
                       ~source:(Protocol.Bench { name = "c432-wire"; text })
                       ())))
          in
          check (Alcotest.float 0.0) "inline: leakage bit-identical"
            o.Optimizer.breakdown.Evaluate.total p.Protocol.leakage_a;
          check Alcotest.string "inline: assignment bit-identical"
            (Assignment.to_string o.Optimizer.assignment)
            p.Protocol.assignment))

(* ------------------------------------------------------------------ *)
(* Admission, deadlines, draining                                       *)

let test_deadline_degrades () =
  with_server (fun h ->
      with_client h (fun c ->
          let p =
            expect_result
              (cok
                 (Client.rpc c
                    (optimize ~id:"tight"
                       ~method_:(Optimizer.Heuristic_2 { time_limit_s = 30.0 })
                       ~deadline_s:0.001 ())))
          in
          check Alcotest.string "blown deadline degrades, not errors" "degraded"
            p.Protocol.status;
          check Alcotest.bool "still a valid assignment" true
            (String.length p.Protocol.assignment > 0)))

let test_queue_full_backpressure () =
  with_server ~capacity:1 ~workers:1 (fun h ->
      with_client h (fun c ->
          (* Frames on one connection are admitted in order: the slow job
             fills the only slot, so the second is rejected. *)
          cok
            (Client.send c
               (optimize ~id:"slow"
                  ~method_:(Optimizer.Heuristic_2 { time_limit_s = 1.0 })
                  ()));
          cok (Client.send c (optimize ~id:"bounced" ()));
          (match cok (Client.recv c) with
           | Protocol.Rejected { id; reason; retry_after_s } ->
             check Alcotest.string "rejected id" "bounced" id;
             check Alcotest.bool "reason names the queue" true
               (contains ~sub:"queue full" reason);
             check Alcotest.bool "retry hint is positive" true (retry_after_s > 0.0)
           | r -> Alcotest.failf "expected a rejection, got %s" (show_response r));
          let p = expect_result (cok (Client.recv c)) in
          check Alcotest.string "slow job still completes" "slow" p.Protocol.id))

let test_drain_finishes_in_flight () =
  let h = start ~workers:1 () in
  let slow = connect h in
  cok
    (Client.send slow
       (optimize ~id:"inflight"
          ~method_:(Optimizer.Heuristic_2 { time_limit_s = 1.0 })
          ()));
  ignore (wait_status h (fun s -> s.Protocol.in_flight >= 1));
  Server.request_drain h.server;
  (* Still in drain-wait: new work is turned away with a structured
     rejection, status still answers... *)
  with_client h (fun c ->
      (match cok (Client.rpc c (optimize ~id:"late" ())) with
       | Protocol.Rejected { reason; _ } ->
         check Alcotest.bool "rejection names the drain" true
           (contains ~sub:"drain" reason)
       | r -> Alcotest.failf "expected a drain rejection, got %s" (show_response r)));
  (* ... and the admitted job is never lost: its response arrives before
     the server exits. *)
  let p = expect_result (cok (Client.recv slow)) in
  check Alcotest.string "in-flight job answered during drain" "inflight"
    p.Protocol.id;
  Client.close slow;
  Thread.join h.thread;
  check Alcotest.bool "socket removed after drain" false
    (Sys.file_exists
       (match h.address with Protocol.Unix_socket p -> p | _ -> assert false))

let test_disconnect_cancels_job () =
  with_server ~workers:1 (fun h ->
      let before = metric_value h "server_cancelled" in
      let c = connect h in
      cok
        (Client.send c
           (optimize ~id:"doomed"
              ~method_:(Optimizer.Heuristic_2 { time_limit_s = 60.0 })
              ()));
      ignore (wait_status h (fun s -> s.Protocol.in_flight >= 1));
      (* Hang up mid-job: the worker must notice within moments — far
         inside the 60 s search budget — and the daemon must stay up. *)
      Client.close c;
      ignore (wait_status ~timeout_s:15.0 h (fun s -> s.Protocol.in_flight = 0));
      check Alcotest.bool "cancellation counted" true
        (metric_value h "server_cancelled" >= before +. 1.0);
      (* Still serving. *)
      with_client h (fun c2 ->
          let p = expect_result (cok (Client.rpc c2 (optimize ~id:"after" ()))) in
          check Alcotest.string "server survives the disconnect" "after"
            p.Protocol.id))

(* ------------------------------------------------------------------ *)
(* Wire robustness                                                      *)

(* Both listeners share one read loop, so each robustness test runs
   against the daemon and against a router front with one daemon behind
   it. *)
type front = Daemon | Router_front

let with_front ?max_frame_bytes front f =
  match front with
  | Daemon -> with_server ?max_frame_bytes (fun h -> f h.address)
  | Router_front ->
    with_server (fun backend ->
        let listen = Protocol.Unix_socket (fresh_socket ()) in
        let config = Router.default_config ~listen ~backends:[ backend.address ] in
        let config =
          {
            config with
            Router.max_frame_bytes =
              Option.value max_frame_bytes ~default:config.Router.max_frame_bytes;
          }
        in
        match Router.create config with
        | Error msg -> Alcotest.failf "router create: %s" msg
        | Ok router ->
          let thread = Thread.create Router.run router in
          Fun.protect
            ~finally:(fun () ->
              Router.request_drain router;
              Thread.join thread)
            (fun () -> f listen))

let with_raw address f =
  let fd = raw_connect address in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () -> f fd (Protocol.Frame.reader fd))

(* In-process, so the daemon and the router share one registry: each
   listener must count frame errors under its own name only. *)
let protocol_errors name = Metrics.counter_value (Metrics.counter Metrics.default name)

let test_malformed_json_keeps_connection front () =
  let own, other =
    match front with
    | Daemon -> ("server.protocol_errors", "cluster.protocol_errors")
    | Router_front -> ("cluster.protocol_errors", "server.protocol_errors")
  in
  with_front front (fun address ->
      with_raw address (fun fd reader ->
          let own_before = protocol_errors own and other_before = protocol_errors other in
          write_all fd "this is not json\n";
          expect_error ~sub:"malformed JSON" (read_response reader);
          check Alcotest.int ("counted on " ^ own) (own_before + 1) (protocol_errors own);
          check Alcotest.int ("not counted on " ^ other) other_before (protocol_errors other);
          (* The same connection still works. *)
          write_all fd status_line;
          ignore (expect_status (read_response reader))))

let test_unknown_version front () =
  with_front front (fun address ->
      with_raw address (fun fd reader ->
          write_all fd "{\"v\":99,\"type\":\"status\"}\n";
          expect_error ~sub:"version" (read_response reader);
          write_all fd status_line;
          ignore (expect_status (read_response reader))))

let test_oversized_frame_drops_connection front () =
  with_front ~max_frame_bytes:256 front (fun address ->
      with_raw address (fun fd reader ->
          write_all fd (String.make 1024 'a' ^ "\n");
          expect_error ~sub:"exceeds 256 bytes" (read_response reader);
          (* The poisoned connection is dropped... *)
          match Protocol.Frame.read reader with
          | Error `Eof -> ()
          | Ok line -> Alcotest.failf "expected EOF, got %s" line
          | Error _ -> ());
      (* ... but the listener keeps serving fresh connections. *)
      let c = connect_to address in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () -> ignore (expect_status (cok (Client.rpc c Protocol.Status)))))

let test_partial_writes_reassemble front () =
  with_front front (fun address ->
      with_raw address (fun fd reader ->
          (* Dribble the request a few bytes at a time: the framing layer
             must reassemble it across reads. *)
          let n = String.length status_line in
          let rec dribble off =
            if off < n then begin
              let len = min 3 (n - off) in
              write_all fd (String.sub status_line off len);
              Thread.delay 0.002;
              dribble (off + len)
            end
          in
          dribble 0;
          ignore (expect_status (read_response reader))))

let wire_tests =
  List.concat_map
    (fun (front, suffix) ->
      [
        quick ("malformed json keeps the connection" ^ suffix)
          (test_malformed_json_keeps_connection front);
        quick ("unknown version is answered" ^ suffix) (test_unknown_version front);
        quick ("oversized frame drops the connection" ^ suffix)
          (test_oversized_frame_drops_connection front);
        quick ("partial writes reassemble" ^ suffix) (test_partial_writes_reassemble front);
      ])
    [ (Daemon, ""); (Router_front, " via the router") ]

(* ------------------------------------------------------------------ *)
(* Cache verbs, status fields, wire drain, listener reuse               *)

let with_store f =
  let dir = Filename.temp_file "standbyd-store" "" in
  Sys.remove dir;
  let store = Result_store.create ~dir () in
  Fun.protect
    ~finally:(fun () -> ignore (Result_store.clear store); try Unix.rmdir dir with _ -> ())
    (fun () -> f store)

let test_cache_verbs_roundtrip () =
  with_store (fun store ->
      with_server ~store (fun h ->
          with_client h (fun c ->
              let key = "00112233445566778899aabbccddeeff" in
              (match cok (Client.rpc c (Protocol.Cache_get { key })) with
               | Protocol.Cache_missing { key = k } ->
                 check Alcotest.string "miss echoes the key" key k
               | r -> Alcotest.failf "expected a miss, got %s" (show_response r));
              (match cok (Client.rpc c (Protocol.Cache_put { key; entry = sample_entry })) with
               | Protocol.Cache_ack { stored; _ } ->
                 check Alcotest.bool "put stores" true stored
               | r -> Alcotest.failf "expected an ack, got %s" (show_response r));
              (match cok (Client.rpc c (Protocol.Cache_get { key })) with
               | Protocol.Cache_found { entry; _ } ->
                 check Alcotest.bool "entry survives the wire bit-exactly" true
                   (entry = sample_entry)
               | r -> Alcotest.failf "expected a hit, got %s" (show_response r)))))

let test_cache_get_after_optimize () =
  (* A served result must be retrievable through the cache verbs under
     the key the response itself names — that key is what the router
     hashes and what a peer's read-through asks for. *)
  with_store (fun store ->
      with_server ~store (fun h ->
          with_client h (fun c ->
              let p = expect_result (cok (Client.rpc c (optimize ~id:"seed" ()))) in
              check Alcotest.bool "response names its cache key" true
                (String.length p.Protocol.key > 0);
              match cok (Client.rpc c (Protocol.Cache_get { key = p.Protocol.key })) with
              | Protocol.Cache_found { entry; _ } ->
                check (Alcotest.float 0.0) "stored leakage matches the response"
                  p.Protocol.leakage_a entry.Result_store.total;
                check Alcotest.string "stored assignment matches the response"
                  p.Protocol.assignment entry.Result_store.assignment
              | r -> Alcotest.failf "expected a hit, got %s" (show_response r))))

let test_cache_put_without_store () =
  with_server (fun h ->
      with_client h (fun c ->
          match cok (Client.rpc c (Protocol.Cache_put { key = "ab"; entry = sample_entry })) with
          | Protocol.Cache_ack { stored; _ } ->
            check Alcotest.bool "no store means stored=false" false stored
          | r -> Alcotest.failf "expected an ack, got %s" (show_response r)))

let test_status_fields () =
  with_server (fun h ->
      with_client h (fun c ->
          let s1 = expect_status (cok (Client.rpc c Protocol.Status)) in
          check Alcotest.int "queue_depth mirrors in_flight" s1.Protocol.in_flight
            s1.Protocol.queue_depth;
          check Alcotest.bool "a daemon has no backends" true (s1.Protocol.backends = []);
          check Alcotest.bool "uptime is non-negative" true (s1.Protocol.uptime_s >= 0.0);
          let accepted_before = s1.Protocol.accepted in
          ignore (expect_result (cok (Client.rpc c (optimize ~id:"count-me" ()))));
          Thread.delay 0.05;
          let s2 = expect_status (cok (Client.rpc c Protocol.Status)) in
          check Alcotest.int "accepted counts the request" (accepted_before + 1)
            s2.Protocol.accepted;
          check Alcotest.bool "uptime is monotonic" true
            (s2.Protocol.uptime_s >= s1.Protocol.uptime_s)))

let test_drain_verb () =
  let h = start () in
  with_client h (fun c ->
      (* Naming a backend is a coordinator-only operation. *)
      (match cok (Client.rpc c (Protocol.Drain { backend = Some "unix:/x" })) with
       | Protocol.Error_response { message; _ } ->
         check Alcotest.bool "backend drain refused by a daemon" true
           (contains ~sub:"backend" message)
       | r -> Alcotest.failf "expected an error, got %s" (show_response r));
      match cok (Client.rpc c (Protocol.Drain { backend = None })) with
      | Protocol.Status_reply s ->
        check Alcotest.bool "drain acknowledged as draining" true s.Protocol.draining
      | r -> Alcotest.failf "expected a status reply, got %s" (show_response r));
  Thread.join h.thread

let free_tcp_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, port) -> port
    | _ -> assert false
  in
  Unix.close fd;
  port

let test_rapid_tcp_restart () =
  (* Serve on a TCP port, handle a connection, drain, and immediately
     rebind the same port: SO_REUSEADDR semantics must win over the old
     connection's TIME_WAIT or the restart dies with EADDRINUSE. *)
  let port = free_tcp_port () in
  let address = Protocol.Tcp ("127.0.0.1", port) in
  for round = 1 to 3 do
    let config = { (Server.default_config address) with Server.workers = Some 1 } in
    match Server.create ~libraries config with
    | Error msg -> Alcotest.failf "restart round %d: %s" round msg
    | Ok server ->
      let thread = Thread.create Server.run server in
      let c = cok (Client.connect address) in
      ignore (expect_status (cok (Client.rpc c Protocol.Status)));
      Client.close c;
      Server.request_drain server;
      Thread.join thread
  done

let test_listen_failure_leaks_no_fd () =
  (* Binding an impossible address must fail cleanly and release the
     socket; repeated failures would otherwise exhaust descriptors. *)
  for _ = 1 to 64 do
    match Listener.listen (Protocol.Tcp ("127.0.0.1", 1)) with
    | Ok fd ->
      (* Running as root, low ports bind fine — just release and move on. *)
      Unix.close fd
    | Error msg ->
      check Alcotest.bool "bind failure is descriptive" true (String.length msg > 0)
  done

let () =
  Alcotest.run "standby.server"
    [
      ( "protocol",
        [
          quick "codec round trips" test_codec_roundtrip;
          quick "v2 codec round trips" test_codec_roundtrip_v2;
          quick "trace field round trips" test_trace_field_roundtrip;
          quick "version window" test_version_window;
          quick "optimize frames are pinned" test_optimize_frames_pinned;
          quick "codec rejects" test_codec_rejects;
          quick "pre-cluster status decodes" test_status_decodes_precluster;
          quick "addresses" test_addresses;
        ] );
      ( "serving",
        [
          quick "matches the offline engine" test_serve_matches_offline;
          quick "progress stream" test_progress_stream;
          quick "greedy submit with progress" test_greedy_submit_progress;
          quick "stats verb" test_stats_verb;
          quick "concurrent submits" test_concurrent_submits;
          quick "inline bench source" test_inline_bench_source;
        ] );
      ( "admission",
        [
          quick "deadline degrades" test_deadline_degrades;
          quick "queue-full backpressure" test_queue_full_backpressure;
          quick "drain finishes in-flight work" test_drain_finishes_in_flight;
          quick "disconnect cancels the job" test_disconnect_cancels_job;
        ] );
      ("wire", wire_tests);
      ( "cluster-verbs",
        [
          quick "cache verbs round trip" test_cache_verbs_roundtrip;
          quick "cache-get finds a served result" test_cache_get_after_optimize;
          quick "cache-put without a store" test_cache_put_without_store;
          quick "status fields" test_status_fields;
          quick "drain over the wire" test_drain_verb;
          quick "rapid TCP restart" test_rapid_tcp_restart;
          quick "listen failure leaks no fd" test_listen_failure_leaks_no_fd;
        ] );
    ]
