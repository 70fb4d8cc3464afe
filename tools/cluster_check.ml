(* CI helper: end-to-end smoke of the standbyd cluster layer.

     cluster_check STANDBYOPT BENCH_FILE BATCH_CSV

   Spawns two `standbyopt serve` backends and one `standbyopt route`
   coordinator as real subprocesses on fresh Unix sockets, then drives
   the wire protocol through the router.  Asserts:

     - c17 (inline bench text) and c432 (builtin circuit) through the
       router answer the same leakage the offline `standbyopt batch` run
       wrote to BATCH_CSV (1e-5 relative: the CSV renders %%.6g),
     - c17's inline text sent again answers bit-identically (timings
       aside), and the router's metrics count it as a source-memo hit,
     - SIGKILL of the backend actually running a long job mid-stream is
       survived: the router fails the dead dial over to the surviving
       backend and the client still receives a result — bit-identical
       to an in-process offline run of the same netlist — with zero
       failed client requests,
     - a wire `drain` retires the router cleanly (exit 0), and a
       SIGTERM retires the surviving backend cleanly (exit 0), while
       the killed backend is reaped with SIGKILL. *)

module Json = Standby_telemetry.Json
module Process = Standby_device.Process
module Bench_io = Standby_netlist.Bench_io
module Version = Standby_cells.Version
module Optimizer = Standby_opt.Optimizer
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate
module Random_logic = Standby_circuits.Random_logic
module Job = Standby_service.Job
module Protocol = Standby_server.Protocol
module Client = Standby_server.Client

let fail fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("cluster_check: " ^ msg); exit 1) fmt

let say fmt = Printf.ksprintf (fun msg -> Printf.printf "cluster_check: %s\n%!" msg) fmt

let read_file path = In_channel.with_open_text path In_channel.input_all

let csv_leakage csv_path ~job =
  let lines = String.split_on_char '\n' (read_file csv_path) in
  let split line = String.split_on_char ',' line in
  match lines with
  | header :: rows -> (
    let columns = split header in
    let col name =
      match List.find_index (String.equal name) columns with
      | Some i -> i
      | None -> fail "%s: no %s column" csv_path name
    in
    let job_col = col "job" and leak_col = col "leakage_A" in
    match
      List.find_map
        (fun row ->
          let fields = split row in
          if List.nth_opt fields job_col = Some job then
            Option.bind (List.nth_opt fields leak_col) float_of_string_opt
          else None)
        rows
    with
    | Some v -> v
    | None -> fail "%s: no parsable row for job %s" csv_path job)
  | [] -> fail "%s: empty CSV" csv_path

let fresh_socket () =
  let file = Filename.temp_file "standbyd-cluster-ci" ".sock" in
  Sys.remove file;
  file

let spawn standbyopt args =
  Unix.create_process standbyopt
    (Array.of_list (standbyopt :: args))
    Unix.stdin Unix.stdout Unix.stderr

let connect_with_retry ?(deadline_s = 20.0) address =
  let deadline = Unix.gettimeofday () +. deadline_s in
  let rec go () =
    match Client.connect ~connect_timeout_s:2.0 address with
    | Ok c -> c
    | Error (Client.Unavailable _) when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.1;
      go ()
    | Error e -> fail "connect %s: %s" (Protocol.address_to_string address) (Client.error_message e)
  in
  go ()

let cok what = function
  | Ok v -> v
  | Error e -> fail "%s: %s" what (Client.error_message e)

let expect_result what = function
  | Protocol.Result p -> p
  | r ->
    fail "%s: expected a result, got %s" what
      (Json.to_string (Protocol.response_to_json r))

let optimize ~id ~source ~penalty =
  Protocol.Optimize
    {
      Protocol.id;
      source;
      mode = Version.default_mode;
      method_ = Optimizer.Heuristic_1;
      penalty;
      deadline_s = None;
      progress = false;
    }

let check_csv_parity ~what ~served ~expected =
  let rel = abs_float (served -. expected) /. abs_float expected in
  if rel > 1e-5 then
    fail "%s: served leakage %.9g disagrees with batch CSV %.9g (rel %.2g)" what served
      expected rel;
  say "%s OK (leakage %.6g A, rel %.2g vs batch)" what served rel

(* Poll a backend's STATUS over its own socket: which one is running the
   long job?  Returns the number in flight, or None once the backend is
   unreachable (e.g. already killed). *)
let in_flight_of address =
  match Client.connect ~connect_timeout_s:1.0 address with
  | Error _ -> None
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.rpc c Protocol.Status with
        | Ok (Protocol.Status_reply s) -> Some s.Protocol.in_flight
        | _ -> None)

let () =
  let standbyopt, bench_file, csv_file =
    match Sys.argv with
    | [| _; a; b; c |] -> (a, b, c)
    | _ -> fail "usage: cluster_check STANDBYOPT BENCH_FILE BATCH_CSV"
  in
  let sock_a = fresh_socket () and sock_b = fresh_socket () in
  let sock_r = fresh_socket () in
  let addr_a = Protocol.Unix_socket sock_a and addr_b = Protocol.Unix_socket sock_b in
  let addr_r = Protocol.Unix_socket sock_r in
  let serve_args sock =
    [ "serve"; "--listen"; "unix:" ^ sock; "--no-cache"; "--workers"; "2";
      "--log-level"; "warning" ]
  in
  let pid_a = spawn standbyopt (serve_args sock_a) in
  let pid_b = spawn standbyopt (serve_args sock_b) in
  let pid_r =
    spawn standbyopt
      [ "route"; "--listen"; "unix:" ^ sock_r; "--backend"; "unix:" ^ sock_a;
        "--backend"; "unix:" ^ sock_b; "--probe-interval"; "0.2"; "--log-level";
        "info" ]
  in
  say "backends %d/%d up, router %d" pid_a pid_b pid_r;
  (* The router only listens once it can see its fleet config; all three
     sockets must come up. *)
  List.iter (fun a -> Client.close (connect_with_retry a)) [ addr_a; addr_b; addr_r ];
  let router = connect_with_retry addr_r in

  (* 1. Leakage parity through the router vs the offline batch CSV —
     one job as inline bench text, one as a builtin circuit name. *)
  let bench_text = read_file bench_file in
  let r_c17 =
    expect_result "c17 via router"
      (cok "c17 rpc"
         (Client.rpc router
            (optimize ~id:"ci-c17"
               ~source:(Protocol.Bench { name = "c17"; text = bench_text })
               ~penalty:0.02)))
  in
  check_csv_parity ~what:"routed c17" ~served:r_c17.Protocol.leakage_a
    ~expected:(csv_leakage csv_file ~job:"c17-tight");
  (* The same inline text again: the router keys it from its source memo
     without a parse, and the answer must not move by a bit. *)
  let r_c17_again =
    expect_result "c17 again via router"
      (cok "c17 again rpc"
         (Client.rpc router
            (optimize ~id:"ci-c17"
               ~source:(Protocol.Bench { name = "c17"; text = bench_text })
               ~penalty:0.02)))
  in
  let answer (p : Protocol.result_payload) =
    Json.to_string
      (Protocol.response_to_json (Protocol.Result { p with runtime_s = 0.0; wall_s = 0.0 }))
  in
  if answer r_c17_again <> answer r_c17 then
    fail "repeated c17 answer differs:\n  %s\n  %s" (answer r_c17) (answer r_c17_again);
  let memo_hits =
    match cok "metrics rpc" (Client.rpc router Protocol.Metrics) with
    | Protocol.Metrics_reply { body; _ } ->
      List.find_map
        (fun line ->
          match String.split_on_char ' ' line with
          | [ "cluster_source_memo_hits"; v ] -> int_of_string_opt v
          | _ -> None)
        (String.split_on_char '\n' body)
    | r -> fail "metrics: got %s" (Json.to_string (Protocol.response_to_json r))
  in
  (match memo_hits with
   | Some n when n >= 1 -> say "repeated c17 bit-identical, routed from the source memo (hits %d)" n
   | Some n -> fail "router source memo hits %d after a repeated inline request" n
   | None -> fail "router metrics lack cluster_source_memo_hits");
  let r_c432 =
    expect_result "c432 via router"
      (cok "c432 rpc"
         (Client.rpc router
            (optimize ~id:"ci-c432" ~source:(Protocol.Circuit "c432") ~penalty:0.05)))
  in
  check_csv_parity ~what:"routed c432" ~served:r_c432.Protocol.leakage_a
    ~expected:(csv_leakage csv_file ~job:"c432-ci");

  (* 2. Failover under SIGKILL.  Generate a netlist big enough that heu1
     runs for a second or two, round-trip it through .bench text so the
     wire job and the in-process reference start from identical input,
     and compute the offline answer first. *)
  let big =
    match
      Bench_io.of_string
        (Bench_io.to_string
           (Random_logic.generate ~name:"ci-big" ~seed:7 ~inputs:400 ~gates:16000 ()))
    with
    | Ok net -> net
    | Error msg -> fail "big netlist failed to round-trip through .bench: %s" msg
  in
  let big_text = Bench_io.to_string big in
  let libraries = Job.Library_cache.create () in
  let lib =
    Job.Library_cache.get libraries ~mode:Version.default_mode ~process:Process.default
  in
  let offline = Optimizer.run lib big ~penalty:0.05 Optimizer.Heuristic_1 in
  say "big netlist: %d gates, offline leakage %.6g A" 16000
    offline.Optimizer.breakdown.Evaluate.total;
  cok "send big job"
    (Client.send router
       (optimize ~id:"ci-big"
          ~source:(Protocol.Bench { name = "ci-big"; text = big_text })
          ~penalty:0.05));
  (* Find the backend actually computing it and SIGKILL that one. *)
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec find_owner () =
    if Unix.gettimeofday () > deadline then
      fail "never observed the big job in flight on a backend";
    match (in_flight_of addr_a, in_flight_of addr_b) with
    | Some n, _ when n >= 1 -> (pid_a, "A")
    | _, Some n when n >= 1 -> (pid_b, "B")
    | _ ->
      Unix.sleepf 0.05;
      find_owner ()
  in
  let victim_pid, victim_name = find_owner () in
  Unix.kill victim_pid Sys.sigkill;
  say "SIGKILLed backend %s (pid %d) with the job in flight" victim_name victim_pid;
  let retried = expect_result "big job after SIGKILL" (cok "recv big job" (Client.recv router)) in
  if retried.Protocol.id <> "ci-big" then fail "wrong id on retried result";
  (* The retried answer must be bit-identical to the offline run: same
     doubles, same assignment string. *)
  if retried.Protocol.leakage_a <> offline.Optimizer.breakdown.Evaluate.total then
    fail "retried leakage %.17g <> offline %.17g" retried.Protocol.leakage_a
      offline.Optimizer.breakdown.Evaluate.total;
  if retried.Protocol.assignment <> Assignment.to_string offline.Optimizer.assignment then
    fail "retried assignment diverges from the offline run";
  say "failover OK (retried result bit-identical to offline, zero failed requests)";

  (* 3. Drain the router over the wire; it must answer, finish, and exit
     0.  Then retire the surviving backend with SIGTERM. *)
  (match cok "drain rpc" (Client.rpc router (Protocol.Drain { backend = None })) with
   | Protocol.Status_reply s when s.Protocol.draining -> ()
   | r -> fail "drain: expected a draining status, got %s" (Json.to_string (Protocol.response_to_json r)));
  Client.close router;
  (match Unix.waitpid [] pid_r with
   | _, Unix.WEXITED 0 -> ()
   | _, Unix.WEXITED n -> fail "router exited %d after drain" n
   | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail "router killed by signal %d" n);
  let survivor_pid = if victim_pid = pid_a then pid_b else pid_a in
  Unix.kill survivor_pid Sys.sigterm;
  (match Unix.waitpid [] survivor_pid with
   | _, Unix.WEXITED 0 -> ()
   | _, Unix.WEXITED n -> fail "surviving backend exited %d after SIGTERM" n
   | _, (Unix.WSIGNALED n | Unix.WSTOPPED n) -> fail "surviving backend killed by signal %d" n);
  (match Unix.waitpid [] victim_pid with
   | _, Unix.WSIGNALED n when n = Sys.sigkill -> ()
   | _, status ->
     let s =
       match status with
       | Unix.WEXITED n -> Printf.sprintf "exit %d" n
       | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
       | Unix.WSTOPPED n -> Printf.sprintf "stop %d" n
     in
     fail "victim backend was reaped with %s, expected SIGKILL" s);
  say "drain OK (router exit 0, survivor exit 0, victim reaped)"
