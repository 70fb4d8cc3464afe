(* The cluster layer: consistent-hash ring properties (balance,
   stability under membership change), the backend health state machine,
   and the router end to end — routed results bit-identical to direct
   and offline runs, failover past a dead ring owner, the shared cache
   tier answering across backends, administrative draining, and a drain
   that never hands a busy reader's socket to another. *)

module Process = Standby_device.Process
module Version = Standby_cells.Version
module Optimizer = Standby_opt.Optimizer
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate
module Benchmarks = Standby_circuits.Benchmarks
module Job = Standby_service.Job
module Cache_key = Standby_service.Cache_key
module Result_store = Standby_service.Result_store
module Metrics = Standby_telemetry.Metrics
module Telemetry = Standby_telemetry.Telemetry
module Protocol = Standby_server.Protocol
module Server = Standby_server.Server
module Client = Standby_server.Client
module Ring = Standby_cluster.Ring
module Health = Standby_cluster.Health
module Cache_tier = Standby_cluster.Cache_tier
module Router = Standby_cluster.Router

let check = Alcotest.check
let quick name f = Alcotest.test_case name `Quick f

let cok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected client error: %s" (Client.error_message e)

(* ------------------------------------------------------------------ *)
(* Ring properties                                                      *)

let keys n = List.init n (fun i -> Digest.to_hex (Digest.string (string_of_int i)))

let test_ring_deterministic () =
  let names = [ "unix:/tmp/a"; "unix:/tmp/b"; "unix:/tmp/c" ] in
  let r1 = Ring.create names and r2 = Ring.create (List.rev names) in
  List.iter
    (fun key ->
      check Alcotest.bool "ownership independent of declaration order" true
        (Ring.lookup r1 ~key = Ring.lookup r2 ~key))
    (keys 200)

let test_ring_balance () =
  (* The satellite property: over 1k digests and 3+ backends, no backend
     owns more than twice the share of the smallest. *)
  let names = [ "unix:/tmp/a"; "unix:/tmp/b"; "unix:/tmp/c"; "unix:/tmp/d" ] in
  let ring = Ring.create names in
  let counts = Hashtbl.create 4 in
  List.iter (fun n -> Hashtbl.replace counts n 0) names;
  List.iter
    (fun key ->
      match Ring.lookup ring ~key with
      | Some owner -> Hashtbl.replace counts owner (Hashtbl.find counts owner + 1)
      | None -> Alcotest.fail "non-empty ring returned no owner")
    (keys 1000);
  let shares = Hashtbl.fold (fun _ c acc -> c :: acc) counts [] in
  let mx = List.fold_left max 0 shares and mn = List.fold_left min 1000 shares in
  check Alcotest.bool
    (Printf.sprintf "balanced: max %d <= 2 * min %d" mx mn)
    true
    (mx <= 2 * mn);
  check Alcotest.int "every key owned exactly once" 1000 (List.fold_left ( + ) 0 shares)

let test_ring_stability () =
  (* Removing one backend remaps only the keys it owned; every other
     key keeps its owner — the warm-cache argument for the ring. *)
  let names = [ "unix:/tmp/a"; "unix:/tmp/b"; "unix:/tmp/c"; "unix:/tmp/d" ] in
  let full = Ring.create names in
  let removed = "unix:/tmp/b" in
  let shrunk = Ring.remove full removed in
  check Alcotest.int "one backend left the ring" 3 (List.length (Ring.backends shrunk));
  let moved = ref 0 in
  List.iter
    (fun key ->
      let before = Option.get (Ring.lookup full ~key) in
      let after = Option.get (Ring.lookup shrunk ~key) in
      if before = removed then begin
        incr moved;
        check Alcotest.bool "an orphaned key lands on the old second replica" true
          (match Ring.replicas full ~key with
           | _ :: second :: _ -> after = second
           | _ -> false)
      end
      else check Alcotest.string "an unaffected key keeps its owner" before after)
    (keys 1000);
  check Alcotest.bool "the removed backend actually owned keys" true (!moved > 0)

let test_ring_replicas () =
  let names = [ "unix:/tmp/a"; "unix:/tmp/b"; "unix:/tmp/c" ] in
  let ring = Ring.create names in
  List.iter
    (fun key ->
      let reps = Ring.replicas ring ~key in
      check Alcotest.int "replicas cover every backend" 3 (List.length reps);
      check Alcotest.int "replicas are distinct" 3
        (List.length (List.sort_uniq String.compare reps));
      check Alcotest.bool "head is the owner" true
        (Some (List.hd reps) = Ring.lookup ring ~key))
    (keys 100);
  check Alcotest.bool "empty ring has no replicas" true
    (Ring.replicas (Ring.create []) ~key:"x" = [])

(* ------------------------------------------------------------------ *)
(* Health state machine                                                 *)

let test_health_states () =
  let h = Health.create ~probe_interval_s:1.0 ~name:"b" (Protocol.Unix_socket "/tmp/b") in
  let now = 1000.0 in
  check Alcotest.bool "starts healthy and optimistic" true
    (Health.state h = Health.Healthy && Health.probe_due h ~now && Health.routable h ~now);
  Health.note_failure h ~now;
  check Alcotest.bool "one failure: suspect, still routable" true
    (Health.state h = Health.Suspect && Health.routable h ~now);
  Health.note_failure h ~now;
  Health.note_failure h ~now;
  check Alcotest.bool "three failures: down, not routable" true
    (Health.state h = Health.Down && not (Health.routable h ~now));
  check Alcotest.bool "down is still a last-resort candidate" true (Health.assignable h);
  (* Backoff: after 3 failures the next probe waits 4 intervals. *)
  check Alcotest.bool "probe backs off exponentially" true
    ((not (Health.probe_due h ~now:(now +. 3.9))) && Health.probe_due h ~now:(now +. 4.1));
  Health.note_success h ~now ~in_flight:2 ();
  check Alcotest.bool "success resets to healthy" true
    (Health.state h = Health.Healthy && Health.routable h ~now)

let test_health_backpressure () =
  let h = Health.create ~name:"b" (Protocol.Unix_socket "/tmp/b") in
  let now = 1000.0 in
  Health.note_backpressure h ~now ~retry_after_s:2.0;
  check Alcotest.bool "backpressured is not routable" true
    ((not (Health.routable h ~now)) && Health.routable h ~now:(now +. 2.1));
  check Alcotest.bool "backpressure is not a failure" true (Health.state h = Health.Healthy)

let test_health_drain () =
  let h = Health.create ~name:"b" (Protocol.Unix_socket "/tmp/b") in
  let now = 1000.0 in
  Health.note_success h ~now ~in_flight:1 ();
  Health.begin_request h;
  Health.mark_draining h;
  check Alcotest.bool "draining takes no assignments" true
    ((not (Health.assignable h)) && Health.health_name h = "draining");
  check Alcotest.bool "not drained while requests are outstanding" false
    (Health.observe_drained h);
  Health.end_request h;
  check Alcotest.bool "not drained while the backend queue is non-empty" false
    (Health.observe_drained h);
  Health.note_success h ~now ~in_flight:0 ();
  check Alcotest.bool "drained once idle everywhere" true (Health.observe_drained h);
  check Alcotest.string "terminal state" "drained" (Health.health_name h);
  check Alcotest.bool "drained backends are not probed" false (Health.probe_due h ~now)

(* ------------------------------------------------------------------ *)
(* Router end to end                                                    *)

let libraries = Job.Library_cache.create ()

let fresh_socket () =
  let file = Filename.temp_file "standbyd-cluster" ".sock" in
  Sys.remove file;
  file

type backend = {
  server : Server.t;
  thread : Thread.t;
  address : Protocol.address;
  store : Result_store.t option;
}

let start_backend ?store () =
  let address = Protocol.Unix_socket (fresh_socket ()) in
  let config =
    { (Server.default_config address) with Server.workers = Some 2; store }
  in
  match Server.create ~libraries config with
  | Error msg -> Alcotest.failf "backend create: %s" msg
  | Ok server -> { server; thread = Thread.create Server.run server; address; store }

let stop_backend b =
  Server.request_drain b.server;
  Thread.join b.thread

type cluster = { router : Router.t; thread : Thread.t; front : Protocol.address }

let start_router ?(probe_interval_s = 0.1) backends =
  let front = Protocol.Unix_socket (fresh_socket ()) in
  let config =
    {
      (Router.default_config ~listen:front ~backends:(List.map (fun b -> b.address) backends)) with
      Router.probe_interval_s;
      connect_timeout_s = 2.0;
    }
  in
  match Router.create config with
  | Error msg -> Alcotest.failf "router create: %s" msg
  | Ok router -> { router; thread = Thread.create Router.run router; front }

let stop_router c =
  Router.request_drain c.router;
  Thread.join c.thread

let with_cluster ?probe_interval_s ?stores n f =
  let backends =
    List.init n (fun i ->
        match stores with
        | Some stores -> start_backend ~store:(List.nth stores i) ()
        | None -> start_backend ())
  in
  let cluster = start_router ?probe_interval_s backends in
  Fun.protect
    ~finally:(fun () ->
      stop_router cluster;
      List.iter (fun b -> try stop_backend b with _ -> ()) backends)
    (fun () -> f cluster backends)

let connect address =
  match Client.connect address with
  | Ok c -> c
  | Error e -> Alcotest.failf "connect: %s" (Client.error_message e)

let with_conn address f =
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let optimize ?(id = "job") ?(circuit = "c432") ?(penalty = 0.05) () =
  Protocol.Optimize
    {
      Protocol.id;
      source = Protocol.Circuit circuit;
      mode = Version.default_mode;
      method_ = Optimizer.Heuristic_1;
      penalty;
      deadline_s = None;
      progress = false;
    }

let expect_result = function
  | Protocol.Result p -> p
  | r ->
    Alcotest.failf "expected a result, got %s"
      (Standby_telemetry.Json.to_string (Protocol.response_to_json r))

let expect_status = function
  | Protocol.Status_reply s -> s
  | r ->
    Alcotest.failf "expected a status reply, got %s"
      (Standby_telemetry.Json.to_string (Protocol.response_to_json r))

let offline ~circuit ~penalty =
  let lib =
    Job.Library_cache.get libraries ~mode:Version.default_mode ~process:Process.default
  in
  Optimizer.run lib (Benchmarks.circuit circuit) ~penalty Optimizer.Heuristic_1

let check_offline name (p : Protocol.result_payload) ~circuit ~penalty =
  let o = offline ~circuit ~penalty in
  check (Alcotest.float 0.0) (name ^ ": leakage bit-identical")
    o.Optimizer.breakdown.Evaluate.total p.Protocol.leakage_a;
  check Alcotest.string (name ^ ": assignment bit-identical")
    (Assignment.to_string o.Optimizer.assignment)
    p.Protocol.assignment

let digest ~circuit ~penalty =
  Cache_key.digest
    ~net:(Benchmarks.circuit circuit)
    ~process:Process.default ~mode:Version.default_mode ~penalty
    ~method_:Optimizer.Heuristic_1

let test_routed_matches_direct_and_offline () =
  with_cluster 2 (fun cluster backends ->
      let routed =
        with_conn cluster.front (fun c ->
            expect_result (cok (Client.rpc c (optimize ~id:"via-router" ()))))
      in
      check_offline "routed" routed ~circuit:"c432" ~penalty:0.05;
      (* The same request straight at a backend gives the same bytes —
         the router adds routing, never changes answers. *)
      let direct =
        with_conn (List.hd backends).address (fun c ->
            expect_result (cok (Client.rpc c (optimize ~id:"direct" ()))))
      in
      check (Alcotest.float 0.0) "routed = direct leakage" direct.Protocol.leakage_a
        routed.Protocol.leakage_a;
      check Alcotest.string "routed = direct assignment" direct.Protocol.assignment
        routed.Protocol.assignment)

let test_router_status () =
  with_cluster 2 (fun cluster _ ->
      let s = with_conn cluster.front (fun c -> expect_status (cok (Client.rpc c Protocol.Status))) in
      check Alcotest.int "router reports both backends" 2 (List.length s.Protocol.backends);
      check Alcotest.int "unbounded router admission reads as 0" 0 s.Protocol.capacity;
      check Alcotest.int "no routes in flight" 0 s.Protocol.queue_depth)

let test_failover_past_dead_owner () =
  with_cluster 2 (fun cluster backends ->
      let key = digest ~circuit:"c432" ~penalty:0.05 in
      (* The same ring the router built tells us which backend owns the
         digest — kill exactly that one, so the walk MUST fail over. *)
      let names = List.map (fun b -> Protocol.address_to_string b.address) backends in
      let owner = Option.get (Ring.lookup (Ring.create names) ~key) in
      let victim =
        List.find (fun b -> Protocol.address_to_string b.address = owner) backends
      in
      stop_backend victim;
      let p =
        with_conn cluster.front (fun c ->
            expect_result (cok (Client.rpc c (optimize ~id:"fail-over" ()))))
      in
      check_offline "failed-over result" p ~circuit:"c432" ~penalty:0.05)

(* Tracing on changes no answer: a routed optimize carrying a trace
   context (and streaming progress) must still be bit-identical to the
   offline engine and to a direct backend run.  Also exercises the
   router's live Progress forwarding — the pushes arrive through the
   front socket before the terminal frame. *)
let test_routed_traced_bit_identity () =
  with_cluster 2 (fun cluster backends ->
      let ctx =
        {
          Telemetry.trace_id = Telemetry.mint_trace_id ();
          parent = Some { Telemetry.pid = Unix.getpid (); span = 1 };
        }
      in
      let request =
        Protocol.Optimize
          {
            Protocol.id = "traced";
            source = Protocol.Circuit "c432";
            mode = Version.default_mode;
            method_ = Optimizer.Heuristic_1;
            penalty = 0.05;
            deadline_s = None;
            progress = true;
          }
      in
      let pushes, terminal =
        with_conn cluster.front (fun c ->
            cok (Client.send ~trace:ctx c request);
            let rec drain acc =
              match cok (Client.recv c) with
              | Protocol.Progress p -> drain (p :: acc)
              | r -> (List.rev acc, r)
            in
            drain [])
      in
      let routed = expect_result terminal in
      check Alcotest.bool "router forwards progress pushes" true (pushes <> []);
      List.iter
        (fun (p : Protocol.progress_payload) ->
          check Alcotest.string "push id" "traced" p.Protocol.progress_id)
        pushes;
      check_offline "traced routed result" routed ~circuit:"c432" ~penalty:0.05;
      let direct =
        with_conn (List.hd backends).address (fun c ->
            expect_result (cok (Client.rpc ~trace:ctx c (optimize ~id:"traced-direct" ()))))
      in
      check (Alcotest.float 0.0) "traced routed = direct leakage"
        direct.Protocol.leakage_a routed.Protocol.leakage_a;
      check Alcotest.string "traced routed = direct assignment"
        direct.Protocol.assignment routed.Protocol.assignment)

(* The router's stats verb sums per-backend scrapes.  Both in-process
   backends feed the same global registry, so the aggregate must read
   exactly direct(A) + direct(B) on counters no scrape can move. *)
let test_routed_stats_aggregation () =
  with_cluster 2 (fun cluster backends ->
      let _ =
        with_conn cluster.front (fun c ->
            expect_result (cok (Client.rpc c (optimize ~id:"stats-warm" ()))))
      in
      let scrape address what =
        with_conn address (fun c ->
            match cok (Client.rpc c Protocol.Stats) with
            | Protocol.Stats_reply snap -> snap
            | r ->
              Alcotest.failf "%s: expected stats, got %s" what
                (Standby_telemetry.Json.to_string (Protocol.response_to_json r)))
      in
      let direct = List.map (fun (b : backend) -> scrape b.address "backend stats") backends in
      let fleet = scrape cluster.front "router stats" in
      let expected = Metrics.merge_snapshots direct in
      (* Only counters a scrape itself cannot move are comparable — the
         router's own scrapes bump server.connections between reads. *)
      List.iter
        (fun name ->
          let v snap = Option.value (Metrics.find_counter snap name) ~default:0 in
          check Alcotest.int
            (Printf.sprintf "aggregate %s = sum of direct scrapes" name)
            (v expected) (v fleet))
        [ "server.accepted"; "engine.jobs_computed"; "engine.jobs_cached" ];
      check Alcotest.bool "aggregate counts the routed job" true
        (Option.value (Metrics.find_counter fleet "server.accepted") ~default:0 >= 1);
      (match Metrics.find_histogram fleet "engine.job_wall_s" with
       | Some h -> check Alcotest.bool "aggregate wall histogram" true (h.Metrics.count >= 1)
       | None -> Alcotest.fail "engine.job_wall_s missing from the aggregate"))

let test_no_backends_is_an_error () =
  with_cluster 1 (fun cluster backends ->
      List.iter stop_backend backends;
      with_conn cluster.front (fun c ->
          match cok (Client.rpc c (optimize ~id:"doomed" ())) with
          | Protocol.Error_response { id; message } ->
            check Alcotest.bool "error echoes the request id" true (id = Some "doomed");
            check Alcotest.bool "error names the fleet" true
              (String.length message > 0)
          | r ->
            Alcotest.failf "expected an error, got %s"
              (Standby_telemetry.Json.to_string (Protocol.response_to_json r))))

let with_store f =
  let dir = Filename.temp_file "cluster-store" "" in
  Sys.remove dir;
  let store = Result_store.create ~dir () in
  Fun.protect
    ~finally:(fun () ->
      ignore (Result_store.clear store);
      try Unix.rmdir dir with _ -> ())
    (fun () -> f store)

let counter name =
  (* Read a counter back out of the process-global registry by its
     Prometheus name. *)
  let body = Metrics.to_prometheus Metrics.default in
  let value = ref 0.0 in
  String.split_on_char '\n' body
  |> List.iter (fun line ->
         match String.index_opt line ' ' with
         | Some i when String.sub line 0 i = name ->
           (match float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1)) with
            | Some v -> value := v
            | None -> ())
         | _ -> ());
  !value

let test_shared_cache_tier () =
  with_store (fun store_a ->
      with_store (fun store_b ->
          let a = start_backend ~store:store_a () in
          let b = start_backend ~store:store_b () in
          Fun.protect
            ~finally:(fun () ->
              (try stop_backend a with _ -> ());
              try stop_backend b with _ -> ())
            (fun () ->
              (* Read-through: only B knows about a peer, so B's answer
                 can only have come over the wire from A's store. *)
              Cache_tier.attach ~store:store_b ~peers:[ a.address ] ();
              let computed =
                with_conn a.address (fun c ->
                    expect_result (cok (Client.rpc c (optimize ~id:"on-a" ()))))
              in
              check Alcotest.string "first run computes" "computed"
                computed.Protocol.status;
              let remote_hits_before = counter "cache_remote_hits" in
              let cached =
                with_conn b.address (fun c ->
                    expect_result (cok (Client.rpc c (optimize ~id:"on-b" ()))))
              in
              (* B never computed this job: its answer came through the
                 shared tier, and must be byte-for-byte A's answer. *)
              check Alcotest.string "second backend serves from the tier" "cached"
                cached.Protocol.status;
              check (Alcotest.float 0.0) "tier hit is bit-identical"
                computed.Protocol.leakage_a cached.Protocol.leakage_a;
              check Alcotest.string "assignment is bit-identical"
                computed.Protocol.assignment cached.Protocol.assignment;
              check Alcotest.bool "the remote hit was counted" true
                (counter "cache_remote_hits" >= remote_hits_before +. 1.0);
              (* Write-back: give A a peer too, compute a fresh key on A,
                 and watch it appear in B's store via the async publish. *)
              Cache_tier.attach ~store:store_a ~peers:[ b.address ] ();
              let fresh =
                with_conn a.address (fun c ->
                    expect_result
                      (cok (Client.rpc c (optimize ~id:"on-a-2" ~penalty:0.11 ()))))
              in
              check Alcotest.string "fresh key computes" "computed" fresh.Protocol.status;
              let deadline = Unix.gettimeofday () +. 5.0 in
              let rec wait_published () =
                let found =
                  with_conn b.address (fun c ->
                      match cok (Client.rpc c (Protocol.Cache_get { key = fresh.Protocol.key })) with
                      | Protocol.Cache_found _ -> true
                      | _ -> false)
                in
                if found then ()
                else if Unix.gettimeofday () > deadline then
                  Alcotest.fail "publish never reached the peer store"
                else begin
                  Thread.delay 0.05;
                  wait_published ()
                end
              in
              wait_published ())))

let test_admin_drain_backend () =
  with_cluster ~probe_interval_s:0.05 2 (fun cluster backends ->
      let victim = List.hd backends in
      let victim_name = Protocol.address_to_string victim.address in
      (* Drain one backend through the router's wire interface. *)
      with_conn cluster.front (fun c ->
          let s =
            expect_status
              (cok (Client.rpc c (Protocol.Drain { backend = Some victim_name })))
          in
          let view =
            List.find
              (fun (b : Protocol.backend_status) -> b.Protocol.backend = victim_name)
              s.Protocol.backends
          in
          check Alcotest.bool "victim reported draining or drained" true
            (view.Protocol.health = "draining" || view.Protocol.health = "drained"));
      (* Give the prober a beat to observe the empty queue and retire it. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec wait_drained () =
        let s =
          with_conn cluster.front (fun c -> expect_status (cok (Client.rpc c Protocol.Status)))
        in
        let view =
          List.find
            (fun (b : Protocol.backend_status) -> b.Protocol.backend = victim_name)
            s.Protocol.backends
        in
        if view.Protocol.health = "drained" then ()
        else if Unix.gettimeofday () > deadline then
          Alcotest.failf "backend stuck in %s" view.Protocol.health
        else begin
          Thread.delay 0.05;
          wait_drained ()
        end
      in
      wait_drained ();
      (* Every request — even one whose digest the victim owns — must now
         land on the survivor and still answer correctly. *)
      List.iter
        (fun penalty ->
          let p =
            with_conn cluster.front (fun c ->
                expect_result
                  (cok (Client.rpc c (optimize ~id:"post-drain" ~circuit:"c432" ~penalty ()))))
          in
          check_offline "post-drain" p ~circuit:"c432" ~penalty)
        [ 0.02; 0.05; 0.1 ];
      (* An unknown backend name is refused. *)
      with_conn cluster.front (fun c ->
          match cok (Client.rpc c (Protocol.Drain { backend = Some "unix:/nope" })) with
          | Protocol.Error_response { message; _ } ->
            check Alcotest.bool "unknown backend named in the error" true
              (String.length message > 0)
          | r ->
            Alcotest.failf "expected an error, got %s"
              (Standby_telemetry.Json.to_string (Protocol.response_to_json r))))

let test_router_drain_rejects_new_work () =
  with_cluster 1 (fun cluster _ ->
      (* Connect before the drain: an idle router tears its listener down
         immediately, so the draining admission path is only observable
         from a connection that was already open. *)
      let c = connect cluster.front in
      Fun.protect
        ~finally:(fun () -> try Client.close c with _ -> ())
        (fun () ->
          Router.request_drain cluster.router;
          match Client.rpc c (optimize ~id:"late" ()) with
          | Ok (Protocol.Rejected { id; _ }) ->
            check Alcotest.string "late request bounced" "late" id
          | Ok r ->
            Alcotest.failf "expected a rejection, got %s"
              (Standby_telemetry.Json.to_string (Protocol.response_to_json r))
          | Error (Client.Unavailable _) ->
            (* Or the drain already closed the connection under us —
               equally a refusal of new work. *)
            ()
          | Error e -> Alcotest.failf "unexpected error: %s" (Client.error_message e)))

(* A stand-in backend: it refuses status probes at once, so the router's
   prober never holds up a drain, and keeps every other request open,
   unanswered, until [release]. *)
type holder = {
  hold_path : string;
  hold_listen : Unix.file_descr;
  held : Unix.file_descr list ref;
  hold_mutex : Mutex.t;
  hold_stop : bool Atomic.t;
  hold_thread : Thread.t;
}

let start_holder () =
  let hold_path = fresh_socket () in
  let hold_listen = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind hold_listen (Unix.ADDR_UNIX hold_path);
  Unix.listen hold_listen 16;
  let held = ref [] and hold_mutex = Mutex.create () and hold_stop = Atomic.make false in
  let serve fd =
    let request =
      Result.bind
        (Result.map_error (fun _ -> "") (Protocol.Frame.read (Protocol.Frame.reader fd)))
        (fun line -> Result.bind (Standby_telemetry.Json.of_string line) Protocol.request_of_json)
    in
    match request with
    | Ok Protocol.Status | Error _ -> Unix.close fd
    | Ok _ -> Mutex.protect hold_mutex (fun () -> held := fd :: !held)
  in
  let accept_loop () =
    while not (Atomic.get hold_stop) do
      match Unix.select [ hold_listen ] [] [] 0.05 with
      | [ _ ], _, _ -> serve (fst (Unix.accept hold_listen))
      | _ -> ()
    done
  in
  {
    hold_path;
    hold_listen;
    held;
    hold_mutex;
    hold_stop;
    hold_thread = Thread.create accept_loop ();
  }

let held_count h = Mutex.protect h.hold_mutex (fun () -> List.length !(h.held))

let release h =
  Mutex.protect h.hold_mutex (fun () ->
      List.iter Unix.close !(h.held);
      h.held := [])

let stop_holder h =
  release h;
  Atomic.set h.hold_stop true;
  Thread.join h.hold_thread;
  Unix.close h.hold_listen;
  Sys.remove h.hold_path

(* A drain hangs up on every client connection but leaves closing the
   descriptor to the connection's reader thread.  Here that reader is
   busy proxying a cache read when the drain sweeps, and sockets opened
   right after the drain take the lowest free descriptor numbers: had
   the sweep closed the reader's descriptor, one of them would reuse its
   number and the reader, back in its read loop, would swallow that
   socket's bytes — how a routed reply once went missing. *)
let test_router_drain_busy_reader () =
  let h = start_holder () in
  Fun.protect
    ~finally:(fun () -> stop_holder h)
    (fun () ->
      let front = Protocol.Unix_socket (fresh_socket ()) in
      let config =
        {
          (Router.default_config ~listen:front
             ~backends:[ Protocol.Unix_socket h.hold_path ])
          with
          Router.probe_interval_s = 0.1;
        }
      in
      let router =
        match Router.create config with
        | Ok r -> r
        | Error msg -> Alcotest.failf "router create: %s" msg
      in
      let thread = Thread.create Router.run router in
      let c = connect front in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          cok (Client.send c (Protocol.Cache_get { key = "busy" }));
          let deadline = Unix.gettimeofday () +. 5.0 in
          while held_count h = 0 && Unix.gettimeofday () < deadline do
            Thread.delay 0.01
          done;
          check Alcotest.int "the cache read reached the backend" 1 (held_count h);
          Router.request_drain router;
          Thread.join thread;
          let pairs = List.init 8 (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
          Fun.protect
            ~finally:(fun () ->
              List.iter
                (fun (a, b) ->
                  Unix.close a;
                  Unix.close b)
                pairs)
            (fun () ->
              List.iter
                (fun (a, b) ->
                  ignore (Unix.write_substring a "ping\n" 0 5);
                  ignore (Unix.write_substring b "ping\n" 0 5))
                pairs;
              (* Let the busy reader finish its request and read again. *)
              release h;
              Thread.delay 0.5;
              let intact fd =
                match Unix.select [ fd ] [] [] 1.0 with
                | [ _ ], _, _ -> Unix.read fd (Bytes.create 16) 0 16 = 5
                | _ -> false
              in
              let robbed =
                List.filter (fun (a, b) -> not (intact a && intact b)) pairs
              in
              check Alcotest.int "sockets whose bytes a drained reader took" 0
                (List.length robbed))))

let () =
  Alcotest.run "standby.cluster"
    [
      ( "ring",
        [
          quick "deterministic ownership" test_ring_deterministic;
          quick "balance (max/min <= 2 over 1k digests)" test_ring_balance;
          quick "stability under removal" test_ring_stability;
          quick "replica order" test_ring_replicas;
        ] );
      ( "health",
        [
          quick "state machine" test_health_states;
          quick "backpressure" test_health_backpressure;
          quick "drain lifecycle" test_health_drain;
        ] );
      ( "router",
        [
          quick "routed = direct = offline" test_routed_matches_direct_and_offline;
          quick "fleet status" test_router_status;
          quick "failover past the dead owner" test_failover_past_dead_owner;
          quick "traced routed = direct = offline" test_routed_traced_bit_identity;
          quick "aggregated stats = sum of scrapes" test_routed_stats_aggregation;
          quick "no backends is a clean error" test_no_backends_is_an_error;
          quick "shared cache tier" test_shared_cache_tier;
          quick "administrative backend drain" test_admin_drain_backend;
          quick "router drain rejects new work" test_router_drain_rejects_new_work;
          quick "drain leaves a busy reader's socket alone" test_router_drain_busy_reader;
        ] );
    ]
