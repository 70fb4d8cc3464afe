(* The four benchmark workloads.

   Every workload follows the same shape: set up [setup_rounds] times
   (the median is [setup_s]), then run passes of its unit of work for
   the run's seconds.  Each pass repeats the same jobs, so a job's
   answer is checked against the oracle once, after the timed phase,
   and its repeats are compared with that first answer.  A traced run
   spends half its seconds untraced and half with the trace file on;
   the per-layer metrics come from the traced half and the ratio of the
   two halves is the tracing overhead.

   The harness calls only public functions of each layer and times the
   calls from outside, under its own spans: [bench.parse],
   [bench.reference], [bench.optimize], [bench.serialize] and
   [bench.rpc]. *)

module Process = Standby_device.Process
module Netlist = Standby_netlist.Netlist
module Bench_io = Standby_netlist.Bench_io
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Evaluate = Standby_power.Evaluate
module Assignment = Standby_power.Assignment
module Optimizer = Standby_opt.Optimizer
module Baselines = Standby_opt.Baselines
module Benchmarks = Standby_circuits.Benchmarks
module Random_logic = Standby_circuits.Random_logic
module Job = Standby_service.Job
module Manifest = Standby_service.Manifest
module Result_store = Standby_service.Result_store
module Protocol = Standby_server.Protocol
module Server = Standby_server.Server
module Client = Standby_server.Client
module Router = Standby_cluster.Router
module Prng = Standby_util.Prng
module Stats = Standby_util.Stats
module Timer = Standby_util.Timer
module Telemetry = Standby_telemetry.Telemetry
module Json = Standby_telemetry.Json

type settings = { seed : int; seconds : float; trace : bool; work_dir : string }

type report = {
  attempted : int;
  failures : string list;  (** One message per failed job. *)
  metrics : (string * string * float) list;  (** Name, unit, value. *)
}

(* ------------------------------------------------------------------ *)
(* Shared scaffolding                                                   *)

let setup_rounds = 5

(* Library characterization times of every setup, for
   [cells.library_build_s]. *)
let library_times = ref []

let timed_library build =
  let lib, s = Timer.time build in
  library_times := s :: !library_times;
  lib

(* Set up [setup_rounds] times, tearing down all but the last: the
   median keeps one slow page-in from setting [setup_s]. *)
let repeated_setup ~teardown setup =
  let rec go k times =
    let state, s = Timer.time (fun () -> setup k) in
    if k + 1 < setup_rounds then begin
      teardown state;
      go (k + 1) (s :: times)
    end
    else (state, s :: times)
  in
  go 0 []

(* Passes back to back for [seconds]: always one, then another only
   while the previous pass would still fit in the window. *)
let time_box ~seconds ~first pass =
  let start = Timer.now () in
  let rec go i walls =
    let (), wall = Timer.time (fun () -> pass i) in
    let walls = wall :: walls in
    if Timer.now () -. start +. wall <= seconds then go (i + 1) walls else List.rev walls
  in
  go first []

(* High-water resident set of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> nan
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb *. 1024.0 /. 1e6)
        | Some _ -> scan ()
      in
      scan ())

type phases = {
  peak_rss_mb : float;
      (** At the end of the first pass, so it does not grow with the
          number of passes a faster commit fits into the run. *)
  walls : float list;  (** Untraced pass times, passes [0 ..]. *)
  traced_walls : float list;  (** Traced pass times, numbered after them. *)
  layers : Layers.sample option;
}

(* [settle] runs after the traced passes and before the closing probe —
   where a workload joins its worker domains so their allocation is
   counted. *)
let measure ?(settle = ignore) s pass =
  let peak = ref nan in
  let pass i =
    pass i;
    if i = 0 then peak := peak_rss_mb ()
  in
  if not s.trace then
    let walls = time_box ~seconds:s.seconds ~first:0 pass in
    { peak_rss_mb = !peak; walls; traced_walls = []; layers = None }
  else begin
    let half = s.seconds /. 2.0 in
    let walls = time_box ~seconds:half ~first:0 pass in
    let trace = Filename.concat s.work_dir "trace.jsonl" in
    let before = Layers.probe () in
    Telemetry.set_trace_file trace;
    let traced_walls =
      Fun.protect ~finally:Telemetry.close_trace (fun () ->
          time_box ~seconds:half ~first:(List.length walls) pass)
    in
    let ended = Timer.now () in
    settle ();
    let after = { (Layers.probe ()) with Layers.at = ended } in
    { peak_rss_mb = !peak; walls; traced_walls; layers = Some (Layers.sample ~trace before after) }
  end

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let time_ms f =
  let _, s = Timer.time f in
  s *. 1000.0

(* The host's noise only ever slows a pass down, so the fastest of a
   run's passes is its steadiest reading. *)
let fastest = List.fold_left Float.min infinity

(* End-to-end metrics from an untraced run, or the per-layer catalogue
   from a traced one.  [jobs_ms] holds one latency per distinct job. *)
let report ~attempted ~failures ~setup_s ~phases ~jobs_ms ~reduction ~workers ~extras =
  let metrics =
    match phases.layers with
    | None ->
      [
        ("setup_s", "s", Quantile.median setup_s);
        ("wall_s", "s", fastest phases.walls);
        ("job_p50_ms", "ms", Quantile.percentile jobs_ms 0.5);
        ("job_p90_ms", "ms", Quantile.percentile jobs_ms 0.9);
        ("reduction_x", "x", reduction);
        ("peak_rss_mb", "MB", phases.peak_rss_mb);
      ]
    | Some sample ->
      let extras =
        ("cells.library_build_s", Quantile.median !library_times)
        :: ( "telemetry.trace_overhead",
             (fastest phases.traced_walls /. fastest phases.walls) -. 1.0 )
        :: extras
      in
      Layers.metrics ~passes:(List.length phases.traced_walls) ~workers ~extras sample
  in
  { attempted; failures = List.rev failures; metrics }

let protect f = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* iscas-sweep: the paper's own experiment                              *)

(* One pass is one round: a 10k-vector random-average reference per
   stand-in circuit, then every circuit x method x penalty job in a
   seeded order.  The answers repeat exactly from round to round, so
   the first round is checked against the oracle and later rounds
   against the first. *)
module Iscas = struct
  let methods = [ Optimizer.Heuristic_1; Optimizer.Greedy { time_budget_s = 300.0 } ]
  let penalties = [ 0.05; 0.10; 0.25 ]

  type job = { circuit : int; method_ : Optimizer.method_; penalty : float }
  type state = { lib : Library.t; nets : Netlist.t array; jobs : job array }

  let setup _ =
    let lib = timed_library (fun () -> Library.build Process.default) in
    let nets = Array.of_list (List.map Benchmarks.circuit Benchmarks.names) in
    let jobs =
      Array.of_list
        (List.concat_map
           (fun method_ ->
             List.concat_map
               (fun penalty ->
                 List.init (Array.length nets) (fun circuit -> { circuit; method_; penalty }))
               penalties)
           methods)
    in
    { lib; nets; jobs }

  let run s =
    let st, setup_s = repeated_setup ~teardown:ignore setup in
    (* Round 0's answers and references are kept for the oracle; later
       rounds are compared with them as they finish, so what a run holds
       does not grow with its number of rounds. *)
    let first = Array.make (Array.length st.jobs) None in
    let references = Array.make (Array.length st.nets) nan in
    let failures = ref [] and jobs_ms = ref [] and attempted = ref 0 in
    let fail j round msg =
      let job = st.jobs.(j) in
      failures :=
        Printf.sprintf "%s %s p=%.2f round %d: %s"
          (Netlist.design_name st.nets.(job.circuit))
          (Optimizer.method_name job.method_) job.penalty round msg
        :: !failures
    in
    let pass round =
      Array.iteri
        (fun c net ->
          let b =
            Telemetry.span "bench.reference" (fun () ->
                Baselines.random_average ~seed:(s.seed + round) st.lib net)
          in
          if round = 0 then references.(c) <- b.Evaluate.total)
        st.nets;
      let order = Array.init (Array.length st.jobs) Fun.id in
      Prng.shuffle (Prng.create ~seed:((s.seed * 7919) + round)) order;
      Array.iter
        (fun j ->
          let job = st.jobs.(j) in
          incr attempted;
          let outcome, sec =
            Timer.time (fun () ->
                protect (fun () ->
                    Telemetry.span "bench.optimize" (fun () ->
                        Optimizer.run st.lib st.nets.(job.circuit) ~penalty:job.penalty
                          job.method_)))
          in
          jobs_ms := (round, j, sec *. 1000.0) :: !jobs_ms;
          match (outcome, first.(j)) with
          | Error msg, _ -> fail j round msg
          | Ok r, None -> first.(j) <- Some r
          | Ok r, Some r0 -> Option.iter (fail j round) (Oracle.same_result r0 r))
        order
    in
    let phases = measure s pass in
    let ratios =
      List.concat
        (Array.to_list
           (Array.mapi
              (fun j r ->
                match r with
                | None -> []
                | Some r ->
                  let job = st.jobs.(j) in
                  Option.iter (fail j 0)
                    (Oracle.check_result st.lib st.nets.(job.circuit) ~penalty:job.penalty r);
                  [ references.(job.circuit) /. r.Optimizer.breakdown.Evaluate.total ])
              first))
    in
    let untraced = List.length phases.walls in
    report ~attempted:!attempted ~failures:!failures ~setup_s ~phases
      ~jobs_ms:
        (Array.to_list
           (Array.init (Array.length st.jobs) (fun j ->
                fastest
                  (List.filter_map
                     (fun (round, j', ms) -> if j = j' && round < untraced then Some ms else None)
                     !jobs_ms))))
      ~reduction:(if ratios = [] then nan else Stats.geometric_mean (Array.of_list ratios))
      ~workers:1 ~extras:[]
end

(* ------------------------------------------------------------------ *)
(* greedy-20k / partition-20k: one large generated netlist              *)

(* One pass is the whole offline flow a user runs on one netlist: parse
   the .bench text, take the random-average reference, optimize to
   quiescence, serialize the assignment.  20k gates already shows the
   superlinear greedy scaling, and keeps a pass short enough that a run
   holds several — the fastest of them is the run's reading.

   The netlist is the same for every seed: across generator seeds the
   partition answer alone ranges from 5.4x to 10.1x reduction and its
   time by 1.5x, more than any bound could absorb.  The run's seed
   picks the reference vectors. *)
module Large = struct
  let gates = 20_000
  let netlist_seed = 11
  let penalty = 0.05

  (* Far above time-to-quiescence: every run ends on its own stopping
     rule, so answers are deterministic. *)
  let budget_s = 300.0

  type state = { lib : Library.t; name : string; text : string }

  let setup _ =
    let lib = timed_library (fun () -> Library.build Process.default) in
    let net =
      Random_logic.generate ~window:(gates / 20) ~seed:netlist_seed ~inputs:(gates / 100) ~gates ()
    in
    { lib; name = Netlist.design_name net; text = Bench_io.to_string net }

  (* The first pass is kept for the oracle; later passes are compared
     with it as they finish. *)
  type first = { reference : float; result : Optimizer.result; serialized : string }

  let run ~partition s =
    let st, setup_s = repeated_setup ~teardown:ignore setup in
    let jobs = if partition then min 2 (Domain.recommended_domain_count ()) else 1 in
    let method_ =
      if partition then Optimizer.Partition { time_budget_s = budget_s; regions = 0 }
      else Optimizer.Greedy { time_budget_s = budget_s }
    in
    let first = ref None and failures = ref [] and attempted = ref 0 in
    let jobs_ms = ref [] and parse_words = ref [] in
    let fail index msg = failures := Printf.sprintf "pass %d: %s" index msg :: !failures in
    let pass index =
      incr attempted;
      let words = Gc.minor_words () in
      match Telemetry.span "bench.parse" (fun () -> Bench_io.of_string ~name:st.name st.text) with
      | Error msg -> fail index ("parse: " ^ msg)
      | Ok net -> (
        parse_words := (index, Gc.minor_words () -. words) :: !parse_words;
        let reference =
          Telemetry.span "bench.reference" (fun () ->
              Baselines.random_average ~seed:s.seed st.lib net)
        in
        match
          Timer.time (fun () ->
              protect (fun () ->
                  Telemetry.span "bench.optimize" (fun () ->
                      Optimizer.run ~jobs st.lib net ~penalty method_)))
        with
        | Error msg, _ -> fail index msg
        | Ok result, sec -> (
          jobs_ms := (index, sec *. 1000.0) :: !jobs_ms;
          let serialized =
            Telemetry.span "bench.serialize" (fun () ->
                Assignment.to_string result.Optimizer.assignment)
          in
          match !first with
          | None -> first := Some { reference = reference.Evaluate.total; result; serialized }
          | Some f -> Option.iter (fail index) (Oracle.same_result f.result result)))
    in
    let phases = measure s pass in
    Option.iter
      (fun f ->
        let net = Result.get_ok (Bench_io.of_string ~name:st.name st.text) in
        Option.iter (fail 0) (Oracle.check_result st.lib net ~penalty f.result);
        (match Assignment.of_string st.lib net f.serialized with
         | Ok a when String.equal (Assignment.to_string a) f.serialized -> ()
         | Ok _ -> fail 0 "serialized assignment does not round-trip"
         | Error msg -> fail 0 ("serialized assignment does not parse: " ^ msg));
        (* Worker-count independence: the answer at the other jobs value
           must be bit-identical.  Traced runs only — it costs a pass. *)
        if partition && s.trace then begin
          incr attempted;
          let other = if jobs > 1 then 1 else 2 in
          match protect (fun () -> Optimizer.run ~jobs:other st.lib net ~penalty method_) with
          | Error msg -> fail (-1) (Printf.sprintf "jobs=%d: %s" other msg)
          | Ok r ->
            Option.iter
              (fun msg -> fail (-1) (Printf.sprintf "jobs=%d vs jobs=%d: %s" other jobs msg))
              (Oracle.same_result f.result r)
        end)
      !first;
    let untraced = List.length phases.walls in
    let split phase = List.filter_map (fun (i, v) -> if phase i then Some v else None) in
    report ~attempted:!attempted ~failures:!failures ~setup_s ~phases
      ~jobs_ms:[ fastest (split (fun i -> i < untraced) !jobs_ms) ]
      ~reduction:
        (match !first with
         | Some f -> f.reference /. f.result.Optimizer.breakdown.Evaluate.total
         | None -> nan)
      ~workers:jobs
      ~extras:
        [ ("netlist.parse_alloc_mw", mean (split (fun i -> i >= untraced) !parse_words) /. 1e6) ]
end

(* ------------------------------------------------------------------ *)
(* served-mix: a closed loop through the router to the daemon           *)

(* One client sends Heuristic-1 requests carrying the stand-ins as
   inline .bench text, one at a time (closed loop: [Client.rpc] blocks).
   One pass is five requests per circuit in a seeded order: three use
   the fixed penalties — 33 distinct keys, all computed once before the
   timed phase, so in the stream they are cache reads — and two use a
   penalty never seen before, so they compute and write back.  Every
   pass therefore has the same 60/40 mix over the same circuits; the
   seed only orders it and picks the fresh penalties. *)
module Served = struct
  let fixed_penalties = [| 0.05; 0.10; 0.25 |]

  (* Each fresh penalty lies within 0.0025 of its centre, so a request
     class costs about the same in every pass, and a golden-ratio walk
     over the request index makes each one distinct, hence a miss. *)
  let fresh_centres = [| 0.075; 0.175 |]

  let fresh_penalty ~seed ~stratum index =
    let offset = float_of_int (abs seed) *. 0.1234567 in
    let x = Float.rem ((float_of_int (index + 1) *. 0.6180339887498949) +. offset) 1.0 in
    fresh_centres.(stratum) +. (0.005 *. (x -. 0.5))

  type request = {
    index : int;
    circuit : int;
    slot : int;  (** Position in the circuit's share of a pass: its job class. *)
    penalty : float;
    key : int option;  (** [circuit * 3 + slot] for a fixed penalty. *)
  }

  let nfixed = Array.length fixed_penalties
  let per_circuit = nfixed + Array.length fresh_centres

  let fixed key =
    {
      index = -1 - key;
      circuit = key / nfixed;
      slot = key mod nfixed;
      penalty = fixed_penalties.(key mod nfixed);
      key = Some key;
    }

  let block ~seed ~circuits k =
    let slots = Array.init (circuits * per_circuit) (fun i -> (i / per_circuit, i mod per_circuit)) in
    Prng.shuffle (Prng.create ~seed:((seed * 1_000_003) + k)) slots;
    Array.mapi
      (fun j (circuit, slot) ->
        let index = (k * Array.length slots) + j in
        if slot < nfixed then { (fixed ((circuit * nfixed) + slot)) with index }
        else
          {
            index;
            circuit;
            slot;
            penalty = fresh_penalty ~seed ~stratum:(slot - nfixed) index;
            key = None;
          })
      slots

  type state = {
    lib : Library.t;
    texts : (string * string) array;
    store : Result_store.t;
    server : Server.t;
    server_thread : Thread.t;
    router : Router.t;
    router_thread : Thread.t;
    client : Client.t;
    mutable running : bool;
  }

  let message st (r : request) =
    let name, text = st.texts.(r.circuit) in
    Protocol.Optimize
      {
        Protocol.id = string_of_int r.index;
        source = Protocol.Bench { name; text };
        mode = Version.default_mode;
        method_ = Optimizer.Heuristic_1;
        penalty = r.penalty;
        deadline_s = None;
        progress = false;
      }

  (* The client span carries a fresh trace context, so the router's
     [cluster.route] and the daemon's [server.request] nest under it. *)
  let rpc st msg =
    Telemetry.with_context { Telemetry.trace_id = Telemetry.mint_trace_id (); parent = None }
      (fun () ->
        Telemetry.span "bench.rpc" (fun () ->
            Client.rpc ?trace:(Telemetry.current_context ()) st.client msg))

  let get what = function Ok v -> v | Error msg -> failwith (what ^ ": " ^ msg)

  let setup s k =
    let libraries = Job.Library_cache.create () in
    let lib =
      timed_library (fun () ->
          Job.Library_cache.get libraries ~mode:Version.default_mode ~process:Process.default)
    in
    let texts =
      Array.of_list
        (List.map (fun name -> (name, Bench_io.to_string (Benchmarks.circuit name))) Benchmarks.names)
    in
    let dir = Filename.concat s.work_dir (Printf.sprintf "served-%d" k) in
    Sys.mkdir dir 0o755;
    let store = Result_store.create ~dir:(Filename.concat dir "store") () in
    let backend = Protocol.Unix_socket (Filename.concat dir "backend.sock") in
    let server =
      get "server"
        (Server.create ~libraries
           { (Server.default_config backend) with Server.workers = Some 1; store = Some store })
    in
    let server_thread = Thread.create Server.run server in
    let front = Protocol.Unix_socket (Filename.concat dir "router.sock") in
    let router = get "router" (Router.create (Router.default_config ~listen:front ~backends:[ backend ])) in
    let router_thread = Thread.create Router.run router in
    let client = get "connect" (Result.map_error Client.error_message (Client.connect front)) in
    let st =
      { lib; texts; store; server; server_thread; router; router_thread; client; running = true }
    in
    (* Penalty 0.5 is neither a fixed nor a fresh penalty. *)
    (match rpc st (message st { index = -1; circuit = 0; slot = 0; penalty = 0.5; key = None }) with
     | Ok (Protocol.Result _) -> ()
     | _ -> failwith "warm-up request failed");
    st

  let teardown st =
    if st.running then begin
      st.running <- false;
      Client.close st.client;
      Router.request_drain st.router;
      Thread.join st.router_thread;
      Server.request_drain st.server;
      Thread.join st.server_thread
    end

  type exchange = {
    req : request;
    pass : int;  (** [-1] for the cache fill before the timed phase. *)
    response : (Protocol.response, string) result;
    ms : float;
  }

  let exchange st ~pass req =
    let response, sec = Timer.time (fun () -> rpc st (message st req)) in
    { req; pass; response = Result.map_error Client.error_message response; ms = sec *. 1000.0 }

  let payload ex = match ex.response with Ok (Protocol.Result p) -> Some p | _ -> None

  (* Per-layer numbers only the client side can take: the hit/miss
     latency split over the whole run (both halves, so each split has
     enough samples past its p95), and the parse, digest, store and
     codec calls of this run's requests timed from outside. *)
  let layer_extras st ~nets ~untraced stream =
    let fixed_jobs =
      List.init (Array.length nets * nfixed) (fun key ->
          let r = fixed key in
          {
            Job.job =
              {
                Manifest.id = string_of_int key;
                source = Manifest.File (fst st.texts.(r.circuit));
                mode = Version.default_mode;
                method_ = Optimizer.Heuristic_1;
                penalty = r.penalty;
                deadline_s = None;
                process_file = None;
              };
            net = nets.(r.circuit);
            process = Process.default;
          })
    in
    let finds =
      List.map
        (fun j ->
          let key = Job.key j in
          time_ms (fun () -> Result_store.find st.store ~key))
        fixed_jobs
    in
    let traced = List.filter (fun ex -> ex.pass >= untraced) stream in
    let encodes =
      List.map
        (fun ex ->
          let msg = message st ex.req in
          time_ms (fun () -> Json.to_string (Protocol.request_to_json msg)))
        traced
    in
    let decodes =
      List.filter_map
        (fun ex ->
          Option.map
            (fun resp ->
              let line = Json.to_string (Protocol.response_to_json resp) in
              time_ms (fun () -> Result.bind (Json.of_string line) Protocol.response_of_json))
            (Result.to_option ex.response))
        traced
    in
    let latencies status =
      List.filter_map
        (fun ex ->
          match payload ex with
          | Some p when p.Protocol.status = status -> Some ex.ms
          | _ -> None)
        stream
    in
    let hits = latencies "cached" and misses = latencies "computed" in
    [
      ( "netlist.served_parse_ms",
        mean
          (Array.to_list
             (Array.map (fun (name, text) -> time_ms (fun () -> Bench_io.of_string ~name text)) st.texts))
      );
      ("service.digest_ms", mean (List.map (fun j -> time_ms (fun () -> Job.key j)) fixed_jobs));
      ("service.cache_find_ms", mean finds);
      ("protocol.request_encode_ms", mean encodes);
      ("protocol.response_decode_ms", mean decodes);
      ("served.hit_p50_ms", Quantile.percentile hits 0.5);
      ("served.hit_p95_ms", Quantile.percentile hits 0.95);
      ("served.hits", float_of_int (List.length hits));
      ("served.miss_p50_ms", Quantile.percentile misses 0.5);
      ("served.miss_p95_ms", Quantile.percentile misses 0.95);
      ("served.misses", float_of_int (List.length misses));
    ]

  let run s =
    let st, setup_s = repeated_setup ~teardown (setup s) in
    let circuits = Array.length st.texts in
    let order = Array.init (circuits * nfixed) Fun.id in
    Prng.shuffle (Prng.create ~seed:s.seed) order;
    let fill = Array.make (circuits * nfixed) None in
    let log = ref [] in
    (* A cache read repeats its fill answer; sharing the fill's string
       keeps what a run holds from growing with its number of passes. *)
    let share ex =
      match (ex.req.key, payload ex) with
      | Some key, Some p -> (
        match Option.bind fill.(key) payload with
        | Some f when String.equal p.Protocol.assignment f.Protocol.assignment ->
          { ex with response = Ok (Protocol.Result { p with Protocol.assignment = f.Protocol.assignment }) }
        | _ -> ex)
      | _ -> ex
    in
    let pass k =
      Array.iter (fun r -> log := share (exchange st ~pass:k r) :: !log) (block ~seed:s.seed ~circuits k)
    in
    let phases =
      Fun.protect ~finally:(fun () -> teardown st) (fun () ->
          Array.iter (fun key -> fill.(key) <- Some (exchange st ~pass:(-1) (fixed key))) order;
          measure ~settle:(fun () -> teardown st) s pass)
    in
    let fill = Array.map Option.get fill in
    let stream = List.rev !log in
    let untraced = List.length phases.walls in
    (* Oracle: offline answers on the same parsed texts, then every
       exchange — fixed keys bit-identical to offline, fresh ones
       re-checked from scratch. *)
    let nets = Array.map (fun (name, text) -> get "parse" (Bench_io.of_string ~name text)) st.texts in
    let failures = ref [] in
    let fail (r : request) msg =
      failures :=
        Printf.sprintf "request %d (%s p=%.4f): %s" r.index (fst st.texts.(r.circuit)) r.penalty msg
        :: !failures
    in
    let offline =
      Array.init (circuits * nfixed) (fun key ->
          let r = fixed key in
          let o = Optimizer.run st.lib nets.(r.circuit) ~penalty:r.penalty Optimizer.Heuristic_1 in
          Option.iter (fail r) (Oracle.check_result st.lib nets.(r.circuit) ~penalty:r.penalty o);
          (o.Optimizer.breakdown.Evaluate.total, Assignment.to_string o.Optimizer.assignment))
    in
    List.iter
      (fun ex ->
        let r = ex.req in
        let problem =
          match ex.response with
          | Error msg -> Some msg
          | Ok (Protocol.Result p) -> (
            let expected = if r.key <> None && ex.pass >= 0 then "cached" else "computed" in
            if p.Protocol.status <> expected then
              Some (Printf.sprintf "status %s, expected %s" p.Protocol.status expected)
            else
              match r.key with
              | Some key ->
                let total, assignment = offline.(key) in
                Oracle.same_answer ~total ~assignment ~total':p.Protocol.leakage_a
                  ~assignment':p.Protocol.assignment
              | None -> (
                match Assignment.of_string st.lib nets.(r.circuit) p.Protocol.assignment with
                | Error msg -> Some msg
                | Ok a ->
                  Oracle.check_answer st.lib nets.(r.circuit) ~penalty:r.penalty
                    ~budget:p.Protocol.budget ~total:p.Protocol.leakage_a a))
          | Ok other -> Some (Json.to_string (Protocol.response_to_json other))
        in
        Option.iter (fail r) problem)
      (Array.to_list fill @ stream);
    let references = Array.map (fun net -> (Baselines.random_average st.lib net).Evaluate.total) nets in
    let reduction =
      Stats.geometric_mean
        (Array.mapi (fun key (total, _) -> references.(key / nfixed) /. total) offline)
    in
    let extras = if s.trace then layer_extras st ~nets ~untraced stream else [] in
    (* A job class is one (circuit, slot) position of a pass; its best
       latency in the run is the class's reading. *)
    report
      ~attempted:(Array.length fill + List.length stream)
      ~failures:!failures ~setup_s ~phases
      ~jobs_ms:
        (List.init (circuits * per_circuit) (fun class_ ->
             fastest
               (List.filter_map
                  (fun ex ->
                    if ex.pass < untraced && (ex.req.circuit * per_circuit) + ex.req.slot = class_
                    then Some ex.ms
                    else None)
                  stream)))
      ~reduction ~workers:1 ~extras
end

let names = [ "iscas-sweep"; "greedy-20k"; "partition-20k"; "served-mix" ]

let run name s =
  match name with
  | "iscas-sweep" -> Iscas.run s
  | "greedy-20k" -> Large.run ~partition:false s
  | "partition-20k" -> Large.run ~partition:true s
  | "served-mix" -> Served.run s
  | other -> invalid_arg ("unknown workload " ^ other)
