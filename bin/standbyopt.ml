(* standbyopt — command-line driver for simultaneous state / Vt / Tox
   standby-leakage optimization.

   Subcommands:
     optimize   run a method on a benchmark or .bench netlist
     baseline   packed random-vector leakage baselines (63 vectors/word)
     batch      run a manifest of jobs on a domain pool with a result cache
     serve      long-running optimization daemon (standbyd)
     submit     send optimization requests to a running daemon
     route      cluster coordinator: digest-hash routing over standbyd backends
     drain      administratively drain a daemon, router or one backend
     top        live fleet dashboard over STATUS + aggregated stats
     report     regenerate the paper's tables and figures
     library    inspect the characterized cell library
     circuits   list the built-in benchmark suite
     export     write a benchmark netlist as .bench
     trace      inspect trace files written via --trace *)

open Cmdliner
module Process = Standby_device.Process
module Netlist = Standby_netlist.Netlist
module Bench_io = Standby_netlist.Bench_io
module Gate_kind = Standby_netlist.Gate_kind
module Version = Standby_cells.Version
module Library = Standby_cells.Library
module Evaluate = Standby_power.Evaluate
module Assignment = Standby_power.Assignment
module Optimizer = Standby_opt.Optimizer
module Baselines = Standby_opt.Baselines
module Search_stats = Standby_opt.Search_stats
module Benchmarks = Standby_circuits.Benchmarks
module Experiments = Standby_report.Experiments
module Analyze = Standby_report.Analyze
module Verilog_io = Standby_netlist.Verilog_io
module Liberty = Standby_cells.Liberty
module Timing_report = Standby_timing.Timing_report
module Sta = Standby_timing.Sta
module Process_config = Standby_device.Process_config
module Dot_export = Standby_report.Dot_export
module Manifest = Standby_service.Manifest
module Engine = Standby_service.Engine
module Job = Standby_service.Job
module Result_store = Standby_service.Result_store
module Log = Standby_telemetry.Log
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Trace = Standby_telemetry.Trace
module Trace_view = Standby_report.Trace_view
module Json = Standby_telemetry.Json
module Server = Standby_server.Server
module Client = Standby_server.Client
module Wire = Standby_server.Protocol
module Router = Standby_cluster.Router
module Cache_tier = Standby_cluster.Cache_tier

(* ------------------------------------------------------------------ *)
(* Telemetry flags — shared by the commands that run the optimizer      *)

let log_level_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (Log.level_of_string s)),
      fun fmt l -> Format.pp_print_string fmt (Log.level_name l) )

let log_level_arg =
  let doc = "Log threshold: error, warn, info or debug." in
  Arg.(value & opt (some log_level_conv) None & info [ "log-level" ] ~docv:"LEVEL" ~doc)

let trace_file_arg =
  let doc = "Write a JSONL trace of spans and events (see trace summarize)." in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics_file_arg =
  let doc = "Write the metrics registry on exit (JSON, or Prometheus text for .prom)." in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

type telemetry_opts = {
  level : Log.level option;
  trace : string option;
  metrics : string option;
}

let telemetry_term =
  let combine level trace metrics = { level; trace; metrics } in
  Term.(const combine $ log_level_arg $ trace_file_arg $ metrics_file_arg)

(* Call first thing in a command's run function, before any work that
   should be observed.  The metrics file is written at exit so it also
   captures counters from error paths.  [role] tags every span/event
   this process emits, so merged multi-process traces read
   client/router/server instead of bare pids. *)
let install_telemetry ?role ?(quiet = false) t =
  (match role with Some r -> Telemetry.set_role r | None -> ());
  (match t.level with
   | Some l -> Log.set_level l
   | None -> if quiet then Log.set_level Log.Warn);
  (match t.trace with
   | Some path ->
     Telemetry.set_trace_file path;
     at_exit Telemetry.close_trace
   | None -> ());
  match t.metrics with
  | None -> ()
  | Some path ->
    at_exit (fun () ->
        try Metrics.write_file Metrics.default path
        with Sys_error msg -> Printf.eprintf "error: cannot write metrics: %s\n" msg)

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)

let mode_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (Version.mode_of_token s)),
      fun fmt m -> Format.pp_print_string fmt (Version.mode_token m) )

let mode_arg =
  let doc =
    "Cell library mode: one of " ^ String.concat ", " (List.map fst Version.mode_tokens) ^ "."
  in
  Arg.(value & opt mode_conv Version.default_mode & info [ "library" ] ~docv:"MODE" ~doc)

let circuit_arg =
  let doc = "Built-in benchmark name (see the circuits subcommand)." in
  Arg.(value & opt (some string) None & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

let bench_file_arg =
  let doc = "Read the netlist from a file instead (.bench or gate-level .v)." in
  Arg.(value & opt (some file) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let simplify_arg =
  let doc = "Run the peephole cleanup pass (CSE, buffer removal, dead logic) first." in
  Arg.(value & flag & info [ "simplify" ] ~doc)

let maybe_simplify flag net =
  if not flag then net
  else begin
    let simplified, removed = Standby_netlist.Peephole.simplify_fixpoint net in
    Printf.printf "simplify       removed %d gates (%d -> %d)\n" removed
      (Netlist.gate_count net) (Netlist.gate_count simplified);
    simplified
  end

let load_netlist circuit file =
  match (circuit, file) with
  | Some _, Some _ -> Error "pass either --circuit or --file, not both"
  | None, None -> Error "pass --circuit NAME or --file FILE"
  | Some name, None -> Job.load_netlist (Manifest.Builtin name)
  | None, Some path -> Job.load_netlist (Manifest.File path)

let penalty_arg =
  let doc = "Delay penalty as a fraction of the all-fast/all-slow spread." in
  Arg.(value & opt float 0.05 & info [ "p"; "penalty" ] ~docv:"FRACTION" ~doc)

let process_file_arg =
  let doc = "Process-override file (key = value lines; see export-process)." in
  Arg.(value & opt (some file) None & info [ "process" ] ~docv:"FILE" ~doc)

let resolve_process = function
  | None -> Ok Process.default
  | Some path -> Process_config.load_file Process.default path

(* The netlist (cleaned up on --simplify) and the library an optimize
   or baseline run works on. *)
let load_design circuit file mode process_file simplify =
  Result.bind (resolve_process process_file) (fun process ->
      Result.map
        (fun net ->
          let net = maybe_simplify simplify net in
          (Library.build ~mode process, net))
        (load_netlist circuit file))

let print_design lib net =
  Printf.printf "circuit        %s (%d inputs, %d gates, depth %d)\n"
    (Netlist.design_name net) (Netlist.input_count net) (Netlist.gate_count net)
    (Netlist.depth net);
  Printf.printf "library        %s (%d cell versions)\n"
    (Version.mode_name (Library.mode lib))
    (Library.total_version_count lib)

(* ------------------------------------------------------------------ *)
(* optimize                                                             *)

let method_conv =
  Arg.conv
    ( (fun s ->
        Optimizer.method_of_token s Optimizer.default_params
        |> Result.map_error (fun m -> `Msg m)),
      fun fmt m -> Format.pp_print_string fmt (Optimizer.method_token m) )

let method_arg =
  let doc =
    "Optimization method: heu1, heu2, hc (heu1 + hill climbing), exact, greedy — the \
     anytime one-pass, sensitivity-ordered gate-tree step for very large circuits \
     (100k+ gates), bounded by --time-limit — or partition: FM min-cut decomposition \
     into regions optimized greedily --jobs at a time, then reconciled globally (see \
     --regions)."
  in
  Arg.(
    value & opt method_conv Optimizer.Heuristic_1
    & info [ "m"; "method" ] ~docv:"METHOD" ~doc)

let regions_arg =
  let doc =
    "Region count for the partition method; 0 sizes it automatically from the gate count."
  in
  Arg.(value & opt int 0 & info [ "regions" ] ~docv:"N" ~doc)

let time_limit_arg =
  let doc =
    "Time limit in seconds (the manifest's time-limit key): heu2's search budget, hc's \
     refinement limit, and the hard wall-clock budget of greedy and partition, which \
     return the best incumbent found so far when it expires."
  in
  Arg.(
    value
    & opt float Optimizer.default_params.Optimizer.time_limit_s
    & info [ "time-limit" ] ~docv:"SECONDS" ~doc)

(* -m names the method and --time-limit / --regions fill the parameters
   it takes.  The table validates the result, so every surface refuses
   the same values. *)
let method_term =
  let make named time_limit_s regions =
    Optimizer.method_of_token (Optimizer.method_token named)
      { Optimizer.default_params with time_limit_s; regions }
  in
  Term.(term_result' (const make $ method_arg $ time_limit_arg $ regions_arg))

let vectors_arg =
  let doc =
    "Random vectors for the average-leakage reference; 0 skips the baseline (recommended \
     on 100k+-gate circuits)."
  in
  Arg.(value & opt int 10_000 & info [ "vectors" ] ~docv:"N" ~doc)

let verbose_arg =
  let doc = "Also print the sleep vector and per-gate assignment summary." in
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc)

let timing_arg =
  let doc = "Also print the critical-path timing report of the solution." in
  Arg.(value & flag & info [ "timing" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains: parallel state-tree search for the tree-walking methods (heu2, \
     exact), concurrent region solves for partition.  1 disables parallelism; the result \
     is the same for any value."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let run_optimize telemetry circuit file mode method_ penalty jobs vectors verbose timing
    process_file simplify =
  install_telemetry ~role:"batch" telemetry;
  match load_design circuit file mode process_file simplify with
  | Error msg ->
    Log.err "%s" msg;
    1
  | Ok (lib, net) ->
    let avg =
      if vectors > 0 then Some (Baselines.random_average ~vectors ~jobs lib net) else None
    in
    let r = Optimizer.run ~jobs lib net ~penalty method_ in
    let b = r.Optimizer.breakdown in
    print_design lib net;
    Printf.printf "method         %s\n" r.Optimizer.method_name;
    Printf.printf "delay budget   %.2f (fast %.2f, all-slow %.2f, penalty %.0f%%)\n"
      r.Optimizer.budget r.Optimizer.delay_fast r.Optimizer.delay_slow (penalty *. 100.);
    Printf.printf "achieved delay %.2f\n" r.Optimizer.delay;
    (match avg with
     | Some avg ->
       Printf.printf "avg leakage    %.2f uA (over %d random vectors)\n"
         (avg.Evaluate.total *. 1e6) vectors
     | None -> ());
    Printf.printf "opt leakage    %.2f uA  (isub %.2f + igate %.2f)\n" (b.Evaluate.total *. 1e6)
      (b.Evaluate.isub *. 1e6) (b.Evaluate.igate *. 1e6);
    (match avg with
     | Some avg -> Printf.printf "reduction      %.1fX\n" (avg.Evaluate.total /. b.Evaluate.total)
     | None -> ());
    Printf.printf "runtime        %.2f s   [%s]\n" r.Optimizer.runtime_s
      (Search_stats.to_string r.Optimizer.stats);
    if verbose then begin
      let a = r.Optimizer.assignment in
      let vector =
        String.concat ""
          (Array.to_list (Array.map (fun b -> if b then "1" else "0") a.Assignment.input_vector))
      in
      Printf.printf "sleep vector   %s\n" vector;
      Printf.printf "slow gates     %d of %d\n"
        (Assignment.slow_gate_count lib net a)
        (Netlist.gate_count net)
    end;
    if timing then begin
      (* Rebuild the workspace around the winning assignment for the
         path report. *)
      let sta = Sta.create lib net in
      Sta.set_budget sta r.Optimizer.budget;
      let a = r.Optimizer.assignment in
      Netlist.iter_gates net (fun id kind _ ->
          let state = a.Assignment.gate_state.(id) in
          let entry =
            (Library.options lib kind ~state).(a.Assignment.option_choice.(id))
          in
          Sta.assign sta id ~version:entry.Standby_cells.Version.version
            ~perm:entry.Standby_cells.Version.perm);
      Sta.update sta;
      print_newline ();
      print_string (Timing_report.render sta)
    end;
    0

let optimize_cmd =
  let info = Cmd.info "optimize" ~doc:"Run a standby-leakage optimization" in
  Cmd.v info
    Term.(
      const run_optimize $ telemetry_term $ circuit_arg $ bench_file_arg $ mode_arg
      $ method_term $ penalty_arg $ jobs_arg $ vectors_arg $ verbose_arg $ timing_arg
      $ process_file_arg $ simplify_arg)

(* ------------------------------------------------------------------ *)
(* baseline                                                             *)

let seed_arg =
  let doc = "PRNG seed for the random-vector baseline." in
  Arg.(value & opt int 0x5eed & info [ "seed" ] ~docv:"SEED" ~doc)

let baseline_jobs_arg =
  let doc =
    "Worker domains for the packed simulation (vector blocks are split across domains; \
     the result is bit-identical for any value)."
  in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let check_arg =
  let doc =
    "Also run the scalar one-vector-at-a-time oracle on the same vector set and report \
     the agreement and speedup of the packed engine."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let run_baseline telemetry circuit file mode vectors jobs seed check process_file simplify =
  install_telemetry telemetry;
  match load_design circuit file mode process_file simplify with
  | Error msg ->
    Log.err "%s" msg;
    1
  | Ok (lib, net) ->
    (* One counting pass; the fast and the all-slow references are two
       reductions of the same counts. *)
    let (counts, avg), packed_s =
      Standby_util.Timer.time (fun () ->
          let counts = Evaluate.random_state_counts ~vectors ~jobs ~seed net in
          (counts, Evaluate.fast_average lib net counts))
    in
    let slow = Evaluate.slowest_average lib net counts in
    print_design lib net;
    Printf.printf "vectors        %d (seed %#x, %d 63-lane blocks, jobs %d)\n" vectors seed
      ((vectors + 62) / 63) jobs;
    Printf.printf "avg leakage    %.4f uA  (isub %.4f + igate %.4f)\n"
      (avg.Evaluate.total *. 1e6) (avg.Evaluate.isub *. 1e6) (avg.Evaluate.igate *. 1e6);
    Printf.printf "all-slow avg   %.4f uA  (100%%-penalty fallback reference)\n"
      (slow.Evaluate.total *. 1e6);
    Printf.printf "packed wall    %.4f s\n" packed_s;
    if check then begin
      let scalar, scalar_s =
        Standby_util.Timer.time (fun () ->
            Evaluate.random_vector_average_scalar ~vectors ~seed lib net)
      in
      let rel =
        abs_float (scalar.Evaluate.total -. avg.Evaluate.total)
        /. abs_float scalar.Evaluate.total
      in
      Printf.printf "scalar wall    %.4f s  (%.1fx speedup)\n" scalar_s (scalar_s /. packed_s);
      Printf.printf "agreement      %.3g relative  [%s]\n" rel
        (if rel <= 1e-9 then "OK" else "MISMATCH");
      if rel > 1e-9 then exit 1
    end;
    0

let baseline_cmd =
  let info =
    Cmd.info "baseline"
      ~doc:
        "Random-vector leakage baselines on the packed 63-lane simulation engine (the \
         paper's \"no technique\" reference and the all-slow fallback average)"
  in
  Cmd.v info
    Term.(
      const run_baseline $ telemetry_term $ circuit_arg $ bench_file_arg $ mode_arg
      $ vectors_arg $ baseline_jobs_arg $ seed_arg $ check_arg $ process_file_arg
      $ simplify_arg)

(* ------------------------------------------------------------------ *)
(* batch                                                                *)

let manifest_arg =
  let doc = "Job manifest file (see the README for the format)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST" ~doc)

let workers_arg =
  let doc = "Worker-pool size (default: available cores minus one)." in
  Arg.(value & opt (some int) None & info [ "j"; "workers" ] ~docv:"N" ~doc)

let cache_dir_arg =
  let doc =
    "Result-cache directory (default: \\$STANDBYOPT_CACHE_DIR, else \
     \\$XDG_CACHE_HOME/standbyopt, else ~/.cache/standbyopt)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_cache_arg =
  let doc = "Disable the persistent result cache for this run." in
  Arg.(value & flag & info [ "no-cache" ] ~doc)

let cache_max_arg =
  let doc =
    "Cap the result cache at N entries; every write past the cap evicts \
     least-recently-used entries (counted on cache.evictions).  Unset, the cache grows \
     without bound."
  in
  Arg.(value & opt (some int) None & info [ "cache-max-entries" ] ~docv:"N" ~doc)

let csv_arg =
  let doc = "Also write the per-job results as CSV." in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let quiet_arg =
  let doc =
    "Raise the log threshold to warn — no per-job progress lines (the summary still \
     prints).  An explicit --log-level wins."
  in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

let make_store cache_dir no_cache cache_max =
  if no_cache then Ok None
  else
    let dir = Option.value cache_dir ~default:(Result_store.default_dir ()) in
    match Result_store.create ?max_entries:cache_max ~dir () with
    | store -> Ok (Some store)
    | exception Sys_error msg -> Error msg

let run_batch telemetry manifest workers cache_dir no_cache cache_max csv quiet =
  install_telemetry ~role:"batch" ~quiet telemetry;
  match Manifest.load_file manifest with
  | Error msg ->
    Log.err "%s: %s" manifest msg;
    1
  | Ok jobs -> (
    match make_store cache_dir no_cache cache_max with
    | Error msg ->
      Log.err "%s" msg;
      1
    | Ok store ->
      let summary = Engine.run ?workers ?store jobs in
      print_string (Engine.table summary);
      (match store with
       | Some s -> Printf.printf "cache          %s\n" (Result_store.dir s)
       | None -> ());
      Option.iter
        (fun path ->
          Engine.write_csv path summary;
          Printf.printf "wrote %s\n" path)
        csv;
      if summary.Engine.failed > 0 then 1 else 0)

let batch_cmd =
  let info =
    Cmd.info "batch"
      ~doc:
        "Run a manifest of optimization jobs on a worker pool, with a persistent result \
         cache and deadline-aware degradation"
  in
  Cmd.v info
    Term.(
      const run_batch $ telemetry_term $ manifest_arg $ workers_arg $ cache_dir_arg
      $ no_cache_arg $ cache_max_arg $ csv_arg $ quiet_arg)

(* ------------------------------------------------------------------ *)
(* serve / submit                                                       *)

let address_conv =
  Arg.conv
    ( (fun s -> Result.map_error (fun msg -> `Msg msg) (Wire.address_of_string s)),
      fun fmt a -> Format.pp_print_string fmt (Wire.address_to_string a) )

let listen_arg =
  let doc =
    "Listen address: unix:PATH, HOST:PORT, or a bare path (taken as a Unix socket)."
  in
  Arg.(
    value
    & opt address_conv (Wire.Unix_socket "standbyopt.sock")
    & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)

let capacity_arg =
  let doc =
    "Admission-queue capacity: at most N optimize requests in flight; further requests \
     are rejected with a retry-after hint."
  in
  Arg.(value & opt int 64 & info [ "capacity" ] ~docv:"N" ~doc)

let peers_arg =
  let doc =
    "Peer standbyd address for the shared cache tier (repeatable).  A local cache miss \
     consults each peer in turn and writes a hit back locally; fresh local results are \
     offered to every peer.  Requires the result cache (conflicts with --no-cache)."
  in
  Arg.(value & opt_all address_conv [] & info [ "peer" ] ~docv:"ADDR" ~doc)

let run_serve telemetry listen capacity workers cache_dir no_cache cache_max peers =
  install_telemetry ~role:"server" telemetry;
  match make_store cache_dir no_cache cache_max with
  | Error msg ->
    Log.err "%s" msg;
    1
  | Ok store -> (
    match (store, peers) with
    | None, _ :: _ ->
      Log.err "--peer needs the result cache; drop --no-cache";
      1
    | _ ->
      (match store with
       | Some store -> Cache_tier.attach ~store ~peers ()
       | None -> ());
      let config =
        { (Server.default_config listen) with Server.capacity; workers; store }
      in
      (match Server.create config with
       | Error msg ->
         Log.err "%s" msg;
         1
       | Ok server ->
         Server.install_signal_handlers server;
         Server.run server;
         0))

let serve_cmd =
  let info =
    Cmd.info "serve"
      ~doc:
        "Run standbyd: a daemon answering optimization requests over newline-delimited \
         JSON, with bounded admission, per-request deadlines, a shared peer cache tier \
         and graceful SIGTERM drain"
  in
  Cmd.v info
    Term.(
      const run_serve $ telemetry_term $ listen_arg $ capacity_arg $ workers_arg
      $ cache_dir_arg $ no_cache_arg $ cache_max_arg $ peers_arg)

let connect_arg =
  let doc = "Daemon address: unix:PATH, HOST:PORT, or a bare Unix-socket path." in
  Arg.(
    value
    & opt address_conv (Wire.Unix_socket "standbyopt.sock")
    & info [ "s"; "connect" ] ~docv:"ADDR" ~doc)

let submit_circuits_arg =
  let doc = "Built-in benchmark to submit (repeatable)." in
  Arg.(value & opt_all string [] & info [ "c"; "circuit" ] ~docv:"NAME" ~doc)

let submit_files_arg =
  let doc =
    "Netlist file to submit (repeatable; .bench or gate-level .v).  The netlist is \
     parsed locally and shipped inline — the daemon never reads this filesystem."
  in
  Arg.(value & opt_all file [] & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let deadline_arg =
  let doc =
    "Per-request wall-clock deadline; a blown deadline returns the best incumbent \
     marked degraded."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECONDS" ~doc)

let progress_flag_arg =
  let doc =
    "Stream live progress: the daemon pushes one frame per incumbent improvement of a \
     fresh computation (cache hits improve nothing), so the leakage trajectory prints \
     as it happens."
  in
  Arg.(value & flag & info [ "progress" ] ~doc)

let status_flag_arg =
  let doc = "Also request the daemon's admission/liveness snapshot." in
  Arg.(value & flag & info [ "status" ] ~doc)

let metrics_flag_arg =
  let doc = "Also scrape the daemon's metrics (Prometheus text)." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let stats_flag_arg =
  let doc =
    "Also request the structured metrics snapshot — asked of a router, the bucket-wise \
     sum over every live backend."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

(* submit is a thin client — its --metrics scrapes the daemon, so it
   takes a telemetry term without the registry-file option. *)
let client_telemetry_term =
  let combine level trace = { level; trace; metrics = None } in
  Term.(const combine $ log_level_arg $ trace_file_arg)

let json_flag_arg =
  let doc = "Print raw JSON response records instead of the human-readable rendering." in
  Arg.(value & flag & info [ "json" ] ~doc)

(* Build the optimize requests: built-in circuits by name, files parsed
   locally and re-rendered as canonical .bench text. *)
let submit_requests circuits files mode method_ penalty deadline_s progress =
  let of_file path =
    Result.map
      (fun net ->
        Wire.Bench
          { name = Filename.remove_extension (Filename.basename path);
            text = Bench_io.to_string net })
      (Job.load_netlist (Manifest.File path))
  in
  let rec sources acc = function
    | [] -> Ok (List.rev acc)
    | path :: rest -> (
      match of_file path with
      | Ok s -> sources (s :: acc) rest
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg))
  in
  Result.map
    (fun file_sources ->
      let all = List.map (fun c -> Wire.Circuit c) circuits @ file_sources in
      List.mapi
        (fun i source ->
          let name =
            match source with Wire.Circuit c -> c | Wire.Bench { name; _ } -> name
          in
          Wire.Optimize
            {
              Wire.id = Printf.sprintf "%s#%d" name i;
              source;
              mode;
              method_;
              penalty;
              deadline_s;
              progress;
            })
        all)
    (sources [] files)

let print_status (s : Wire.status_payload) =
  Printf.printf "draining       %b\n" s.Wire.draining;
  Printf.printf "accepted       %d\n" s.Wire.accepted;
  Printf.printf "rejected       %d\n" s.Wire.rejected;
  (if s.Wire.capacity > 0 then
     Printf.printf "in flight      %d / %d\n" s.Wire.in_flight s.Wire.capacity
   else Printf.printf "in flight      %d\n" s.Wire.in_flight);
  Printf.printf "queue depth    %d\n" s.Wire.queue_depth;
  Printf.printf "workers        %d\n" s.Wire.workers;
  Printf.printf "uptime         %.1f s\n" s.Wire.uptime_s;
  match s.Wire.backends with
  | [] -> ()
  | backends ->
    Printf.printf "backends       %d\n" (List.length backends);
    List.iter
      (fun (b : Wire.backend_status) ->
        Printf.printf "  %-24s %-9s in-flight %-4d failures %-3d %s\n" b.Wire.backend
          b.Wire.health b.Wire.backend_in_flight b.Wire.consecutive_failures
          (if b.Wire.last_probe_s < 0.0 then "never probed"
           else Printf.sprintf "probed %.1f s ago" b.Wire.last_probe_s))
      backends

let print_result (p : Wire.result_payload) =
  Printf.printf "%-12s %-9s %-18s leak %10.4f uA  delay %6.2f / %6.2f  %6.2f s\n"
    p.Wire.id p.Wire.status p.Wire.method_name
    (p.Wire.leakage_a *. 1e6)
    p.Wire.delay p.Wire.budget p.Wire.wall_s

let print_progress (p : Wire.progress_payload) =
  Printf.printf "%-12s improve #%-3d               leak %10.4f uA  at %6.2f s\n"
    p.Wire.progress_id p.Wire.improvement
    (p.Wire.progress_leakage_a *. 1e6)
    p.Wire.progress_elapsed_s

let print_stats (snap : Metrics.registry_snapshot) =
  List.iter
    (fun (name, v) -> Printf.printf "%-32s %d\n" name v)
    snap.Metrics.counters;
  List.iter
    (fun (name, v) -> Printf.printf "%-32s %g\n" name v)
    snap.Metrics.gauges;
  List.iter
    (fun (name, (h : Metrics.histogram_snapshot)) ->
      let pct q =
        match Metrics.percentile h q with
        | Some v -> Printf.sprintf "%.4f" v
        | None -> "-"
      in
      Printf.printf "%-32s count %-6d sum %-10.4f p50 %s  p90 %s  p99 %s\n" name
        h.Metrics.count h.Metrics.sum (pct 0.5) (pct 0.9) (pct 0.99))
    snap.Metrics.histograms

(* Returns true when the response is a success. *)
let render_response ~json response =
  if json then begin
    print_endline (Json.to_string (Wire.response_to_json response));
    match response with
    | Wire.Result _ | Wire.Status_reply _ | Wire.Metrics_reply _ | Wire.Cache_found _
    | Wire.Cache_missing _ | Wire.Cache_ack _ | Wire.Stats_reply _ | Wire.Progress _ ->
      true
    | Wire.Rejected _ | Wire.Error_response _ -> false
  end
  else
    match response with
    | Wire.Result p ->
      print_result p;
      true
    | Wire.Progress p ->
      print_progress p;
      true
    | Wire.Stats_reply snap ->
      print_stats snap;
      true
    | Wire.Status_reply s ->
      print_status s;
      true
    | Wire.Metrics_reply { body; _ } ->
      print_string body;
      true
    | Wire.Cache_found { key; entry } ->
      Printf.printf "%s: cached %s (leak %.4f uA)\n" key
        entry.Result_store.method_name
        (entry.Result_store.total *. 1e6);
      true
    | Wire.Cache_missing { key } ->
      Printf.printf "%s: not cached\n" key;
      true
    | Wire.Cache_ack { key; stored } ->
      Printf.printf "%s: %s\n" key (if stored then "stored" else "not stored");
      true
    | Wire.Rejected { id; reason; retry_after_s } ->
      Printf.eprintf "%s: rejected (%s), retry after %.1f s\n" id reason retry_after_s;
      false
    | Wire.Error_response { id; message } ->
      Printf.eprintf "%s: error: %s\n" (Option.value id ~default:"-") message;
      false

let upstream_arg =
  let doc =
    "Fallback address (repeatable): when the --connect target is unavailable — and only \
     then — each upstream is tried in order.  A daemon that answered but misbehaved is \
     never silently retried elsewhere."
  in
  Arg.(value & opt_all address_conv [] & info [ "upstream" ] ~docv:"ADDR" ~doc)

(* One pipelined session against one address.  [`Unavailable] escapes
   only while nothing has been received yet — optimize requests are
   deterministic and content-addressed, so resubmitting the whole batch
   to a fallback cannot change any answer, but a half-drained session is
   reported, not replayed.  Every frame carries the current trace
   context (the [client.submit] span minted by [run_submit]), so the
   peer's spans — and, through a router, the backend's — join one
   cross-process trace. *)
let submit_session ~json requests address =
  match Client.connect address with
  | Error (Client.Unavailable msg) -> `Unavailable msg
  | Error e -> `Failed (Client.error_message e)
  | Ok client ->
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        (* Pipeline every request on the one connection, then drain the
           same number of terminal responses (they arrive in completion
           order, each tagged with its request id).  Non-terminal
           [Progress] frames are printed as they land and do not count
           against the expected total. *)
        let rec send_all = function
          | [] -> Ok ()
          | r :: rest ->
            Result.bind
              (Client.send ?trace:(Telemetry.current_context ()) client r)
              (fun () -> send_all rest)
        in
        match send_all requests with
        | Error (Client.Unavailable msg) -> `Unavailable msg
        | Error e -> `Failed (Client.error_message e)
        | Ok () ->
          let failures = ref 0 in
          let rec drain received n =
            if n = 0 then `Done !failures
            else
              match Client.recv client with
              | Error (Client.Unavailable msg) when received = 0 -> `Unavailable msg
              | Error e ->
                Log.err "recv failed: %s" (Client.error_message e);
                `Done (!failures + n)
              | Ok response ->
                if not (render_response ~json response) then incr failures;
                if Wire.is_terminal response then drain (received + 1) (n - 1)
                else drain (received + 1) n
          in
          drain 0 (List.length requests))

let run_submit telemetry connect upstreams circuits files mode method_ penalty deadline
    progress status stats metrics json =
  install_telemetry ~role:"client" telemetry;
  match submit_requests circuits files mode method_ penalty deadline progress with
  | Error msg ->
    Log.err "%s" msg;
    1
  | Ok optimizes ->
    let requests =
      optimizes
      @ (if status then [ Wire.Status ] else [])
      @ (if stats then [ Wire.Stats ] else [])
      @ if metrics then [ Wire.Metrics ] else []
    in
    if requests = [] then begin
      Log.err "nothing to submit: pass --circuit, --file, --status, --stats or --metrics";
      1
    end
    else begin
      (* Mint the trace at the edge: every frame of this session carries
         this id, so the daemon's (and router's) spans merge with ours
         under one root even when this process writes no trace file. *)
      let ctx =
        { Telemetry.trace_id = Telemetry.mint_trace_id (); parent = None }
      in
      let rec attempt = function
        | [] ->
          Log.err "no daemon reachable";
          1
        | address :: rest -> (
          match submit_session ~json requests address with
          | `Done 0 -> 0
          | `Done _ -> 1
          | `Failed msg ->
            Log.err "%s" msg;
            1
          | `Unavailable msg ->
            if rest = [] then begin
              Log.err "%s" msg;
              1
            end
            else begin
              Log.warn "%s unavailable (%s), trying next upstream"
                (Wire.address_to_string address) msg;
              attempt rest
            end)
      in
      Telemetry.with_context ctx (fun () ->
          Telemetry.span "client.submit"
            ~fields:[ ("requests", Json.Int (List.length requests)) ]
            (fun () -> attempt (connect :: upstreams)))
    end

let submit_cmd =
  let info =
    Cmd.info "submit"
      ~doc:
        "Submit optimization requests to a running standbyd daemon or router (pipelined \
         on one connection, with optional fallback upstreams), or scrape its status and \
         metrics"
  in
  Cmd.v info
    Term.(
      const run_submit $ client_telemetry_term $ connect_arg $ upstream_arg
      $ submit_circuits_arg $ submit_files_arg $ mode_arg $ method_term $ penalty_arg
      $ deadline_arg $ progress_flag_arg $ status_flag_arg $ stats_flag_arg
      $ metrics_flag_arg $ json_flag_arg)

(* ------------------------------------------------------------------ *)
(* route / drain                                                        *)

let route_listen_arg =
  let doc = "Front-side listen address for the router." in
  Arg.(
    value
    & opt address_conv (Wire.Unix_socket "standbyopt-router.sock")
    & info [ "l"; "listen" ] ~docv:"ADDR" ~doc)

let backend_arg =
  let doc = "standbyd backend address (repeatable; at least one required)." in
  Arg.(non_empty & opt_all address_conv [] & info [ "b"; "backend" ] ~docv:"ADDR" ~doc)

let vnodes_arg =
  let doc =
    "Virtual nodes per backend on the consistent-hash ring.  More points mean better \
     balance and a slightly larger ring."
  in
  Arg.(value & opt int Standby_cluster.Ring.default_vnodes & info [ "vnodes" ] ~docv:"N" ~doc)

let probe_interval_arg =
  let doc = "Seconds between health probes of a healthy backend (failures back off)." in
  Arg.(value & opt float 2.0 & info [ "probe-interval" ] ~docv:"SECONDS" ~doc)

let connect_timeout_arg =
  let doc = "Downstream connect timeout before a backend counts as unavailable." in
  Arg.(value & opt float 5.0 & info [ "connect-timeout" ] ~docv:"SECONDS" ~doc)

let run_route telemetry listen backends vnodes probe_interval connect_timeout =
  install_telemetry ~role:"router" telemetry;
  let config =
    {
      (Router.default_config ~listen ~backends) with
      Router.vnodes;
      probe_interval_s = probe_interval;
      connect_timeout_s = connect_timeout;
    }
  in
  match Router.create config with
  | Error msg ->
    Log.err "%s" msg;
    1
  | Ok router ->
    Router.install_signal_handlers router;
    Router.run router;
    0

let route_cmd =
  let info =
    Cmd.info "route"
      ~doc:
        "Run the cluster coordinator: requests are consistent-hashed by their content \
         digest onto standbyd backends, with health probing, retry-aware failover and \
         administrative backend draining"
  in
  Cmd.v info
    Term.(
      const run_route $ telemetry_term $ route_listen_arg $ backend_arg $ vnodes_arg
      $ probe_interval_arg $ connect_timeout_arg)

let drain_backend_arg =
  let doc =
    "Backend address to drain (router targets only).  Omitted, the daemon or router \
     itself drains."
  in
  Arg.(value & opt (some string) None & info [ "b"; "backend" ] ~docv:"ADDR" ~doc)

let run_drain telemetry connect backend json =
  install_telemetry ~role:"client" telemetry;
  match Client.connect connect with
  | Error e ->
    Log.err "%s" (Client.error_message e);
    1
  | Ok client ->
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        match Client.rpc client (Wire.Drain { backend }) with
        | Error e ->
          Log.err "%s" (Client.error_message e);
          1
        | Ok response -> if render_response ~json response then 0 else 1)

let drain_cmd =
  let info =
    Cmd.info "drain"
      ~doc:
        "Ask a daemon or router to drain — finish in-flight work and take no more — or, \
         with --backend, drain one backend out of a router's rotation"
  in
  Cmd.v info
    Term.(
      const run_drain $ client_telemetry_term $ connect_arg $ drain_backend_arg
      $ json_flag_arg)

(* ------------------------------------------------------------------ *)
(* report                                                               *)

let artifacts_arg =
  let doc = "Artifacts to regenerate (table1..table5, figure1..figure5, ablation, all)." in
  Arg.(value & pos_all string [ "all" ] & info [] ~docv:"ARTIFACT" ~doc)

let quick_arg =
  let doc = "Use the trimmed configuration (small suite, few vectors)." in
  Arg.(value & flag & info [ "quick" ] ~doc)

let report_vectors_arg =
  let doc = "Override the random-vector count of the configuration." in
  Arg.(value & opt (some int) None & info [ "vectors" ] ~docv:"N" ~doc)

let report_jobs_arg =
  let doc = "Worker domains for the packed random-vector baselines." in
  Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let run_report telemetry quick vectors jobs artifacts =
  install_telemetry telemetry;
  let config = if quick then Experiments.quick_config else Experiments.default_config in
  let config =
    {
      config with
      Experiments.vectors = Option.value vectors ~default:config.Experiments.vectors;
      Experiments.jobs = jobs;
    }
  in
  let t = Experiments.create ~config () in
  let known = "all" :: List.map fst Experiments.artifacts in
  match List.filter (fun a -> not (List.mem a known)) artifacts with
  | [] ->
    let wanted name = List.mem "all" artifacts || List.mem name artifacts in
    List.iter
      (fun (name, render) ->
        if wanted name then begin
          print_endline (render t);
          print_newline ()
        end)
      Experiments.artifacts;
    0
  | unknown ->
    Printf.eprintf "error: unknown artifact(s): %s\nknown: %s\n"
      (String.concat " " unknown) (String.concat " " known);
    1

let report_cmd =
  let info = Cmd.info "report" ~doc:"Regenerate the paper's tables and figures" in
  Cmd.v info
    Term.(
      const run_report $ telemetry_term $ quick_arg $ report_vectors_arg $ report_jobs_arg
      $ artifacts_arg)

(* ------------------------------------------------------------------ *)
(* trace                                                                *)

let trace_pos_arg =
  let doc = "Trace file(s) written by --trace — one per process of a routed request." in
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc)

let merge_flag_arg =
  let doc =
    "Render the cross-process span tree: spans link to their (possibly remote) parents \
     by propagated trace id, one tree per trace, with per-hop wall/self time and \
     role/pid.  Implied when several files are given."
  in
  Arg.(value & flag & info [ "merge" ] ~doc)

let run_trace_summarize merge files =
  match Trace.read_files files with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Ok records ->
    let merged = merge || List.length files > 1 in
    print_string
      (if merged then Trace_view.render_merged records else Trace_view.render records);
    0

let trace_cmd =
  let summarize =
    let info =
      Cmd.info "summarize"
        ~doc:
          "Per-span wall/self-time table and incumbent trajectory of a trace; several \
           files (or --merge) join into one cross-process tree keyed by propagated \
           trace ids"
    in
    Cmd.v info Term.(const run_trace_summarize $ merge_flag_arg $ trace_pos_arg)
  in
  let info = Cmd.info "trace" ~doc:"Inspect trace files written via --trace" in
  Cmd.group info [ summarize ]

(* ------------------------------------------------------------------ *)
(* top                                                                  *)

let interval_arg =
  let doc = "Seconds between refreshes." in
  Arg.(value & opt float 2.0 & info [ "interval" ] ~docv:"SECONDS" ~doc)

let frames_arg =
  let doc = "Stop after N refreshes (default: run until interrupted)." in
  Arg.(value & opt (some int) None & info [ "frames" ] ~docv:"N" ~doc)

let plain_arg =
  let doc = "No terminal control: print one dashboard per refresh instead of redrawing." in
  Arg.(value & flag & info [ "plain" ] ~doc)

let render_top address (s : Wire.status_payload) (snap : Metrics.registry_snapshot) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  add "standbyopt top — %s%s   up %.1f s\n"
    (Wire.address_to_string address)
    (if s.Wire.draining then "  [draining]" else "")
    s.Wire.uptime_s;
  add "fleet      accepted %-7d rejected %-7d in-flight %-5d workers %d\n"
    s.Wire.accepted s.Wire.rejected s.Wire.in_flight s.Wire.workers;
  let c name = Option.value (Metrics.find_counter snap name) ~default:0 in
  let hits = c "result_store.hits" and misses = c "result_store.misses" in
  let ratio =
    if hits + misses = 0 then "-"
    else Printf.sprintf "%.1f%%" (100.0 *. float_of_int hits /. float_of_int (hits + misses))
  in
  add "cache      hits %-11d misses %-9d hit ratio %-7s remote hits %d\n" hits misses
    ratio (c "cache.remote_hits");
  add "engine     computed %-7d cached %-9d degraded %-6d failed %d\n"
    (c "engine.jobs_computed") (c "engine.jobs_cached") (c "engine.jobs_degraded")
    (c "engine.jobs_failed");
  (* A router's own memo of inline netlists: routed without a parse. *)
  (match (c "cluster.source_memo_hits", c "cluster.source_memo_misses") with
   | 0, 0 -> ()
   | hits, misses ->
     add "route memo hits %-11d misses %-9d evictions %-5d %.1f MB held\n" hits misses
       (c "cluster.source_memo_evictions")
       (Option.value (Metrics.find_gauge snap "cluster.source_memo_bytes") ~default:0.0 /. 1e6));
  (match Metrics.find_histogram snap "engine.job_wall_s" with
   | Some h when h.Metrics.count > 0 ->
     let pct q =
       match Metrics.percentile h q with
       | Some v -> Printf.sprintf "%.3f s" v
       | None -> "-"
     in
     add "latency    p50 %-10s p90 %-10s p99 %-10s (%d jobs)\n" (pct 0.5) (pct 0.9)
       (pct 0.99) h.Metrics.count
   | _ -> add "latency    no jobs completed yet\n");
  (match s.Wire.incumbent_a with
   | Some a -> add "incumbent  %.4f uA  (best across fleet)\n" (a *. 1e6)
   | None -> ());
  (match s.Wire.backends with
   | [] -> ()
   | backends ->
     add "\n%-26s %-9s %9s %9s %13s  %s\n" "backend" "health" "in-flight" "failures"
       "incumbent uA" "probed";
     List.iter
       (fun (bk : Wire.backend_status) ->
         add "%-26s %-9s %9d %9d %13s  %s\n" bk.Wire.backend bk.Wire.health
           bk.Wire.backend_in_flight bk.Wire.consecutive_failures
           (match bk.Wire.backend_incumbent_a with
            | Some a -> Printf.sprintf "%.4f" (a *. 1e6)
            | None -> "-")
           (if bk.Wire.last_probe_s < 0.0 then "never probed"
            else Printf.sprintf "%.1f s ago" bk.Wire.last_probe_s))
       backends);
  Buffer.contents b

(* One fresh dial per tick: a hung or restarted target shows up as an
   error line on the next frame instead of wedging the dashboard. *)
let top_poll connect =
  match Client.connect connect with
  | Error e -> Error (Client.error_message e)
  | Ok client ->
    Fun.protect
      ~finally:(fun () -> Client.close client)
      (fun () ->
        match Client.rpc client Wire.Status with
        | Error e -> Error (Client.error_message e)
        | Ok (Wire.Status_reply s) -> (
          match Client.rpc client Wire.Stats with
          | Error e -> Error (Client.error_message e)
          | Ok (Wire.Stats_reply snap) -> Ok (s, snap)
          | Ok _ -> Error "unexpected response to stats request")
        | Ok _ -> Error "unexpected response to status request")

let run_top telemetry connect interval frames plain =
  install_telemetry ~role:"client" telemetry;
  let interval = Float.max 0.05 interval in
  let tick () =
    let body =
      match top_poll connect with
      | Ok (s, snap) -> render_top connect s snap
      | Error msg ->
        Printf.sprintf "standbyopt top — %s: %s\n" (Wire.address_to_string connect) msg
    in
    if plain then print_string body
    else begin
      (* Clear + home, then the frame: one write, no flicker. *)
      print_string "\027[2J\027[H";
      print_string body
    end;
    flush stdout
  in
  (match frames with
   | Some k ->
     for i = 1 to k do
       tick ();
       if i < k then Thread.delay interval
     done
   | None ->
     while true do
       tick ();
       Thread.delay interval
     done);
  0

let top_cmd =
  let info =
    Cmd.info "top"
      ~doc:
        "Live fleet dashboard: poll a daemon or router for status and aggregated stats \
         and redraw per-backend health, cache hit ratio, request-latency percentiles \
         and the live incumbent leakage"
  in
  Cmd.v info
    Term.(
      const run_top $ client_telemetry_term $ connect_arg $ interval_arg $ frames_arg
      $ plain_arg)

(* ------------------------------------------------------------------ *)
(* library                                                              *)

let run_library mode =
  let lib = Library.build ~mode Process.default in
  Printf.printf "library mode: %s\n\n" (Version.mode_name (Library.mode lib));
  List.iter
    (fun kind ->
      let info = Library.info lib kind in
      Printf.printf "%s: %d versions\n" (Gate_kind.name kind)
        (Array.length info.Library.versions);
      Array.iteri
        (fun v name -> Printf.printf "  v%d  %s\n" v name)
        info.Library.version_names;
      Array.iteri
        (fun state opts ->
          let cells =
            Array.to_list opts
            |> List.map (fun (o : Version.option_entry) ->
                   Printf.sprintf "v%d:%.1fnA(%s)" o.Version.version
                     (o.Version.leakage *. 1e9)
                     (Version.role_name o.Version.role))
          in
          Printf.printf "  state %d: %s\n" state (String.concat "  " cells))
        info.Library.options;
      print_newline ())
    Gate_kind.all;
  0

let library_cmd =
  let info = Cmd.info "library" ~doc:"Inspect the characterized cell library" in
  Cmd.v info Term.(const run_library $ mode_arg)

(* ------------------------------------------------------------------ *)
(* circuits / export                                                    *)

let run_circuits () =
  Printf.printf "%-8s %8s %8s %10s %8s\n" "name" "inputs" "gates" "published" "depth";
  List.iter
    (fun (p : Benchmarks.profile) ->
      let net = Benchmarks.circuit p.Benchmarks.bench_name in
      Printf.printf "%-8s %8d %8d %10d %8d\n" p.Benchmarks.bench_name
        (Netlist.input_count net) (Netlist.gate_count net) p.Benchmarks.published_gates
        (Netlist.depth net))
    Benchmarks.profiles;
  0

let circuits_cmd =
  let info = Cmd.info "circuits" ~doc:"List the built-in benchmark suite" in
  Cmd.v info Term.(const run_circuits $ const ())

let output_arg =
  let doc = "Output path." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)

let run_export circuit file output simplify =
  match load_netlist circuit file with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Ok net ->
    let net = maybe_simplify simplify net in
    if Filename.check_suffix output ".v" then Verilog_io.write_file output net
    else if Filename.check_suffix output ".dot" then
      Dot_export.write_file output (Dot_export.of_netlist net)
    else Bench_io.write_file output net;
    Printf.printf "wrote %s (%d inputs, %d gates)\n" output (Netlist.input_count net)
      (Netlist.gate_count net);
    0

let export_cmd =
  let info =
    Cmd.info "export"
      ~doc:"Write a netlist as ISCAS .bench, gate-level Verilog (.v) or Graphviz (.dot)"
  in
  Cmd.v info
    Term.(const run_export $ circuit_arg $ bench_file_arg $ output_arg $ simplify_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                             *)

let gen_inputs_arg =
  let doc = "Primary input count of the generated circuit." in
  Arg.(value & opt int 64 & info [ "inputs" ] ~docv:"N" ~doc)

let gen_gates_arg =
  let doc = "Gate count of the generated circuit." in
  Arg.(value & opt int 1000 & info [ "gates" ] ~docv:"N" ~doc)

let gen_name_arg =
  let doc = "Design name embedded in the netlist (defaults to random-SEED-NxM)." in
  Arg.(value & opt (some string) None & info [ "name" ] ~docv:"NAME" ~doc)

let gen_window_arg =
  let doc =
    "Locality window for fan-in selection; 0 picks gates/20 (min 60, capped at the gate \
     count) so depth stays at synthesis-like tens of levels even at 100k+ gates.  An \
     explicit window larger than --gates is refused (exit 2)."
  in
  Arg.(value & opt int 0 & info [ "window" ] ~docv:"N" ~doc)

let run_generate seed inputs gates name window output =
  (* An explicit window wider than the circuit is a contradiction in the
     requested workload, not a malformed invocation: refuse with a
     distinct exit code so scripted sweeps can tell the two apart. *)
  if window > gates then begin
    Printf.eprintf "error: --window %d exceeds --gates %d (omit --window or widen the circuit)\n"
      window gates;
    2
  end
  else begin
    let window = if window > 0 then window else max 60 (gates / 20) in
    match
      try
        Ok
          (Standby_circuits.Random_logic.generate ?name ~window:(min window (max 1 gates))
             ~seed ~inputs ~gates ())
      with Invalid_argument msg -> Error msg
    with
    | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
    | Ok net ->
      Bench_io.write_file output net;
      Printf.printf "wrote %s (%d inputs, %d gates, depth %d, seed %#x, window %d)\n" output
        (Netlist.input_count net) (Netlist.gate_count net) (Netlist.depth net) seed
        (min window (max 1 gates));
      0
  end

let generate_cmd =
  let info =
    Cmd.info "generate"
      ~doc:
        "Generate a seeded random combinational netlist as .bench — the scaling \
         workload for the greedy mode (equal seeds give identical circuits)"
  in
  Cmd.v info
    Term.(
      const run_generate $ seed_arg $ gen_inputs_arg $ gen_gates_arg $ gen_name_arg
      $ gen_window_arg $ output_arg)

(* ------------------------------------------------------------------ *)
(* analyze / export-lib                                                 *)

let run_analyze circuit file mode penalty =
  match load_netlist circuit file with
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | Ok net ->
    let lib = Library.build ~mode Process.default in
    print_string (Analyze.circuit_summary net);
    let r = Optimizer.run lib net ~penalty Optimizer.Heuristic_1 in
    print_newline ();
    print_string (Analyze.leakage_profile lib net r.Optimizer.assignment);
    0

let analyze_cmd =
  let info =
    Cmd.info "analyze" ~doc:"Structural and residual-leakage analysis of a circuit"
  in
  Cmd.v info Term.(const run_analyze $ circuit_arg $ bench_file_arg $ mode_arg $ penalty_arg)

let run_export_lib mode output =
  let lib = Library.build ~mode Process.default in
  Liberty.write_file output lib;
  Printf.printf "wrote %s (%d cells, library %s)\n" output
    (Library.total_version_count lib) (Liberty.library_name lib);
  0

let export_lib_cmd =
  let info = Cmd.info "export-lib" ~doc:"Write the characterized cell library as Liberty" in
  Cmd.v info Term.(const run_export_lib $ mode_arg $ output_arg)

let run_export_process output =
  let oc = open_out output in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (Process_config.to_string Process.default));
  Printf.printf "wrote %s (edit and pass back via --process)\n" output;
  0

let export_process_cmd =
  let info =
    Cmd.info "export-process" ~doc:"Dump the default process constants as an override file"
  in
  Cmd.v info Term.(const run_export_process $ output_arg)

(* ------------------------------------------------------------------ *)

let main_cmd =
  let doc = "simultaneous state, Vt and Tox assignment for standby power minimization" in
  let info = Cmd.info "standbyopt" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      optimize_cmd; baseline_cmd; batch_cmd; serve_cmd; submit_cmd; route_cmd; drain_cmd;
      top_cmd; report_cmd; library_cmd; circuits_cmd; export_cmd; generate_cmd;
      analyze_cmd; export_lib_cmd; export_process_cmd; trace_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
