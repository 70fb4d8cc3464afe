(* Per-layer metrics of one traced phase.

   Nothing here profiles: the numbers are the program's own trace spans
   (reduced with [Trace.span_summary]), deltas of every counter in the
   metrics registry, and [Gc.quick_stat] deltas.  Counters are taken
   from [Metrics.registry_snapshot] rather than a hand-kept list, so a
   counter a later change registers shows up without editing this
   file. *)

module Metrics = Standby_telemetry.Metrics
module Trace = Standby_telemetry.Trace
module Timer = Standby_util.Timer

(* Every per-layer metric the traced run prints, in print order.  A
   workload that does not exercise a layer reports 0 for it. *)
let catalogue =
  [
    ("cells.library_build_s", "s");
    ("netlist.parse_s", "s");
    ("netlist.parse_alloc_mw", "Mwords");
    ("netlist.served_parse_ms", "ms");
    ("sim.reference_s", "s");
    ("sim.bitsim_words", "count");
    ("sim.events", "count");
    ("timing.init_s", "s");
    ("timing.full_updates", "count");
    ("timing.full_update_s", "s");
    ("timing.incremental_updates", "count");
    ("timing.worklist_pops", "count");
    ("timing.pops_per_update", "count");
    ("opt.state_tree_self_s", "s");
    ("opt.gate_tree_s", "s");
    ("opt.state_nodes", "count");
    ("opt.leaves", "count");
    ("opt.pruned", "count");
    ("opt.prune_ratio", "ratio");
    ("opt.bound_evaluations", "count");
    ("opt.greedy_self_s", "s");
    ("opt.greedy_heap_pops", "count");
    ("opt.greedy_swaps", "count");
    ("opt.greedy_backoffs", "count");
    ("opt.greedy_rounds", "count");
    ("opt.greedy_unblocks", "count");
    ("opt.greedy_accept_ratio", "ratio");
    ("opt.finalize_self_s", "s");
    ("partition.fm_s", "s");
    ("partition.region_opt_s", "s");
    ("partition.reconcile_s", "s");
    ("partition.run_self_s", "s");
    ("partition.fm_moves", "count");
    ("partition.reconcile_repairs", "count");
    ("pool.utilization", "ratio");
    ("power.serialize_s", "s");
    ("service.engine_job_ms", "ms");
    ("service.cache_hits", "count");
    ("service.cache_misses", "count");
    ("service.hit_ratio", "ratio");
    ("service.cache_find_ms", "ms");
    ("service.digest_ms", "ms");
    ("server.request_self_ms", "ms");
    ("protocol.request_encode_ms", "ms");
    ("protocol.response_decode_ms", "ms");
    ("client.wire_ms", "ms");
    ("cluster.route_self_ms", "ms");
    ("cluster.routes", "count");
    ("cluster.failovers", "count");
    ("served.hit_p50_ms", "ms");
    ("served.hit_p95_ms", "ms");
    ("served.hits", "count");
    ("served.miss_p50_ms", "ms");
    ("served.miss_p95_ms", "ms");
    ("served.misses", "count");
    ("runtime.alloc_mw", "Mwords");
    ("runtime.minor_gcs", "count");
    ("runtime.major_gcs", "count");
    ("runtime.top_heap_mb", "MB");
    ("telemetry.trace_overhead", "ratio");
  ]

type probe = { registry : Metrics.registry_snapshot; gc : Gc.stat; at : float }

let probe () =
  { registry = Metrics.registry_snapshot Metrics.default; gc = Gc.quick_stat (); at = Timer.now () }

(* Every counter of the registry, as the change between two probes. *)
let counter_deltas before after =
  List.map
    (fun (name, v) ->
      (name, v - Option.value (Metrics.find_counter before.registry name) ~default:0))
    after.registry.Metrics.counters

let histogram_delta before after name =
  match Metrics.find_histogram after.registry name with
  | None -> (0, 0.0)
  | Some a -> (
    match Metrics.find_histogram before.registry name with
    | None -> (a.Metrics.count, a.Metrics.sum)
    | Some b -> (a.Metrics.count - b.Metrics.count, a.Metrics.sum -. b.Metrics.sum))

type sample = { spans : Trace.span_row list; before : probe; after : probe }

let sample ~trace before after =
  match Trace.read_file trace with
  | Ok records -> { spans = Trace.span_summary records; before; after }
  | Error msg -> failwith ("cannot read trace " ^ trace ^ ": " ^ msg)

let row s name = List.find_opt (fun r -> r.Trace.span_name = name) s.spans
let total s name = match row s name with Some r -> r.Trace.total_s | None -> 0.0
let self s name = match row s name with Some r -> r.Trace.self_s | None -> 0.0
let calls s name = match row s name with Some r -> r.Trace.count | None -> 0

(* Mean milliseconds per span of [name], from its total or self time. *)
let per_call_ms s name seconds =
  match calls s name with 0 -> 0.0 | n -> 1000.0 *. seconds /. float_of_int n

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* The metrics this module can derive on its own, each normalized to
   one pass of the workload.  [workers] is the pool width the workload
   ran (partition jobs, or the daemon's worker domains). *)
let derive ~passes ~workers s =
  let per_pass v = v /. float_of_int passes in
  let deltas = counter_deltas s.before s.after in
  let counter name = float_of_int (Option.value (List.assoc_opt name deltas) ~default:0) in
  let g0 = s.before.gc and g1 = s.after.gc in
  let words =
    g1.Gc.minor_words -. g0.Gc.minor_words +. (g1.Gc.major_words -. g0.Gc.major_words)
    -. (g1.Gc.promoted_words -. g0.Gc.promoted_words)
  in
  let jobs_n, jobs_s = histogram_delta s.before s.after "engine.job_wall_s" in
  let hits = counter "result_store.hits" and misses = counter "result_store.misses" in
  let region_wall = total s "partition.region_opt" in
  let pool_utilization =
    if region_wall > 0.0 then
      ratio (total s "greedy.run") (float_of_int workers *. region_wall)
    else
      ratio (total s "server.request") (float_of_int workers *. (s.after.at -. s.before.at))
  in
  [
    ("netlist.parse_s", per_pass (total s "bench.parse"));
    ("sim.reference_s", per_pass (total s "bench.reference"));
    ("sim.bitsim_words", per_pass (counter "sim.bitsim_words"));
    ("sim.events", per_pass (counter "sim.events"));
    ("timing.init_s", per_pass (total s "sta.init" +. total s "sta.all_slow_delay"));
    ("timing.full_updates", per_pass (counter "sta.full_updates"));
    ("timing.full_update_s", per_pass (total s "sta.full_update"));
    ("timing.incremental_updates", per_pass (counter "sta.incremental_updates"));
    ("timing.worklist_pops", per_pass (counter "sta.worklist_pops"));
    ( "timing.pops_per_update",
      ratio (counter "sta.worklist_pops") (counter "sta.incremental_updates") );
    ( "opt.state_tree_self_s",
      per_pass (self s "state_tree.search" +. self s "state_tree.search_parallel") );
    ("opt.gate_tree_s", per_pass (total s "gate_tree.greedy" +. total s "gate_tree.exact"));
    ("opt.state_nodes", per_pass (counter "search.state_nodes"));
    ("opt.leaves", per_pass (counter "search.leaves"));
    ("opt.pruned", per_pass (counter "search.pruned"));
    ("opt.prune_ratio", ratio (counter "search.pruned") (counter "search.state_nodes"));
    ("opt.bound_evaluations", per_pass (counter "search.bound_evaluations"));
    ("opt.greedy_self_s", per_pass (self s "greedy.run"));
    ("opt.greedy_heap_pops", per_pass (counter "greedy.heap_pops"));
    ("opt.greedy_swaps", per_pass (counter "greedy.swaps"));
    ("opt.greedy_backoffs", per_pass (counter "greedy.backoffs"));
    ("opt.greedy_rounds", per_pass (counter "greedy.rounds"));
    ("opt.greedy_unblocks", per_pass (counter "greedy.unblocks"));
    ("opt.greedy_accept_ratio", ratio (counter "greedy.swaps") (counter "greedy.heap_pops"));
    ("opt.finalize_self_s", per_pass (self s "optimizer.run"));
    ("partition.fm_s", per_pass (total s "partition.fm"));
    ("partition.region_opt_s", per_pass region_wall);
    ("partition.reconcile_s", per_pass (total s "partition.reconcile"));
    ("partition.run_self_s", per_pass (self s "partition.run"));
    ("partition.fm_moves", per_pass (counter "partition.fm_moves"));
    ("partition.reconcile_repairs", per_pass (counter "partition.reconcile_repairs"));
    ("pool.utilization", pool_utilization);
    ("power.serialize_s", per_pass (total s "bench.serialize"));
    ( "service.engine_job_ms",
      if jobs_n = 0 then 0.0 else 1000.0 *. jobs_s /. float_of_int jobs_n );
    ("service.cache_hits", per_pass hits);
    ("service.cache_misses", per_pass misses);
    ("service.hit_ratio", ratio hits (hits +. misses));
    ("server.request_self_ms", per_call_ms s "server.request" (self s "server.request"));
    ("client.wire_ms", per_call_ms s "bench.rpc" (self s "bench.rpc"));
    ("cluster.route_self_ms", per_call_ms s "cluster.route" (self s "cluster.route"));
    ("cluster.routes", per_pass (counter "cluster.routes"));
    ("cluster.failovers", per_pass (counter "cluster.failovers"));
    ("runtime.alloc_mw", per_pass (words /. 1e6));
    ( "runtime.minor_gcs",
      per_pass (float_of_int (g1.Gc.minor_collections - g0.Gc.minor_collections)) );
    ( "runtime.major_gcs",
      per_pass (float_of_int (g1.Gc.major_collections - g0.Gc.major_collections)) );
    ("runtime.top_heap_mb", float_of_int (g1.Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  ]

(* The full catalogue: [extras] (values only the workload can measure)
   win over derived values; anything neither provides is 0. *)
let metrics ~passes ~workers ~extras s =
  let derived = derive ~passes ~workers s in
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name extras with
        | Some v -> v
        | None -> Option.value (List.assoc_opt name derived) ~default:0.0
      in
      (name, unit_, value))
    catalogue
