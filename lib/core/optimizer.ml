module Netlist = Standby_netlist.Netlist
module Sta = Standby_timing.Sta
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate
module Simulator = Standby_sim.Simulator
module Logic = Standby_sim.Logic
module Fm = Standby_partition.Fm
module Region = Standby_partition.Region
module Region_opt = Standby_partition.Region_opt
module Reconcile = Standby_partition.Reconcile
module Timer = Standby_util.Timer
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Json = Standby_telemetry.Json

(* Registered once at module initialization — before any worker domain
   can exist — so the hot paths below only pay atomic updates. *)
let m_runs = Metrics.counter Metrics.default "optimizer.runs" ~help:"Completed optimizer runs"
let m_degraded =
  Metrics.counter Metrics.default "optimizer.degraded"
    ~help:"Runs cut short by an external deadline"
let m_runtime =
  Metrics.histogram Metrics.default "optimizer.runtime_s" ~help:"Optimizer wall time"
let m_state_nodes =
  Metrics.counter Metrics.default "search.state_nodes" ~help:"State-tree nodes expanded"
let m_leaves =
  Metrics.counter Metrics.default "search.leaves" ~help:"Complete states evaluated"
let m_pruned =
  Metrics.counter Metrics.default "search.pruned" ~help:"Subtrees cut by the leakage bound"
let m_gate_changes =
  Metrics.counter Metrics.default "search.gate_changes" ~help:"Accepted cell version swaps"
let m_bound_evals =
  Metrics.counter Metrics.default "search.bound_evaluations" ~help:"Lower-bound evaluations"
let m_incumbents =
  Metrics.counter Metrics.default "search.incumbent_updates" ~help:"Incumbent improvements"
let m_restarts =
  Metrics.counter Metrics.default "search.restarts" ~help:"Hill-climbing restart rounds"

type method_ =
  | Heuristic_1
  | Heuristic_2 of { time_limit_s : float }
  | Hill_climb of { time_limit_s : float; max_rounds : int }
  | Exact
  | Greedy of { time_budget_s : float }
  | Partition of { time_budget_s : float; regions : int }

let method_name = function
  | Heuristic_1 -> "heu1"
  | Heuristic_2 _ -> "heu2"
  | Hill_climb _ -> "heu1+hc"
  | Exact -> "exact"
  | Greedy _ -> "greedy"
  | Partition _ -> "partition"

type params = { time_limit_s : float; rounds : int; regions : int }

let default_params = { time_limit_s = 2.0; rounds = 8; regions = 0 }

type param = Time_limit of float | Rounds of int | Regions of int

(* Every method built from one parameter set: the vocabulary's order. *)
let all_methods { time_limit_s; rounds; regions } =
  [
    Heuristic_1;
    Heuristic_2 { time_limit_s };
    Hill_climb { time_limit_s; max_rounds = rounds };
    Exact;
    Greedy { time_budget_s = time_limit_s };
    Partition { time_budget_s = time_limit_s; regions };
  ]

let method_token = function
  | Hill_climb _ -> "hc"
  | m -> method_name m

let method_params = function
  | Heuristic_1 | Exact -> []
  | Heuristic_2 { time_limit_s } | Greedy { time_budget_s = time_limit_s } ->
    [ Time_limit time_limit_s ]
  | Hill_climb { time_limit_s; max_rounds } -> [ Time_limit time_limit_s; Rounds max_rounds ]
  | Partition { time_budget_s; regions } -> [ Time_limit time_budget_s; Regions regions ]

let method_tokens = List.map method_token (all_methods default_params)

let param_error = function
  | Time_limit t when not (t > 0.0) -> Some "time limit must be positive"
  | Rounds r when r <= 0 -> Some "rounds must be positive"
  | Regions k when k < 0 -> Some "regions must be non-negative (0 = automatic)"
  | Time_limit _ | Rounds _ | Regions _ -> None

let method_of_token token params =
  match List.find_opt (fun m -> method_token m = token) (all_methods params) with
  | None ->
    Error
      (Printf.sprintf "unknown method %S (%s)" token (String.concat "|" method_tokens))
  | Some m -> (
    match List.find_map param_error (method_params m) with
    | Some msg -> Error msg
    | None -> Ok m)

(* Sized so a region's incremental STA cone stays cache-resident while
   the count still leaves every worker of a typical pool busy. *)
let auto_regions gates = max 2 (min 16 (gates / 25_000))

type result = {
  method_name : string;
  library_mode : string;
  assignment : Assignment.t;
  breakdown : Evaluate.breakdown;
  delay : float;
  budget : float;
  delay_fast : float;
  delay_slow : float;
  penalty : float;
  runtime_s : float;
  stats : Search_stats.t;
  degraded : bool;
}

(* Partition-and-conquer: FM min-cut decomposition, data-parallel
   per-region greedy optimization against frozen interface contracts,
   then global reconciliation.  [sta] must be all-fast with the budget
   installed — the timing frozen into the region contracts.

   The anytime contract holds at the two ends: the seed incumbent
   (all-fast on the scanned assumption vector) is emitted before any
   region work, the reconciled stitched result is emitted only if it
   improves on the seed, and the returned best is whichever is lower.
   The result is bit-identical for any [jobs]: the decomposition depends
   only on the netlist, every region solve is deterministic and
   self-contained, and results are merged in region-index order — when
   the timer cuts a region solve short the identity instead holds for
   equal budgets, and the stop reason reports [Exhausted] only when
   every region finished its pass. *)
let run_partition ?(on_incumbent = fun _ -> ()) ?interrupt ~jobs ~stats ~timer ~regions:k
    lib sta =
  let net = Sta.netlist sta in
 Telemetry.span "partition.run"
   ~fields:[ ("regions", Json.Int k); ("jobs", Json.Int jobs) ]
   (fun () ->
  (* Whole-circuit seed scan: the assumption sleep vector the region
     contracts freeze, and the first (all-fast, feasible) incumbent. *)
  let seed_leaf, values, _ = Greedy.seed ~stats lib net in
  let vector = Array.copy seed_leaf.State_tree.vector in
  let choices = Array.copy seed_leaf.State_tree.choices in
  let emit leaf =
    stats.Search_stats.leaves <- stats.Search_stats.leaves + 1;
    stats.Search_stats.incumbent_updates <- stats.Search_stats.incumbent_updates + 1;
    on_incumbent leaf;
    leaf
  in
  ignore (emit seed_leaf);
  let fm = Fm.run ~regions:k net in
  let regions = Region.extract net fm ~sta ~vector ~values in
  (* Per-region solve: the region's admissible sleep vectors feed the
     greedy seed scan, the frozen-boundary workspace supplies timing.
     Each call owns its stats record — merged in region-index order
     below, so the aggregate is jobs-independent too. *)
  let solver r =
    let rsta = Region.make_sta lib r in
    let rstats = Search_stats.create () in
    let raw =
      Greedy.seed_vectors ~seed:r.Region.index ~count:8
        (Netlist.input_count r.Region.net)
    in
    let outcome =
      Greedy.run ~candidates:(Region.candidates r raw) ?interrupt ~stats:rstats ~timer
        lib rsta
    in
    (outcome, rstats)
  in
  let results = Region_opt.run ~jobs ~solver regions in
  Array.iter (fun (_, rstats) -> Search_stats.merge_into stats rstats) results;
  (* Stitch: each region rewrites only the vector positions it owns. *)
  Array.iteri
    (fun i (outcome, _) ->
      let leaf = outcome.State_tree.best in
      Array.iter
        (fun (p, gp) -> vector.(gp) <- leaf.State_tree.vector.(p))
        regions.(i).Region.free_positions)
    results;
  (* Under the export-preservation contract the stitched simulation
     agrees with every region's own, so the regions' per-state option
     choices transfer unchanged. *)
  let gvalues = Simulator.eval net vector in
  let gstates = Simulator.gate_states net gvalues in
  Array.iteri
    (fun i (outcome, _) ->
      let leaf = outcome.State_tree.best in
      let to_global = regions.(i).Region.to_global in
      Netlist.iter_gates regions.(i).Region.net (fun sid _ _ ->
          choices.(to_global.(sid)) <- leaf.State_tree.choices.(sid)))
    results;
  let recon = Reconcile.run lib sta ~states:gstates ~choices in
  let total = ref 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      total :=
        !total +. (Library.options lib kind ~state:gstates.(id)).(choices.(id)).Version.leakage);
  (* The repaired leakage can never beat the admissible lower bound of
     its own (fully known) vector. *)
  let bound = Bound.create lib net in
  let lower = (Bound.evaluate bound (Array.map Logic.of_bool gvalues)).Bound.lower in
  assert (!total >= lower -. 1e-9);
  let reasons = Array.map (fun (o, _) -> o.State_tree.stop_reason) results in
  let stop_reason =
    if Array.mem State_tree.Interrupted reasons then State_tree.Interrupted
    else if Array.mem State_tree.Timed_out reasons then State_tree.Timed_out
    else State_tree.Exhausted
  in
  Telemetry.add_fields
    [
      ("cut_nets", Json.Int fm.Fm.cut_nets);
      ("extracted", Json.Int (Array.length regions));
      ("reconcile_repairs", Json.Int recon.Reconcile.repairs);
      ("seed_leakage", Json.Float seed_leaf.State_tree.leakage);
      ("stitched_leakage", Json.Float !total);
    ];
  let best =
    if !total < seed_leaf.State_tree.leakage -. 1e-18 then
      emit { State_tree.vector; choices; leakage = !total }
    else seed_leaf
  in
  { State_tree.best; stop_reason })

let run ?config ?deadline_s ?interrupt ?on_incumbent ?(jobs = 1) lib net ~penalty method_ =
  if penalty < 0.0 then invalid_arg "Optimizer.run: negative delay penalty";
  if jobs < 1 then invalid_arg "Optimizer.run: jobs must be at least 1";
 Telemetry.span "optimizer.run"
   ~fields:
     [
       ("method", Json.String (method_name method_));
       ("circuit", Json.String (Standby_netlist.Netlist.design_name net));
       ("inputs", Json.Int (Standby_netlist.Netlist.input_count net));
       ("gates", Json.Int (Standby_netlist.Netlist.gate_count net));
       ("penalty", Json.Float penalty);
     ]
   (fun () ->
  let stats = Search_stats.create () in
  let started = Timer.unlimited () in
  let deadline = Option.map (fun limit_s -> Timer.start ~limit_s) deadline_s in
  let with_deadline t = match deadline with None -> t | Some d -> Timer.earliest t d in
  let sta = Telemetry.span "sta.init" (fun () -> Sta.create lib net) in
  let delay_fast = Sta.circuit_delay sta in
  let delay_slow = Telemetry.span "sta.all_slow_delay" (fun () -> Sta.slowest_delay sta) in
  let budget = delay_fast +. (penalty *. (delay_slow -. delay_fast)) in
  Sta.set_budget sta budget;
  let outcome =
    match method_ with
    | Greedy { time_budget_s } ->
      (* The anytime path: no state tree, no bound — one pass of the
         gate tree's step in sensitivity order, sequential by design
         (every step reads the slack the previous one left). *)
      Greedy.run ?on_incumbent ?interrupt ~stats
        ~timer:(with_deadline (Timer.start ~limit_s:time_budget_s))
        lib sta
    | Partition { time_budget_s; regions } ->
      let gates = Netlist.gate_count net in
      let k =
        min (if regions > 0 then regions else auto_regions gates) (max 1 gates)
      in
      let timer = with_deadline (Timer.start ~limit_s:time_budget_s) in
      if k <= 1 then
        (* One region is just the flat anytime path. *)
        Greedy.run ?on_incumbent ?interrupt ~stats ~timer lib sta
      else run_partition ?on_incumbent ?interrupt ~jobs ~stats ~timer ~regions:k lib sta
    | Heuristic_1 | Heuristic_2 _ | Hill_climb _ | Exact ->
      let bound = Bound.create lib net in
      let timer, max_leaves, exact_gate_tree =
        match method_ with
        | Heuristic_1 | Hill_climb _ -> (Timer.unlimited (), Some 1, false)
        | Heuristic_2 { time_limit_s } -> (Timer.start ~limit_s:time_limit_s, None, false)
        | Exact | Greedy _ | Partition _ -> (Timer.unlimited (), None, true)
      in
      (* Parallel subtree search pays off when the whole tree is walked;
         a single bound-guided descent (Heuristic 1) stays sequential. *)
      let deadline = Option.value deadline ~default:(Timer.unlimited ()) in
      if jobs > 1 && max_leaves = None then
        State_tree.search_parallel ?config ?on_incumbent ?interrupt ~jobs ~stats ~timer
          ~deadline ~max_leaves ~exact_gate_tree bound lib sta
      else
        State_tree.search ?config ?on_incumbent ?interrupt ~stats ~timer ~deadline
          ~max_leaves ~exact_gate_tree bound lib sta
  in
  (* Degraded = something external — the deadline or the caller's
     [interrupt] — cut the search short of the method's own stopping
     rule. *)
  let interrupted =
    outcome.State_tree.stop_reason = State_tree.Interrupted && interrupt <> None
  in
  let degraded =
    interrupted
    ||
    match (deadline, outcome.State_tree.stop_reason) with
    | Some d, (State_tree.Timed_out | State_tree.Interrupted) -> Timer.expired d
    | _ -> false
  in
  let leaf = outcome.State_tree.best in
  let leaf =
    match method_ with
    (* A cancelled run skips refinement: the caller asked for the search
       to stop, not for up to [time_limit_s] more hill climbing. *)
    | Hill_climb { time_limit_s; max_rounds } when not interrupted ->
      let refine_timer = with_deadline (Timer.start ~limit_s:time_limit_s) in
      Refine.hill_climb ~max_rounds ~stats ~timer:refine_timer lib sta ~start:leaf
    | Hill_climb _ | Heuristic_1 | Heuristic_2 _ | Exact | Greedy _ | Partition _ -> leaf
  in
  let assignment =
    Assignment.of_choices lib net ~vector:leaf.State_tree.vector
      ~choices:leaf.State_tree.choices
  in
  let breakdown = Evaluate.of_assignment lib net assignment in
  (* Re-install the winning leaf in the workspace to report its delay
     (heuristic 2 may have explored past it). *)
  Gate_tree.install lib sta ~states:assignment.Assignment.gate_state
    assignment.Assignment.option_choice;
  let delay = Sta.circuit_delay sta in
  assert (delay <= budget *. (1.0 +. 1e-9));
  let runtime_s = Timer.elapsed_s started in
  Metrics.incr m_runs;
  if degraded then Metrics.incr m_degraded;
  Metrics.observe m_runtime runtime_s;
  Metrics.add m_state_nodes stats.Search_stats.state_nodes;
  Metrics.add m_leaves stats.Search_stats.leaves;
  Metrics.add m_pruned stats.Search_stats.pruned;
  Metrics.add m_gate_changes stats.Search_stats.gate_changes;
  Metrics.add m_bound_evals stats.Search_stats.bound_evaluations;
  Metrics.add m_incumbents stats.Search_stats.incumbent_updates;
  Metrics.add m_restarts stats.Search_stats.restarts;
  Telemetry.add_fields
    (("leakage", Json.Float breakdown.Evaluate.total)
     :: ("delay", Json.Float delay)
     :: ("budget", Json.Float budget)
     :: ("degraded", Json.Bool degraded)
     :: ("runtime_s", Json.Float runtime_s)
     :: Search_stats.fields stats);
  {
    method_name = method_name method_;
    library_mode = Version.mode_name (Library.mode lib);
    assignment;
    breakdown;
    delay;
    budget;
    delay_fast;
    delay_slow;
    penalty;
    runtime_s;
    stats;
    degraded;
  })

