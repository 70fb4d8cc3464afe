module Netlist = Standby_netlist.Netlist
module Sta = Standby_timing.Sta
module Logic = Standby_sim.Logic
module Simulator = Standby_sim.Simulator
module Workspace = Standby_sim.Simulator.Workspace
module Library = Standby_cells.Library
module Pool = Standby_pool.Pool
module Timer = Standby_util.Timer
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Json = Standby_telemetry.Json

(* Registered at module initialization; updated lock-free from worker
   domains. *)
let m_sim_events =
  Metrics.counter Metrics.default "sim.events"
    ~help:"Three-valued propagation events in search workspaces"
let m_subtrees =
  Metrics.counter Metrics.default "search.subtrees"
    ~help:"Subtree tasks executed by the parallel state search"
let m_subtree_prunes =
  Metrics.counter Metrics.default "search.subtree_prunes"
    ~help:"Subtree tasks cut entirely by their prefix bound"

type config = {
  use_bound_ordering : bool;
  gate_order : Gate_tree.order;
  prune_with_bound : bool;
}

let default_config =
  { use_bound_ordering = true; gate_order = Gate_tree.By_saving; prune_with_bound = true }

type leaf = { vector : bool array; choices : int array; leakage : float }

type stop_reason = Exhausted | Leaf_limit | Timed_out | Interrupted

type outcome = { best : leaf; stop_reason : stop_reason }

(* Primary inputs ordered by descending fan-out: deciding influential
   inputs first makes early bounds informative. *)
let input_order net =
  let inputs = Netlist.inputs net in
  let ids = Array.copy inputs in
  let weight id = Netlist.fanout_count net id in
  Array.sort (fun a b -> compare (weight b) (weight a)) ids;
  (* Node ids are dense, so an array maps back to vector positions. *)
  let position = Array.make (Netlist.node_count net) 0 in
  Array.iteri (fun pos id -> position.(id) <- pos) inputs;
  Array.map (fun id -> position.(id)) ids

let stop_reason_name = function
  | Exhausted -> "exhausted"
  | Leaf_limit -> "leaf-limit"
  | Timed_out -> "timed-out"
  | Interrupted -> "interrupted"

(* For aggregating workers' reasons: the most externally-forced stop
   describes the run. *)
let reason_rank = function Exhausted -> 0 | Leaf_limit -> 1 | Timed_out -> 2 | Interrupted -> 3

(* Search-wide immutable context plus the two cross-worker atomics: the
   incumbent leakage (so pruning bounds stay global) and the completed
   leaf count (so every stop condition still waits for the first full
   descent, wherever it happens). *)
type ctx = {
  net : Netlist.t;
  inputs : int array;
  n_inputs : int;
  order : int array;
  config : config;
  lib : Library.t;
  bound : Bound.t;
  timer : Timer.t;
  deadline : Timer.t;
  max_leaves : int option;
  exact_gate_tree : bool;
  interrupt : unit -> bool;
  on_incumbent : (leaf -> unit) option;
  best_leak : float Atomic.t;
  leaves_done : int Atomic.t;
}

(* Per-worker mutable state: the event-driven simulation workspace, the
   bound contributions it maintains, a private STA, private counters
   (merged deterministically at the end) and the subtree-local best. *)
type engine = {
  ws : Workspace.t;
  inc : Bound.incremental;
  touch : int -> unit;
  sta : Sta.t;
  stats : Search_stats.t;
  bvals : bool array;
  mutable sub_best : leaf option;
  mutable sub_best_leak : float;
  mutable stop_reason : stop_reason;
}

let make_engine ctx sta stats =
  let ws = Workspace.create ctx.net in
  let inc = Bound.incremental ctx.bound (Workspace.values ws) in
  {
    ws;
    inc;
    touch = (fun id -> Bound.refresh inc id);
    sta;
    stats;
    bvals = Array.make (Netlist.node_count ctx.net) false;
    sub_best = None;
    sub_best_leak = infinity;
    stop_reason = Exhausted;
  }

(* A timer or the caller's interrupt; the reason it records stands. *)
let cut ctx eng timer =
  if Timer.expired timer then eng.stop_reason <- Timed_out
  else if ctx.interrupt () then eng.stop_reason <- Interrupted;
  eng.stop_reason <> Exhausted

(* All stop conditions wait for the first complete descent (anywhere)
   so a solution is always available. *)
let stop ctx eng =
  eng.stop_reason <> Exhausted
  || Atomic.get ctx.leaves_done > 0
  && begin
       if
         match ctx.max_leaves with
         | Some k -> Atomic.get ctx.leaves_done >= k
         | None -> false
       then begin
         eng.stop_reason <- Leaf_limit;
         true
       end
       else cut ctx eng ctx.timer
     end

(* Lower the global incumbent to [leak]; true when this worker won the
   race (and should report the leaf). *)
let claim_incumbent ctx leak =
  let rec go () =
    let cur = Atomic.get ctx.best_leak in
    leak < cur && (Atomic.compare_and_set ctx.best_leak cur leak || go ())
  in
  go ()

(* Bound of one branch: assume the input, read the incrementally
   maintained totals, retract.  Cost scales with the input's cone, not
   the netlist. *)
let probe eng position v =
  eng.stats.Search_stats.bound_evaluations <- eng.stats.Search_stats.bound_evaluations + 1;
  Workspace.assume ~on_touch:eng.touch eng.ws position v;
  let b = Bound.current eng.inc in
  Workspace.retract ~on_touch:eng.touch eng.ws;
  b

let evaluate_leaf ctx eng =
  Atomic.incr ctx.leaves_done;
  eng.stats.Search_stats.leaves <- eng.stats.Search_stats.leaves + 1;
  (* Every input is decided, so the workspace holds a complete
     simulation — no fresh [eval] pass needed. *)
  let wvals = Workspace.values eng.ws in
  for id = 0 to Array.length eng.bvals - 1 do
    eng.bvals.(id) <-
      (match wvals.(id) with
       | Logic.True -> true
       | Logic.False -> false
       | Logic.Unknown -> assert false)
  done;
  let vector = Array.map (fun id -> eng.bvals.(id)) ctx.inputs in
  let states = Simulator.gate_states ctx.net eng.bvals in
  (* Both gate trees poll only the stops from outside the method, so a
     deadline or a disconnect reaches inside the first descent while
     Heuristic 2's own budget never cuts a leaf short. *)
  let stop () = cut ctx eng ctx.deadline in
  let result =
    if ctx.exact_gate_tree then
      Gate_tree.exact ~interrupt:stop ~stats:eng.stats ctx.lib eng.sta ~states
    else
      Gate_tree.greedy ~order:ctx.config.gate_order ~stop ~stats:eng.stats ctx.lib eng.sta
        ~states
  in
  let leakage = result.Gate_tree.leakage in
  if leakage < eng.sub_best_leak then begin
    eng.sub_best_leak <- leakage;
    eng.sub_best <- Some { vector; choices = result.Gate_tree.choices; leakage }
  end;
  if claim_incumbent ctx leakage then begin
    eng.stats.Search_stats.incumbent_updates <-
      eng.stats.Search_stats.incumbent_updates + 1;
    if Telemetry.tracing () then begin
      (* The gate-tree searches leave the STA reflecting their winning
         assignment, so the current circuit delay is the incumbent's. *)
      let delay = Sta.circuit_delay eng.sta in
      Telemetry.event "incumbent"
        ~fields:
          (("leakage", Json.Float leakage)
           :: ("delay", Json.Float delay)
           :: ("slack", Json.Float (Sta.budget eng.sta -. delay))
           :: Search_stats.fields eng.stats)
    end;
    match ctx.on_incumbent with
    | Some f -> f { vector; choices = result.Gate_tree.choices; leakage }
    | None -> ()
  end

let rec explore ctx eng depth =
  if not (stop ctx eng) then begin
    if depth = ctx.n_inputs then evaluate_leaf ctx eng
    else begin
      eng.stats.Search_stats.state_nodes <- eng.stats.Search_stats.state_nodes + 1;
      let position = ctx.order.(depth) in
      let branches =
        if ctx.config.use_bound_ordering || ctx.config.prune_with_bound then begin
          let b0 = probe eng position Logic.False in
          let b1 = probe eng position Logic.True in
          (* Order by the expectation-style estimate; prune with the
             admissible lower bound. *)
          if ctx.config.use_bound_ordering && b1.Bound.estimate < b0.Bound.estimate then
            [ (true, b1.Bound.lower); (false, b0.Bound.lower) ]
          else [ (false, b0.Bound.lower); (true, b1.Bound.lower) ]
        end
        else [ (false, neg_infinity); (true, neg_infinity) ]
      in
      List.iter
        (fun (value, branch_lower) ->
          if not (stop ctx eng) then begin
            if ctx.config.prune_with_bound && branch_lower >= Atomic.get ctx.best_leak then
              eng.stats.Search_stats.pruned <- eng.stats.Search_stats.pruned + 1
            else begin
              Workspace.assume ~on_touch:eng.touch eng.ws position (Logic.of_bool value);
              explore ctx eng (depth + 1);
              Workspace.retract ~on_touch:eng.touch eng.ws
            end
          end)
        branches
    end
  end

(* Run subtree [k] of [2^split]: the bits of [k] (msb first) fix the
   first [split] inputs in branch order, then [explore] finishes the
   remaining levels.  Prefix assumptions are bound-checked level by
   level so a dominated subtree costs one cone propagation, not a
   descent. *)
let run_subtree ctx eng ~split k =
  eng.sub_best <- None;
  eng.sub_best_leak <- infinity;
  eng.stop_reason <- Exhausted;
  let rec go d =
    if d = split then explore ctx eng d
    else begin
      let v = (k lsr (split - 1 - d)) land 1 = 1 in
      Workspace.assume ~on_touch:eng.touch eng.ws ctx.order.(d) (Logic.of_bool v);
      let keep =
        if ctx.config.prune_with_bound then begin
          eng.stats.Search_stats.bound_evaluations <-
            eng.stats.Search_stats.bound_evaluations + 1;
          (Bound.current eng.inc).Bound.lower < Atomic.get ctx.best_leak
        end
        else true
      in
      if keep then go (d + 1)
      else begin
        eng.stats.Search_stats.pruned <- eng.stats.Search_stats.pruned + 1;
        Metrics.incr m_subtree_prunes
      end;
      Workspace.retract ~on_touch:eng.touch eng.ws
    end
  in
  if not (stop ctx eng) then go 0;
  (eng.sub_best, eng.stop_reason)

let make_ctx ?(config = default_config) ?on_incumbent ?(interrupt = fun () -> false)
    ~timer ~deadline ~max_leaves ~exact_gate_tree bound lib net =
  {
    net;
    inputs = Netlist.inputs net;
    n_inputs = Netlist.input_count net;
    order = input_order net;
    config;
    lib;
    bound;
    timer = Timer.earliest timer deadline;
    deadline;
    max_leaves;
    exact_gate_tree;
    interrupt;
    on_incumbent;
    best_leak = Atomic.make infinity;
    leaves_done = Atomic.make 0;
  }

let search ?config ?on_incumbent ?interrupt ~stats ~timer ~deadline ~max_leaves
    ~exact_gate_tree bound lib sta =
  let net = Sta.netlist sta in
  Telemetry.span "state_tree.search"
    ~fields:
      [
        ("inputs", Json.Int (Netlist.input_count net));
        ("exact_gate_tree", Json.Bool exact_gate_tree);
      ]
    (fun () ->
      let ctx =
        make_ctx ?config ?on_incumbent ?interrupt ~timer ~deadline ~max_leaves
          ~exact_gate_tree bound lib net
      in
      let eng = make_engine ctx sta stats in
      let best, stop_reason = run_subtree ctx eng ~split:0 0 in
      Metrics.add m_sim_events (Workspace.events eng.ws);
      Sta.flush_counters sta;
      Telemetry.add_fields
        (("stop_reason", Json.String (stop_reason_name stop_reason))
         :: Search_stats.fields stats);
      match best with
      | Some leaf -> { best = leaf; stop_reason }
      | None -> assert false (* at least one descent always completes *))

let search_parallel ?config ?on_incumbent ?interrupt ~jobs ~stats ~timer ~deadline ~max_leaves
    ~exact_gate_tree bound lib sta =
  if jobs <= 1 then
    search ?config ?on_incumbent ?interrupt ~stats ~timer ~deadline ~max_leaves
      ~exact_gate_tree bound lib sta
  else
    let net = Sta.netlist sta in
    Telemetry.span "state_tree.search_parallel"
      ~fields:
        [
          ("inputs", Json.Int (Netlist.input_count net));
          ("exact_gate_tree", Json.Bool exact_gate_tree);
          ("jobs", Json.Int jobs);
        ]
      (fun () ->
        (* Serialize the caller's incumbent callback — it fires from
           worker domains. *)
        let cb_mutex = Mutex.create () in
        let on_incumbent =
          Option.map
            (fun f leaf ->
              Mutex.lock cb_mutex;
              Fun.protect ~finally:(fun () -> Mutex.unlock cb_mutex) (fun () -> f leaf))
            on_incumbent
        in
        let ctx =
          make_ctx ?config ?on_incumbent ?interrupt ~timer ~deadline ~max_leaves
            ~exact_gate_tree bound lib net
        in
        (* ~4 subtrees per worker gives the pool slack to balance uneven
           pruning; capped so tiny circuits and huge job counts stay
           sane. *)
        let split =
          let rec grow d =
            if 1 lsl d >= 4 * jobs || d >= 12 || d >= ctx.n_inputs then d else grow (d + 1)
          in
          grow 0
        in
        let n_sub = 1 lsl split in
        (* One engine per worker, reused across subtree tasks; each gets
           a private STA sharing only the immutable library/netlist. *)
        let budget = Sta.budget sta in
        let engines =
          Array.init jobs (fun _ ->
              let wsta = Sta.create lib net in
              Sta.set_budget wsta budget;
              make_engine ctx wsta (Search_stats.create ()))
        in
        let free = Queue.create () in
        let free_mutex = Mutex.create () in
        Array.iter (fun e -> Queue.push e free) engines;
        let take () =
          Mutex.lock free_mutex;
          (* Pool concurrency is capped at [jobs], so the free list can
             never run dry while a task executes. *)
          let e = Queue.pop free in
          Mutex.unlock free_mutex;
          e
        in
        let give e =
          Mutex.lock free_mutex;
          Queue.push e free;
          Mutex.unlock free_mutex
        in
        let results = Array.make n_sub None in
        let pool = Pool.create ~workers:jobs () in
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            for k = 0 to n_sub - 1 do
              Pool.submit pool (fun () ->
                  let eng = take () in
                  Fun.protect
                    ~finally:(fun () ->
                      (* Keep the engine reusable even if a task died
                         mid-descent. *)
                      while Workspace.depth eng.ws > 0 do
                        Workspace.retract ~on_touch:eng.touch eng.ws
                      done;
                      give eng)
                    (fun () ->
                      Metrics.incr m_subtrees;
                      results.(k) <- Some (run_subtree ctx eng ~split k)))
            done;
            Pool.wait pool);
        (* Deterministic merge: subtree index order, strict improvement,
           most-forced stop reason wins. *)
        let best = ref None in
        let best_leak = ref infinity in
        let stop_reason = ref Exhausted in
        Array.iter
          (function
            | None -> ()
            | Some (sub_best, sub_reason) ->
              if reason_rank sub_reason > reason_rank !stop_reason then
                stop_reason := sub_reason;
              (match sub_best with
               | Some lf when lf.leakage < !best_leak ->
                 best_leak := lf.leakage;
                 best := Some lf
               | _ -> ()))
          results;
        Array.iter
          (fun e ->
            Search_stats.merge_into stats e.stats;
            Metrics.add m_sim_events (Workspace.events e.ws);
            Sta.flush_counters e.sta)
          engines;
        Telemetry.add_fields
          (("stop_reason", Json.String (stop_reason_name !stop_reason))
           :: ("subtrees", Json.Int n_sub)
           :: Search_stats.fields stats);
        match !best with
        | Some leaf -> { best = leaf; stop_reason = !stop_reason }
        | None -> assert false (* the first-descent guarantee is global *))
