module Netlist = Standby_netlist.Netlist
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Bitsim = Standby_sim.Bitsim
module Pool = Standby_pool.Pool
module Telemetry = Standby_telemetry.Telemetry
module Metrics = Standby_telemetry.Metrics
module Json = Standby_telemetry.Json

type breakdown = { total : float; isub : float; igate : float }

let m_bitsim_words =
  Metrics.counter Metrics.default "sim.bitsim_words"
    ~help:"Packed 63-lane gate words evaluated"

let m_bitsim_blocks =
  Metrics.counter Metrics.default "sim.bitsim_blocks"
    ~help:"63-vector blocks simulated by the packed engine"

let of_assignment lib net (a : Assignment.t) =
  let total = ref 0.0 and isub = ref 0.0 and igate = ref 0.0 in
  Netlist.iter_gates net (fun id _ _ ->
      let entry = Assignment.choice lib net a id in
      total := !total +. entry.Version.leakage;
      isub := !isub +. entry.Version.isub;
      igate := !igate +. entry.Version.igate);
  { total = !total; isub = !isub; igate = !igate }

let fast_states lib net states =
  let total = ref 0.0 and isub = ref 0.0 and igate = ref 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      let info = Library.info lib kind in
      let s = states.(id) in
      total := !total +. info.Library.fast_leakage.(s);
      isub := !isub +. info.Library.fast_isub.(s);
      igate := !igate +. info.Library.fast_igate.(s));
  { total = !total; isub = !isub; igate = !igate }

let fast_vector lib net vector =
  let values = Standby_sim.Simulator.eval net vector in
  fast_states lib net (Standby_sim.Simulator.gate_states net values)

(* ------------------------------------------------------------------ *)
(* Packed random-vector averages.

   Vectors are processed in 63-lane blocks; each block's input words
   come from its own PRNG stream (seed + block), so the vector set and
   every per-block partial sum are pure functions of (seed, block).
   Blocks are distributed over worker domains in contiguous ranges, each
   worker owning a private Bitsim workspace and writing its per-block
   partials into disjoint slots; the final reduction always runs
   sequentially in block order.  Result: bit-identical breakdowns for
   any [jobs]. *)

(* Per-node-id leakage tables (state -> amperes), resolved once per call
   so the per-block accumulation loop does no library lookups. *)
let fast_tables lib net =
  let n = Netlist.node_count net in
  let leak = Array.make n [||] and sub = Array.make n [||] and gat = Array.make n [||] in
  Netlist.iter_gates net (fun id kind _ ->
      let info = Library.info lib kind in
      leak.(id) <- info.Library.fast_leakage;
      sub.(id) <- info.Library.fast_isub;
      gat.(id) <- info.Library.fast_igate);
  (leak, sub, gat)

let slowest_tables lib net =
  let n = Netlist.node_count net in
  let zero = Array.make 16 0.0 in
  let leak = Array.make n [||] and sub = Array.make n zero and gat = Array.make n zero in
  Netlist.iter_gates net (fun id kind _ ->
      leak.(id) <- (Library.info lib kind).Library.slowest_leakage);
  (leak, sub, gat)

let packed_average ~vectors ~jobs ~seed net (leak, sub, gat) =
  if vectors <= 0 then invalid_arg "Evaluate: vectors must be positive";
  let n_blocks = Bitsim.block_count ~vectors in
  let block_total = Array.make n_blocks 0.0 in
  let block_isub = Array.make n_blocks 0.0 in
  let block_igate = Array.make n_blocks 0.0 in
  let run_range bsim lo hi =
    (* One block's (total, isub, igate) sums, accumulated in a float
       array so the visitor below updates them unboxed. *)
    let acc = Array.make 3 0.0 in
    let visit id _ counts =
      let l = leak.(id) and s = sub.(id) and g = gat.(id) in
      for st = 0 to Array.length l - 1 do
        let c = counts.(st) in
        if c <> 0 then begin
          let fc = float_of_int c in
          acc.(0) <- acc.(0) +. (fc *. l.(st));
          acc.(1) <- acc.(1) +. (fc *. s.(st));
          acc.(2) <- acc.(2) +. (fc *. g.(st))
        end
      done
    in
    for b = lo to hi - 1 do
      Bitsim.load_block bsim ~seed ~block:b;
      Bitsim.eval bsim;
      Array.fill acc 0 3 0.0;
      Bitsim.iter_state_counts bsim ~lanes:(Bitsim.lanes_in_block ~vectors ~block:b) visit;
      block_total.(b) <- acc.(0);
      block_isub.(b) <- acc.(1);
      block_igate.(b) <- acc.(2)
    done
  in
  let jobs = max 1 (min jobs n_blocks) in
  if jobs = 1 then run_range (Bitsim.create net) 0 n_blocks
  else begin
    (* Contiguous ranges, one per worker; slots are disjoint so the
       workers never write the same array cell. *)
    let ranges =
      Array.init jobs (fun w -> (w * n_blocks / jobs, (w + 1) * n_blocks / jobs))
    in
    ignore
      (Pool.map ~workers:jobs
         (fun (lo, hi) -> run_range (Bitsim.create net) lo hi)
         ranges)
  end;
  Metrics.add m_bitsim_blocks n_blocks;
  Metrics.add m_bitsim_words (n_blocks * Netlist.gate_count net);
  Telemetry.add_fields
    [ ("vectors", Json.Int vectors); ("blocks", Json.Int n_blocks); ("jobs", Json.Int jobs) ];
  let t = ref 0.0 and i = ref 0.0 and g = ref 0.0 in
  for b = 0 to n_blocks - 1 do
    t := !t +. block_total.(b);
    i := !i +. block_isub.(b);
    g := !g +. block_igate.(b)
  done;
  let k = float_of_int vectors in
  { total = !t /. k; isub = !i /. k; igate = !g /. k }

let random_vector_average ?(vectors = 10_000) ?(jobs = 1) ~seed lib net =
  Telemetry.span "bitsim.random_average" (fun () ->
      packed_average ~vectors ~jobs ~seed net (fast_tables lib net))

let slowest_random_average ?(vectors = 10_000) ?(jobs = 1) ~seed lib net =
  Telemetry.span "bitsim.slowest_average" (fun () ->
      packed_average ~vectors ~jobs ~seed net (slowest_tables lib net))

(* The pre-packed evaluation path, kept as the oracle the packed engine
   is benchmarked and property-tested against: the same (seed, block)
   vector set, but one scalar simulation and state walk per lane. *)
let random_vector_average_scalar ?(vectors = 10_000) ~seed lib net =
  if vectors <= 0 then invalid_arg "Evaluate: vectors must be positive";
  let bsim = Bitsim.create net in
  let total = ref 0.0 and isub = ref 0.0 and igate = ref 0.0 in
  for block = 0 to Bitsim.block_count ~vectors - 1 do
    Bitsim.load_block bsim ~seed ~block;
    for lane = 0 to Bitsim.lanes_in_block ~vectors ~block - 1 do
      let b = fast_vector lib net (Bitsim.lane_vector bsim ~lane) in
      total := !total +. b.total;
      isub := !isub +. b.isub;
      igate := !igate +. b.igate
    done
  done;
  let k = float_of_int vectors in
  { total = !total /. k; isub = !isub /. k; igate = !igate /. k }

let slowest_vector lib net vector =
  let values = Standby_sim.Simulator.eval net vector in
  let states = Standby_sim.Simulator.gate_states net values in
  let total = ref 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      let info = Library.info lib kind in
      total := !total +. info.Library.slowest_leakage.(states.(id)));
  { total = !total; isub = 0.0; igate = 0.0 }
