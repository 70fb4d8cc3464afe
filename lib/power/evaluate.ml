module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind
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

   One pass counts, for every gate, the lanes in each input state over
   the whole vector set (Bitsim's exact integer totals).  Blocks are
   dealt to worker domains in contiguous ranges, each worker counting
   into a private Bitsim, and the workers merge by integer addition: the
   counts are identical for any [jobs].  A reduction then weighs the
   counts against the library's per-state tables, once, in gate and
   state order. *)

let random_state_counts ?(vectors = 10_000) ?(jobs = 1) ~seed net =
  if vectors <= 0 then invalid_arg "Evaluate: vectors must be positive";
  Telemetry.span "bitsim.random_average" (fun () ->
      let n_blocks = Bitsim.block_count ~vectors in
      let jobs = max 1 (min jobs n_blocks) in
      let count_range w =
        let bsim = Bitsim.create net in
        Bitsim.count_blocks bsim ~seed ~vectors ~first:(w * n_blocks / jobs)
          ~last:((w + 1) * n_blocks / jobs);
        bsim
      in
      let parts =
        if jobs = 1 then [| count_range 0 |]
        else Pool.map ~workers:jobs count_range (Array.init jobs Fun.id)
      in
      for w = 1 to jobs - 1 do
        Bitsim.merge ~into:parts.(0) parts.(w)
      done;
      Metrics.add m_bitsim_blocks n_blocks;
      Metrics.add m_bitsim_words (n_blocks * Netlist.gate_count net);
      Telemetry.add_fields
        [ ("vectors", Json.Int vectors); ("blocks", Json.Int n_blocks); ("jobs", Json.Int jobs) ];
      Bitsim.counts parts.(0))

(* Σ count × table over every (gate, state), in gate order and state
   order, divided by the vector count.  [leak], [sub] and [gat] give a
   cell kind's per-state tables in amperes. *)
let reduce net counts ~leak ~sub ~gat =
  let acc = Array.make 3 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      let l = leak kind and s = sub kind and g = gat kind in
      for st = 0 to Gate_kind.state_count kind - 1 do
        let c = Bitsim.count counts id st in
        if c <> 0 then begin
          let fc = float_of_int c in
          acc.(0) <- acc.(0) +. (fc *. l.(st));
          acc.(1) <- acc.(1) +. (fc *. s.(st));
          acc.(2) <- acc.(2) +. (fc *. g.(st))
        end
      done);
  let k = float_of_int (Bitsim.vectors counts) in
  { total = acc.(0) /. k; isub = acc.(1) /. k; igate = acc.(2) /. k }

let fast_average lib net counts =
  let info kind = Library.info lib kind in
  reduce net counts
    ~leak:(fun kind -> (info kind).Library.fast_leakage)
    ~sub:(fun kind -> (info kind).Library.fast_isub)
    ~gat:(fun kind -> (info kind).Library.fast_igate)

let slowest_average lib net counts =
  let zero = Array.make 16 0.0 in
  reduce net counts
    ~leak:(fun kind -> (Library.info lib kind).Library.slowest_leakage)
    ~sub:(fun _ -> zero)
    ~gat:(fun _ -> zero)

let random_vector_average ?vectors ?jobs ~seed lib net =
  fast_average lib net (random_state_counts ?vectors ?jobs ~seed net)

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
