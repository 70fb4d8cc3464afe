(* Tests for standby_power: assignments and circuit-level evaluation. *)

module Process = Standby_device.Process
module Gate_kind = Standby_netlist.Gate_kind
module Netlist = Standby_netlist.Netlist
module Version = Standby_cells.Version
module Library = Standby_cells.Library
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate
module Bitsim = Standby_sim.Bitsim

let check = Alcotest.check

let lib = Library.build Process.default

let random_circuit seed = Standby_circuits.Random_logic.generate ~seed ~inputs:8 ~gates:40 ()

let test_all_fast_consistency =
  QCheck.Test.make ~count:40 ~name:"all_fast assignment evaluates like fast_vector"
    QCheck.(make Gen.(pair (int_range 0 500) (int_range 0 255)))
    (fun (seed, v) ->
      let net = random_circuit seed in
      let vector = Array.init 8 (fun i -> (v lsr i) land 1 = 1) in
      let a = Assignment.all_fast lib net vector in
      let from_assignment = Evaluate.of_assignment lib net a in
      let direct = Evaluate.fast_vector lib net vector in
      abs_float (from_assignment.Evaluate.total -. direct.Evaluate.total)
      < 1e-18 +. (1e-9 *. direct.Evaluate.total))

let test_all_fast_uses_version_zero () =
  let net = random_circuit 3 in
  let a = Assignment.all_fast lib net (Array.make 8 false) in
  check Alcotest.int "no slow gates" 0 (Assignment.slow_gate_count lib net a)

let test_choice_rejects_inputs () =
  let net = random_circuit 3 in
  let a = Assignment.all_fast lib net (Array.make 8 true) in
  Alcotest.check_raises "input node" (Invalid_argument "Assignment.choice: primary input")
    (fun () -> ignore (Assignment.choice lib net a (Netlist.inputs net).(0)))

let test_breakdown_adds_up =
  QCheck.Test.make ~count:40 ~name:"breakdown components sum to total"
    QCheck.(make Gen.(pair (int_range 0 500) (int_range 0 255)))
    (fun (seed, v) ->
      let net = random_circuit seed in
      let vector = Array.init 8 (fun i -> (v lsr i) land 1 = 1) in
      let b = Evaluate.fast_vector lib net vector in
      abs_float (b.Evaluate.total -. (b.Evaluate.isub +. b.Evaluate.igate))
      < 1e-15 +. (1e-9 *. b.Evaluate.total))

let test_random_average_deterministic () =
  let net = random_circuit 5 in
  let a = Evaluate.random_vector_average ~vectors:500 ~seed:42 lib net in
  let b = Evaluate.random_vector_average ~vectors:500 ~seed:42 lib net in
  check (Alcotest.float 1e-15) "same seed same average" a.Evaluate.total b.Evaluate.total;
  let c = Evaluate.random_vector_average ~vectors:500 ~seed:43 lib net in
  check Alcotest.bool "different seed differs" true
    (abs_float (a.Evaluate.total -. c.Evaluate.total) > 0.0)

let test_random_average_within_state_bounds () =
  (* The average must sit between the best and worst vector of the exact
     set it averaged — re-derived lane by lane from the packed engine's
     canonical (seed, block) streams. *)
  let net = random_circuit 6 in
  let vectors = 200 in
  let avg = (Evaluate.random_vector_average ~vectors ~seed:7 lib net).Evaluate.total in
  let bsim = Bitsim.create net in
  let lo = ref infinity and hi = ref neg_infinity in
  for block = 0 to Bitsim.block_count ~vectors - 1 do
    Bitsim.load_block bsim ~seed:7 ~block;
    for lane = 0 to Bitsim.lanes_in_block ~vectors ~block - 1 do
      let t = (Evaluate.fast_vector lib net (Bitsim.lane_vector bsim ~lane)).Evaluate.total in
      lo := min !lo t;
      hi := max !hi t
    done
  done;
  check Alcotest.bool "avg within [min,max]" true (avg >= !lo && avg <= !hi)

(* ------------------------- Packed vs scalar ------------------------ *)

let close_rel x y = abs_float (x -. y) <= 1e-18 +. (1e-9 *. abs_float y)

let test_packed_matches_scalar_oracle =
  (* The acceptance property of the packed engine: same vector set as the
     scalar oracle, totals within float-reassociation noise.  The vector
     count ranges over partial, exact and multi-block geometries. *)
  QCheck.Test.make ~count:20 ~name:"packed average equals scalar oracle within 1e-9"
    QCheck.(make Gen.(pair (int_range 0 300) (int_range 1 200)))
    (fun (seed, vectors) ->
      let net = random_circuit seed in
      let p = Evaluate.random_vector_average ~vectors ~seed:11 lib net in
      let s = Evaluate.random_vector_average_scalar ~vectors ~seed:11 lib net in
      close_rel p.Evaluate.total s.Evaluate.total
      && close_rel p.Evaluate.isub s.Evaluate.isub
      && close_rel p.Evaluate.igate s.Evaluate.igate)

let test_packed_partial_tail_block () =
  (* 100 vectors = one full 63-lane block plus a 37-lane tail whose
     garbage lanes must be masked out of the histograms. *)
  let net = random_circuit 12 in
  let p = Evaluate.random_vector_average ~vectors:100 ~seed:3 lib net in
  let s = Evaluate.random_vector_average_scalar ~vectors:100 ~seed:3 lib net in
  check Alcotest.bool "tail lanes masked" true (close_rel p.Evaluate.total s.Evaluate.total)

let test_packed_jobs_deterministic () =
  let net = random_circuit 13 in
  let a = Evaluate.random_vector_average ~vectors:500 ~jobs:1 ~seed:9 lib net in
  let b = Evaluate.random_vector_average ~vectors:500 ~jobs:4 ~seed:9 lib net in
  check Alcotest.bool "jobs=1 and jobs=4 bit-identical" true
    (a.Evaluate.total = b.Evaluate.total
    && a.Evaluate.isub = b.Evaluate.isub
    && a.Evaluate.igate = b.Evaluate.igate)

(* Per-(gate, state) counts of a netlist, in gate and state order. *)
let count_array net counts =
  let cells = ref [] in
  Netlist.iter_gates net (fun id kind _ ->
      for s = 0 to Gate_kind.state_count kind - 1 do
        cells := Bitsim.count counts id s :: !cells
      done);
  Array.of_list (List.rev !cells)

let test_state_counts_jobs_identical () =
  let net = random_circuit 15 in
  let at jobs = count_array net (Evaluate.random_state_counts ~vectors:1000 ~jobs ~seed:9 net) in
  check Alcotest.(array int) "jobs=1 and jobs=3 counts" (at 1) (at 3)

let test_state_counts_no_block_allocation () =
  (* No allocation per block: the pass costs the same minor words at 10
     blocks as at 100. *)
  let net = Standby_circuits.Benchmarks.circuit "c880" in
  let words vectors =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (Evaluate.random_state_counts ~vectors ~jobs:1 ~seed:3 net));
    Gc.minor_words () -. before
  in
  ignore (words 630);
  check (Alcotest.float 0.0) "630 vs 6300 vectors" (words 630) (words 6300)

let test_slowest_average_below_fast () =
  let net = random_circuit 14 in
  let counts = Evaluate.random_state_counts ~vectors:200 ~seed:5 net in
  let slow = Evaluate.slowest_average lib net counts in
  let fast = Evaluate.fast_average lib net counts in
  check Alcotest.bool "fast reduction is the reference" true
    (fast = Evaluate.random_vector_average ~vectors:200 ~seed:5 lib net);
  check Alcotest.bool "all-slow average leaks less" true
    (slow.Evaluate.total < fast.Evaluate.total);
  check (Alcotest.float 0.0) "isub reported as zero" 0.0 slow.Evaluate.isub;
  check (Alcotest.float 0.0) "igate reported as zero" 0.0 slow.Evaluate.igate

let test_slowest_vector_below_fast =
  QCheck.Test.make ~count:30 ~name:"all-slow cells leak less than fast cells"
    QCheck.(make Gen.(pair (int_range 0 500) (int_range 0 255)))
    (fun (seed, v) ->
      let net = random_circuit seed in
      let vector = Array.init 8 (fun i -> (v lsr i) land 1 = 1) in
      (Evaluate.slowest_vector lib net vector).Evaluate.total
      < (Evaluate.fast_vector lib net vector).Evaluate.total)

let test_of_choices_roundtrip () =
  let net = random_circuit 9 in
  let vector = Array.make 8 true in
  let a = Assignment.all_fast lib net vector in
  let again = Assignment.of_choices lib net ~vector ~choices:a.Assignment.option_choice in
  check
    (Alcotest.array Alcotest.int)
    "states preserved" a.Assignment.gate_state again.Assignment.gate_state;
  check
    (Alcotest.array Alcotest.bool)
    "values preserved" a.Assignment.node_values again.Assignment.node_values

let test_min_choice_reduces_leakage () =
  (* Choosing the minimum-leakage option everywhere (ignoring delay)
     must beat all-fast. *)
  let net = random_circuit 10 in
  let vector = Array.make 8 false in
  let fast = Assignment.all_fast lib net vector in
  let min_choices = Array.make (Netlist.node_count net) 0 in
  let min_assignment = Assignment.of_choices lib net ~vector ~choices:min_choices in
  let fast_total = (Evaluate.of_assignment lib net fast).Evaluate.total in
  let min_total = (Evaluate.of_assignment lib net min_assignment).Evaluate.total in
  check Alcotest.bool "min options leak less" true (min_total < fast_total)

(* ------------------------------ Overhead -------------------------- *)

module Overhead = Standby_power.Overhead

let test_overhead_fields () =
  let net = random_circuit 3 in
  let o = Overhead.estimate lib net in
  check Alcotest.int "forced inputs" (Netlist.input_count net) o.Overhead.forced_inputs;
  check Alcotest.bool "area positive" true (o.Overhead.area_gate_equivalents > 0.0);
  check Alcotest.bool "fraction positive" true (o.Overhead.area_fraction > 0.0);
  check Alcotest.bool "control leakage positive" true (o.Overhead.control_leakage > 0.0)

let test_overhead_scales_with_inputs () =
  let small = Standby_circuits.Random_logic.generate ~seed:1 ~inputs:4 ~gates:40 () in
  let big = Standby_circuits.Random_logic.generate ~seed:1 ~inputs:16 ~gates:40 () in
  let a = Overhead.estimate lib small and b = Overhead.estimate lib big in
  check Alcotest.bool "more inputs, more overhead" true
    (b.Overhead.control_leakage > a.Overhead.control_leakage)

let test_net_reduction_below_raw () =
  let net = random_circuit 4 in
  let reference = 10e-6 and optimized = 1e-6 in
  let raw = reference /. optimized in
  let honest = Overhead.net_reduction_factor lib net ~reference ~optimized in
  check Alcotest.bool "overhead charges the factor" true (honest < raw);
  check Alcotest.bool "still a reduction" true (honest > 1.0)

(* ---------------------------- Direct oracle ----------------------- *)

module Direct_eval = Standby_power.Direct_eval
module Optimizer = Standby_opt.Optimizer

let test_direct_matches_tables =
  QCheck.Test.make ~count:10
    ~name:"table-based evaluation equals direct transistor-level re-solve"
    QCheck.(make Gen.(pair (int_range 0 300) (int_range 0 255)))
    (fun (seed, v) ->
      let net = random_circuit seed in
      let vector = Array.init 8 (fun i -> (v lsr i) land 1 = 1) in
      let a = Assignment.all_fast lib net vector in
      let tabled = Evaluate.of_assignment lib net a in
      let direct = Direct_eval.of_assignment lib net a in
      abs_float (tabled.Evaluate.total -. direct.Evaluate.total)
      < 1e-15 +. (1e-6 *. tabled.Evaluate.total))

let test_direct_matches_optimized () =
  (* The full chain — states, option indices, versions, permutations —
     agrees with first principles on an optimized solution too. *)
  let net = random_circuit 31 in
  let r = Optimizer.run lib net ~penalty:0.10 Optimizer.Heuristic_1 in
  let a = r.Optimizer.assignment in
  let tabled = Evaluate.of_assignment lib net a in
  let direct = Direct_eval.of_assignment lib net a in
  let close x y = abs_float (x -. y) < 1e-15 +. (1e-6 *. abs_float y) in
  check Alcotest.bool "total" true (close tabled.Evaluate.total direct.Evaluate.total);
  check Alcotest.bool "isub" true (close tabled.Evaluate.isub direct.Evaluate.isub);
  check Alcotest.bool "igate" true (close tabled.Evaluate.igate direct.Evaluate.igate)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_power"
    [
      ( "assignment",
        [
          QCheck_alcotest.to_alcotest test_all_fast_consistency;
          quick "all fast no slow gates" test_all_fast_uses_version_zero;
          quick "choice rejects inputs" test_choice_rejects_inputs;
          quick "of_choices roundtrip" test_of_choices_roundtrip;
        ] );
      ( "evaluate",
        [
          QCheck_alcotest.to_alcotest test_breakdown_adds_up;
          quick "random average deterministic" test_random_average_deterministic;
          quick "average within bounds" test_random_average_within_state_bounds;
          QCheck_alcotest.to_alcotest test_slowest_vector_below_fast;
          quick "min options beat fast" test_min_choice_reduces_leakage;
        ] );
      ( "packed-engine",
        [
          QCheck_alcotest.to_alcotest test_packed_matches_scalar_oracle;
          quick "partial tail block" test_packed_partial_tail_block;
          quick "jobs determinism" test_packed_jobs_deterministic;
          quick "state counts jobs=1 = jobs=3" test_state_counts_jobs_identical;
          quick "no per-block allocation" test_state_counts_no_block_allocation;
          quick "slowest average" test_slowest_average_below_fast;
        ] );
      ( "overhead",
        [
          quick "fields" test_overhead_fields;
          quick "scales with inputs" test_overhead_scales_with_inputs;
          quick "net reduction" test_net_reduction_below_raw;
        ] );
      ( "direct-oracle",
        [
          QCheck_alcotest.to_alcotest test_direct_matches_tables;
          quick "optimized solution" test_direct_matches_optimized;
        ] );
    ]
