(* Tests for standby_circuits: generators produce valid netlists with
   the requested shape and the correct arithmetic behaviour. *)

module Netlist = Standby_netlist.Netlist
module Bench_io = Standby_netlist.Bench_io
module Simulator = Standby_sim.Simulator
module Prng = Standby_util.Prng
module Random_logic = Standby_circuits.Random_logic
module Adder = Standby_circuits.Adder
module Multiplier = Standby_circuits.Multiplier
module Alu = Standby_circuits.Alu
module Benchmarks = Standby_circuits.Benchmarks

let check = Alcotest.check

let int_of_outputs out limit =
  let v = ref 0 in
  Array.iteri (fun i bit -> if i < limit && bit then v := !v lor (1 lsl i)) out;
  !v

(* --------------------------- Random logic ------------------------- *)

let test_random_logic_shape =
  QCheck.Test.make ~count:30 ~name:"random logic has requested inputs/gates and is valid"
    QCheck.(make Gen.(triple (int_range 0 100_000) (int_range 1 40) (int_range 20 120)))
    (fun (seed, inputs, gates) ->
      let net = Random_logic.generate ~seed ~inputs ~gates () in
      Netlist.input_count net = inputs
      && Netlist.gate_count net = gates
      && Result.is_ok (Netlist.validate net))

let test_random_logic_deterministic () =
  let a = Random_logic.generate ~seed:5 ~inputs:10 ~gates:50 () in
  let b = Random_logic.generate ~seed:5 ~inputs:10 ~gates:50 () in
  check Alcotest.string "same seed same netlist" (Bench_io.to_string a) (Bench_io.to_string b)

let test_random_logic_seed_changes () =
  let a = Random_logic.generate ~seed:5 ~inputs:10 ~gates:50 () in
  let b = Random_logic.generate ~seed:6 ~inputs:10 ~gates:50 () in
  check Alcotest.bool "different seeds differ" true
    (Bench_io.to_string a <> Bench_io.to_string b)

let test_random_logic_all_inputs_used =
  QCheck.Test.make ~count:30 ~name:"no floating primary inputs"
    QCheck.(make Gen.(pair (int_range 0 100_000) (int_range 1 60)))
    (fun (seed, inputs) ->
      let gates = max 25 inputs in
      let net = Random_logic.generate ~seed ~inputs ~gates () in
      Array.for_all (fun id -> Netlist.fanout_count net id > 0) (Netlist.inputs net))

let test_random_logic_rejects_bad_args () =
  Alcotest.check_raises "no inputs"
    (Invalid_argument "Random_logic.generate: need at least one input") (fun () ->
      ignore (Random_logic.generate ~seed:1 ~inputs:0 ~gates:10 ()))

(* ------------------------------ Adders ---------------------------- *)

let adder_check name net bits =
  let rng = Prng.create ~seed:99 in
  for _ = 1 to 300 do
    let x = Prng.int rng ~bound:(1 lsl bits) in
    let y = Prng.int rng ~bound:(1 lsl bits) in
    let cin = Prng.int rng ~bound:2 in
    let vec =
      Array.concat
        [ Array.init bits (fun i -> (x lsr i) land 1 = 1);
          Array.init bits (fun i -> (y lsr i) land 1 = 1);
          [| cin = 1 |] ]
    in
    let out = Simulator.output_vector net vec in
    let got = int_of_outputs out (bits + 1) in
    if got <> x + y + cin then
      Alcotest.failf "%s: %d + %d + %d = %d, got %d" name x y cin (x + y + cin) got
  done

let test_ripple_carry () = adder_check "ripple8" (Adder.ripple_carry ~bits:8 ()) 8

let test_ripple_carry_one_bit () = adder_check "ripple1" (Adder.ripple_carry ~bits:1 ()) 1

let test_carry_select () = adder_check "csel8" (Adder.carry_select ~bits:8 ~block:3 ()) 8

let test_carry_select_blocks =
  QCheck.Test.make ~count:10 ~name:"carry-select correct for various block sizes"
    QCheck.(make Gen.(pair (int_range 1 6) (int_range 4 10)))
    (fun (block, bits) ->
      let net = Adder.carry_select ~bits ~block () in
      (try
         adder_check "csel" net bits;
         true
       with _ -> false))

let test_carry_select_shallower () =
  let ripple = Adder.ripple_carry ~bits:16 () in
  let csel = Adder.carry_select ~bits:16 ~block:4 () in
  check Alcotest.bool "carry-select is shallower" true
    (Netlist.depth csel < Netlist.depth ripple)

let test_adder_bad_args () =
  Alcotest.check_raises "bits" (Invalid_argument "Adder.ripple_carry: bits must be positive")
    (fun () -> ignore (Adder.ripple_carry ~bits:0 ()))

(* ---------------------------- Multiplier -------------------------- *)

let test_multiplier_correct =
  QCheck.Test.make ~count:5 ~name:"array multiplier computes products"
    QCheck.(make Gen.(int_range 2 6))
    (fun bits ->
      let net = Multiplier.array_multiplier ~bits () in
      let rng = Prng.create ~seed:3 in
      let ok = ref true in
      for _ = 1 to 100 do
        let x = Prng.int rng ~bound:(1 lsl bits) in
        let y = Prng.int rng ~bound:(1 lsl bits) in
        let vec =
          Array.append
            (Array.init bits (fun i -> (x lsr i) land 1 = 1))
            (Array.init bits (fun i -> (y lsr i) land 1 = 1))
        in
        let got = int_of_outputs (Simulator.output_vector net vec) (2 * bits) in
        if got <> x * y then ok := false
      done;
      !ok)

let test_multiplier_shape () =
  let net = Multiplier.array_multiplier ~bits:16 () in
  check Alcotest.int "inputs" 32 (Netlist.input_count net);
  check Alcotest.int "outputs" 32 (Array.length (Netlist.outputs net));
  (* In the same size class as c6288 (2470 gates). *)
  let gates = Netlist.gate_count net in
  if gates < 2000 || gates > 4000 then Alcotest.failf "gate count %d out of band" gates

(* -------------------------------- ALU ----------------------------- *)

let test_alu_correct () =
  let w = 6 in
  let net = Alu.make ~width:w () in
  let rng = Prng.create ~seed:21 in
  for _ = 1 to 400 do
    let x = Prng.int rng ~bound:(1 lsl w) in
    let y = Prng.int rng ~bound:(1 lsl w) in
    let op = Prng.int rng ~bound:4 in
    let cin = Prng.int rng ~bound:2 in
    let vec =
      Array.concat
        [ Array.init w (fun i -> (x lsr i) land 1 = 1);
          Array.init w (fun i -> (y lsr i) land 1 = 1);
          [| op land 1 = 1; op land 2 = 2; cin = 1 |] ]
    in
    let got = int_of_outputs (Simulator.output_vector net vec) w in
    let expected =
      match op with
      | 0 -> x land y
      | 1 -> x lor y
      | 2 -> x lxor y
      | _ -> (x + y + cin) land ((1 lsl w) - 1)
    in
    if got <> expected then Alcotest.failf "alu op=%d %d,%d: %d <> %d" op x y got expected
  done

let test_alu64_interface () =
  let net = Alu.make ~width:64 () in
  (* The paper's alu64 row: 131 inputs. *)
  check Alcotest.int "inputs" 131 (Netlist.input_count net)

(* ----------------------------- Benchmarks ------------------------- *)

let test_profiles_complete () =
  check Alcotest.int "eleven rows" 11 (List.length Benchmarks.profiles);
  List.iter
    (fun name ->
      let net = Benchmarks.circuit name in
      check (Alcotest.result Alcotest.unit Alcotest.string) name (Ok ())
        (Netlist.validate net))
    Benchmarks.names

let test_profiles_match_published () =
  List.iter
    (fun (p : Benchmarks.profile) ->
      let net = Benchmarks.circuit p.Benchmarks.bench_name in
      check Alcotest.int
        (p.Benchmarks.bench_name ^ " inputs")
        p.Benchmarks.published_inputs (Netlist.input_count net);
      (* Structured stand-ins (multiplier, ALU) may differ in gate count;
         random profiles match exactly. *)
      if p.Benchmarks.bench_name <> "c6288" && p.Benchmarks.bench_name <> "alu64" then
        check Alcotest.int
          (p.Benchmarks.bench_name ^ " gates")
          p.Benchmarks.published_gates (Netlist.gate_count net))
    Benchmarks.profiles

let test_benchmark_deterministic () =
  let a = Benchmarks.circuit "c432" and b = Benchmarks.circuit "c432" in
  check Alcotest.string "stable netlist" (Bench_io.to_string a) (Bench_io.to_string b)

let test_benchmark_unknown () =
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Benchmarks.circuit "c9999"))

let test_small_suite_subset () =
  List.iter
    (fun name ->
      check Alcotest.bool name true (List.mem name Benchmarks.names))
    Benchmarks.small_suite

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_circuits"
    [
      ( "random-logic",
        [
          QCheck_alcotest.to_alcotest test_random_logic_shape;
          quick "deterministic" test_random_logic_deterministic;
          quick "seed changes" test_random_logic_seed_changes;
          QCheck_alcotest.to_alcotest test_random_logic_all_inputs_used;
          quick "bad args" test_random_logic_rejects_bad_args;
        ] );
      ( "adders",
        [
          quick "ripple carry" test_ripple_carry;
          quick "one bit" test_ripple_carry_one_bit;
          quick "carry select" test_carry_select;
          QCheck_alcotest.to_alcotest test_carry_select_blocks;
          quick "carry select shallower" test_carry_select_shallower;
          quick "bad args" test_adder_bad_args;
        ] );
      ( "multiplier",
        [
          QCheck_alcotest.to_alcotest test_multiplier_correct;
          quick "c6288 shape" test_multiplier_shape;
        ] );
      ("alu", [ quick "correct" test_alu_correct; quick "alu64 interface" test_alu64_interface ]);
      ( "benchmarks",
        [
          quick "profiles complete" test_profiles_complete;
          quick "published counts" test_profiles_match_published;
          quick "deterministic" test_benchmark_deterministic;
          quick "unknown" test_benchmark_unknown;
          quick "small suite subset" test_small_suite_subset;
        ] );
    ]
