(* Tests for standby_util: PRNG determinism and distribution sanity,
   running statistics, timers. *)

module Prng = Standby_util.Prng
module Stats = Standby_util.Stats
module Timer = Standby_util.Timer

let check = Alcotest.check
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* ------------------------------- PRNG ----------------------------- *)

let test_prng_deterministic () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Prng.next_int64 a) (Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Prng.next_int64 a <> Prng.next_int64 b then differs := true
  done;
  check Alcotest.bool "different seeds differ" true !differs

let test_prng_nth_bits () =
  (* The stateless draw is the stream's own draw, without allocating. *)
  List.iter
    (fun seed ->
      let rng = Prng.create ~seed in
      for n = 0 to 99 do
        check Alcotest.int "draw n" (Int64.to_int (Prng.next_int64 rng)) (Prng.nth_bits ~seed n)
      done)
    [ 0; 11; -5; max_int ];
  let before = Gc.minor_words () in
  let acc = ref 0 in
  for n = 0 to 999 do
    acc := !acc lxor Prng.nth_bits ~seed:7 n
  done;
  ignore (Sys.opaque_identity !acc);
  check Alcotest.bool "allocates nothing" true (Gc.minor_words () -. before < 16.0)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let v = Prng.int rng ~bound:17 in
    if v < 0 || v >= 17 then Alcotest.failf "out of range: %d" v
  done

let test_prng_int_invalid () =
  let rng = Prng.create ~seed:5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng ~bound:0))

let test_prng_bool_balance () =
  let rng = Prng.create ~seed:13 in
  let trues = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Prng.bool rng then incr trues
  done;
  let ratio = float_of_int !trues /. float_of_int n in
  if ratio < 0.45 || ratio > 0.55 then Alcotest.failf "biased bool: %f" ratio

let test_prng_int_uniformity () =
  let rng = Prng.create ~seed:17 in
  let buckets = Array.make 8 0 in
  let n = 40_000 in
  for _ = 1 to n do
    let v = Prng.int rng ~bound:8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      let expected = n / 8 in
      if abs (c - expected) > expected / 5 then
        Alcotest.failf "bucket %d skewed: %d vs %d" i c expected)
    buckets

let test_shuffle_permutation () =
  let rng = Prng.create ~seed:23 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check (Alcotest.array Alcotest.int) "shuffle is a permutation"
    (Array.init 50 (fun i -> i))
    sorted

(* ------------------------------- Stats ---------------------------- *)

let test_geometric_mean () =
  checkf "geomean" 2.0 (Stats.geometric_mean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "non-positive"
    (Invalid_argument "Stats.geometric_mean: non-positive value") (fun () ->
      ignore (Stats.geometric_mean [| 1.0; 0.0 |]))

(* ------------------------------- Timer ---------------------------- *)

let test_timer_unlimited () =
  let t = Timer.unlimited () in
  check Alcotest.bool "never expires" false (Timer.expired t)

let test_timer_expired () =
  let t = Timer.start ~limit_s:0.0 in
  check Alcotest.bool "zero budget expires" true (Timer.expired t)

let test_timer_time () =
  let value, seconds = Timer.time (fun () -> 42) in
  check Alcotest.int "value" 42 value;
  check Alcotest.bool "non-negative duration" true (seconds >= 0.0)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_util"
    [
      ( "prng",
        [
          quick "deterministic" test_prng_deterministic;
          quick "seed sensitivity" test_prng_seed_sensitivity;
          quick "nth bits" test_prng_nth_bits;
          quick "int bounds" test_prng_int_bounds;
          quick "int invalid" test_prng_int_invalid;
          quick "bool balance" test_prng_bool_balance;
          quick "int uniformity" test_prng_int_uniformity;
          quick "shuffle permutation" test_shuffle_permutation;
        ] );
      ( "stats",
        [
          quick "geometric mean" test_geometric_mean;
        ] );
      ( "timer",
        [
          quick "unlimited" test_timer_unlimited;
          quick "expired" test_timer_expired;
          quick "time" test_timer_time;
        ] );
    ]
