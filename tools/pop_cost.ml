(* Cost per incremental-STA worklist pop.

   Runs greedy and Heuristic 1 to quiescence at a 5 % delay penalty on
   generated netlists (seed 11, inputs gates/100 and window gates/20,
   floored at 64 and 60 as in test_opt's scaling test, so the 5k and 20k
   pop counts are the ones it pins) and prints, per run, the
   [sta.worklist_pops] delta, the wall seconds of [Optimizer.run] and
   their ratio in ns per pop.  The ratio charges the whole run (setup,
   seed scan, leakage) to the pops, so it is an upper bound on what one
   pop costs; the pops are exact and repeat bit for bit, the seconds are
   one sample each.

     dune exec tools/pop_cost.exe              # 5k, 20k and 100k gates
     dune exec tools/pop_cost.exe -- 5000 20000 *)

module Metrics = Standby_telemetry.Metrics
module Optimizer = Standby_opt.Optimizer
module Timer = Standby_util.Timer

let pops = Metrics.counter Metrics.default "sta.worklist_pops"

let netlist gates =
  Standby_circuits.Random_logic.generate ~seed:11 ~inputs:(max 64 (gates / 100))
    ~window:(max 60 (gates / 20)) ~gates ()

let () =
  let sizes =
    match List.tl (Array.to_list Sys.argv) with
    | [] -> [ 5_000; 20_000; 100_000 ]
    | args -> List.map int_of_string args
  in
  let lib = Standby_cells.Library.build Standby_device.Process.default in
  Printf.printf "%-8s %8s %12s %9s %9s\n%!" "method" "gates" "pops" "seconds" "ns/pop";
  List.iter
    (fun gates ->
      let net = netlist gates in
      List.iter
        (fun method_ ->
          let before = Metrics.counter_value pops in
          let _, seconds =
            Timer.time (fun () -> Optimizer.run lib net ~penalty:0.05 method_)
          in
          let n = Metrics.counter_value pops - before in
          Printf.printf "%-8s %8d %12d %9.3f %9.0f\n%!" (Optimizer.method_name method_) gates
            n seconds
            (seconds *. 1e9 /. float_of_int (max n 1)))
        [ Optimizer.Greedy { time_budget_s = 3600.0 }; Optimizer.Heuristic_1 ])
    sizes
