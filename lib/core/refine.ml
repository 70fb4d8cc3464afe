module Netlist = Standby_netlist.Netlist
module Sta = Standby_timing.Sta
module Simulator = Standby_sim.Simulator
module Timer = Standby_util.Timer
module Telemetry = Standby_telemetry.Telemetry
module Json = Standby_telemetry.Json

let evaluate ~stats ~timer lib sta vector =
  let net = Sta.netlist sta in
  let values = Simulator.eval net vector in
  let states = Simulator.gate_states net values in
  let result = Gate_tree.greedy ~stop:(fun () -> Timer.expired timer) ~stats lib sta ~states in
  {
    State_tree.vector = Array.copy vector;
    State_tree.choices = result.Gate_tree.choices;
    State_tree.leakage = result.Gate_tree.leakage;
  }

let hill_climb ?(max_rounds = 8) ~stats ~timer lib sta ~start =
 Telemetry.span "refine.hill_climb"
   ~fields:[ ("max_rounds", Json.Int max_rounds) ]
   (fun () ->
  let net = Sta.netlist sta in
  (* Most influential inputs first: their flips move the most gates. *)
  let positions = State_tree.input_order net in
  let best = ref start in
  let vector = Array.copy start.State_tree.vector in
  let rounds = ref 0 in
  let improved = ref true in
  while !improved && !rounds < max_rounds && not (Timer.expired timer) do
    improved := false;
    incr rounds;
    (* Every round after the first restarts the full input scan from
       the improved incumbent. *)
    if !rounds > 1 then stats.Search_stats.restarts <- stats.Search_stats.restarts + 1;
    Array.iter
      (fun position ->
        if not (Timer.expired timer) then begin
          vector.(position) <- not vector.(position);
          let candidate = evaluate ~stats ~timer lib sta vector in
          stats.Search_stats.leaves <- stats.Search_stats.leaves + 1;
          if candidate.State_tree.leakage < !best.State_tree.leakage -. 1e-18 then begin
            best := candidate;
            improved := true;
            stats.Search_stats.incumbent_updates <-
              stats.Search_stats.incumbent_updates + 1;
            if Telemetry.tracing () then begin
              let delay = Sta.circuit_delay sta in
              Telemetry.event "incumbent"
                ~fields:
                  (("leakage", Json.Float candidate.State_tree.leakage)
                   :: ("delay", Json.Float delay)
                   :: ("slack", Json.Float (Sta.budget sta -. delay))
                   :: ("round", Json.Int !rounds)
                   :: Search_stats.fields stats)
            end
          end
          else vector.(position) <- not vector.(position)
        end)
      positions
  done;
  Telemetry.add_fields (("rounds", Json.Int !rounds) :: Search_stats.fields stats);
  !best)
