(* Output checks, run after the timed phase.

   Each answer is re-checked from scratch: leakage is recomputed from
   the assignment, the budget from the penalty definition, and the delay
   from a fresh workspace with a full STA update — never the
   incremental [Sta.update_from] path the optimizers use. *)

module Netlist = Standby_netlist.Netlist
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Sta = Standby_timing.Sta
module Evaluate = Standby_power.Evaluate
module Assignment = Standby_power.Assignment
module Optimizer = Standby_opt.Optimizer

(* [None] when the answer holds, else the first violated property. *)
let check_answer lib net ~penalty ~budget ~total assignment =
  let recomputed = (Evaluate.of_assignment lib net assignment).Evaluate.total in
  let expected_budget = Sta.budget_for_penalty lib net ~penalty in
  if not (Float.abs (recomputed -. total) <= 1e-12 *. Float.abs total) then
    Some (Printf.sprintf "reported leakage %.17g recomputes to %.17g" total recomputed)
  else if not (Float.abs (budget -. expected_budget) <= 1e-12 *. expected_budget) then
    Some (Printf.sprintf "reported budget %.17g, penalty gives %.17g" budget expected_budget)
  else begin
    let sta = Sta.create lib net in
    Netlist.iter_gates net (fun id _ _ ->
        let entry = Assignment.choice lib net assignment id in
        Sta.assign sta id ~version:entry.Version.version ~perm:entry.Version.perm);
    Sta.update sta;
    let delay = Sta.circuit_delay sta in
    if delay <= expected_budget *. (1.0 +. 1e-9) then None
    else Some (Printf.sprintf "full STA delay %.17g exceeds budget %.17g" delay expected_budget)
  end

let check_result lib net ~penalty (r : Optimizer.result) =
  if r.Optimizer.degraded then Some "degraded result"
  else
    check_answer lib net ~penalty ~budget:r.Optimizer.budget
      ~total:r.Optimizer.breakdown.Evaluate.total r.Optimizer.assignment

(* Bit-identity of two answers to the same job: the leakage float and
   the assignment. *)
let same_result (a : Optimizer.result) (b : Optimizer.result) =
  let x = a.Optimizer.assignment and y = b.Optimizer.assignment in
  let ta = a.Optimizer.breakdown.Evaluate.total and tb = b.Optimizer.breakdown.Evaluate.total in
  if not (Float.equal ta tb) then Some (Printf.sprintf "leakage %.17g differs from %.17g" tb ta)
  else if
    x.Assignment.input_vector <> y.Assignment.input_vector
    || x.Assignment.option_choice <> y.Assignment.option_choice
  then Some "assignment differs"
  else None

(* The same, for an answer that arrived serialized. *)
let same_answer ~total ~assignment ~total' ~assignment' =
  if not (Float.equal total total') then
    Some (Printf.sprintf "leakage %.17g differs from %.17g" total' total)
  else if not (String.equal assignment assignment') then Some "assignment differs"
  else None
