module Netlist = Standby_netlist.Netlist
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Sta = Standby_timing.Sta
module Telemetry = Standby_telemetry.Telemetry
module Json = Standby_telemetry.Json

type result = { choices : int array; leakage : float }

type order = By_saving | Topological

(* Gate ids with their kind and state, plus the fast and minimum leakage
   of the state — the shared preamble of both searches.  Filled straight
   into an array sized from the gate count; iter_gates order is the id
   order the searches expect. *)
let gate_rows lib sta states =
  let net = Sta.netlist sta in
  let rows =
    Array.make (Netlist.gate_count net) (0, Standby_netlist.Gate_kind.Inv, 0, 0.0, 0.0)
  in
  let next = ref 0 in
  Netlist.iter_gates net (fun id kind _ ->
      let state = states.(id) in
      let info = Library.info lib kind in
      rows.(!next) <-
        (id, kind, state, info.Library.fast_leakage.(state), info.Library.min_leakage.(state));
      incr next);
  rows

let fast_choices lib net states =
  let choices = Array.make (Netlist.node_count net) 0 in
  Netlist.iter_gates net (fun id kind _ ->
      choices.(id) <- Library.fast_option_index lib kind ~state:states.(id));
  choices

(* The options cheaper than fast, cheapest first; the first that
   confirms stays installed.  The local check is necessary but not
   sufficient once output slews propagate, so each try is confirmed on
   the updated workspace and reverted when a downstream path breaks. *)
let lowest_feasible ~stats lib sta id kind ~state =
  let options = Library.options lib kind ~state in
  let fast_index = Library.fast_option_index lib kind ~state in
  let fast_entry = options.(fast_index) in
  let rec try_option i =
    if i >= fast_index then fast_index
    else begin
      let entry = options.(i) in
      if
        Sta.candidate_feasible sta id ~version:entry.Version.version
          ~perm:entry.Version.perm
      then begin
        Sta.assign sta id ~version:entry.Version.version ~perm:entry.Version.perm;
        Sta.update_from sta id;
        if Sta.meets_budget sta then begin
          stats.Search_stats.gate_changes <- stats.Search_stats.gate_changes + 1;
          i
        end
        else begin
          Sta.assign sta id ~version:fast_entry.Version.version
            ~perm:fast_entry.Version.perm;
          Sta.update_from sta id;
          try_option (i + 1)
        end
      end
      else try_option (i + 1)
    end
  in
  try_option 0

let greedy ?(order = By_saving) ~stats lib sta ~states =
 Telemetry.span "gate_tree.greedy" (fun () ->
  let net = Sta.netlist sta in
  Sta.reset_fast sta;
  let rows = gate_rows lib sta states in
  (match order with
   | Topological -> ()
   | By_saving ->
     (* Biggest potential saving first, so high-leakage gates grab slack
        before it is spent on small fry.  Float.compare: NaN-safe, no
        polymorphic-compare dispatch inside the sort. *)
     let saving (_, _, _, fast, best) = fast -. best in
     Array.sort (fun a b -> Float.compare (saving b) (saving a)) rows);
  let choices = fast_choices lib net states in
  let total = ref 0.0 in
  Array.iter (fun (_, _, _, fast, _) -> total := !total +. fast) rows;
  Array.iter
    (fun (id, kind, state, fast_leak, _) ->
      let i = lowest_feasible ~stats lib sta id kind ~state in
      if i <> choices.(id) then begin
        choices.(id) <- i;
        total := !total -. fast_leak +. (Library.options lib kind ~state).(i).Version.leakage
      end)
    rows;
  Telemetry.add_fields [ ("leakage", Json.Float !total) ];
  { choices; leakage = !total })

let exact ?(interrupt = fun () -> false) ~stats lib sta ~states =
 Telemetry.span "gate_tree.exact" (fun () ->
  let net = Sta.netlist sta in
  Sta.reset_fast sta;
  let rows = gate_rows lib sta states in
  let m = Array.length rows in
  (* Poll the interrupt sparsely: it is typically a wall-clock read. *)
  let interrupted = ref false in
  let polls = ref 0 in
  let stop () =
    !interrupted
    || begin
         incr polls;
         if !polls land 255 = 0 && interrupt () then begin
           interrupted := true;
           true
         end
         else false
       end
  in
  (* suffix_min.(j): unconstrained minimum leakage of gates j.. — the
     admissible completion bound. *)
  let suffix_min = Array.make (m + 1) 0.0 in
  for j = m - 1 downto 0 do
    let _, _, _, _, best = rows.(j) in
    suffix_min.(j) <- suffix_min.(j + 1) +. best
  done;
  let fast = fast_choices lib net states in
  let current = Array.copy fast in
  let best_choices = ref (Array.copy fast) in
  let best_leak = ref infinity in
  let rec explore j current_leak =
    if stop () then ()
    else if j = m then begin
      stats.Search_stats.leaves <- stats.Search_stats.leaves + 1;
      if current_leak < !best_leak then begin
        best_leak := current_leak;
        best_choices := Array.copy current
      end
    end
    else begin
      let id, kind, state, _, _ = rows.(j) in
      let options = Library.options lib kind ~state in
      let n_options = Array.length options in
      let rec try_option i =
        if i < n_options then begin
          let entry = options.(i) in
          (* Options are sorted by leakage, so the first bound failure
             ends the whole level. *)
          if current_leak +. entry.Version.leakage +. suffix_min.(j + 1) >= !best_leak then
            stats.Search_stats.pruned <- stats.Search_stats.pruned + 1
          else begin
            Sta.assign sta id ~version:entry.Version.version ~perm:entry.Version.perm;
            Sta.update_from sta id;
            current.(id) <- i;
            stats.Search_stats.gate_changes <- stats.Search_stats.gate_changes + 1;
            (* Unassigned gates are still fast (their minimum delay), so
               an over-budget prefix cannot be repaired downstream. *)
            if Sta.meets_budget sta then
              explore (j + 1) (current_leak +. entry.Version.leakage);
            try_option (i + 1)
          end
        end
      in
      try_option 0;
      (* Restore this level before returning to the parent. *)
      let fast_entry = options.(fast.(id)) in
      Sta.assign sta id ~version:fast_entry.Version.version ~perm:fast_entry.Version.perm;
      Sta.update_from sta id;
      current.(id) <- fast.(id)
    end
  in
  explore 0 0.0;
  Telemetry.add_fields [ ("interrupted", Json.Bool !interrupted) ];
  if !best_leak = infinity then
    (* Interrupted before any complete assignment: fall back to the
       greedy answer, which is fast and always produces one. *)
    greedy ~stats lib sta ~states
  else begin
    (* Leave the workspace reflecting the best solution found. *)
    Sta.reset_fast sta;
    Netlist.iter_gates net (fun id kind _ ->
        let entry = (Library.options lib kind ~state:states.(id)).(!best_choices.(id)) in
        Sta.assign sta id ~version:entry.Version.version ~perm:entry.Version.perm);
    Sta.update sta;
    Telemetry.add_fields [ ("leakage", Json.Float !best_leak) ];
    { choices = !best_choices; leakage = !best_leak }
  end)
