module Netlist = Standby_netlist.Netlist
module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Sta = Standby_timing.Sta
module Telemetry = Standby_telemetry.Telemetry
module Json = Standby_telemetry.Json

type result = { choices : int array; leakage : float }

type order = By_saving | Topological

(* Gate ids in id order with their kinds — the order both searches
   start from. *)
let gates net =
  let n = Netlist.gate_count net in
  let ids = Array.make n 0 and kinds = Array.make n Standby_netlist.Gate_kind.Inv in
  let next = ref 0 in
  Netlist.iter_gates net (fun id kind _ ->
      ids.(!next) <- id;
      kinds.(!next) <- kind;
      incr next);
  (ids, kinds)

let all_fast lib net states =
  let choices = Array.make (Netlist.node_count net) 0 in
  let total = ref 0.0 in
  Netlist.iter_gates net (fun id kind _ ->
      let state = states.(id) in
      choices.(id) <- Library.fast_option_index lib kind ~state;
      total := !total +. Library.fast_leakage lib kind ~state);
  { choices; leakage = !total }

let install lib sta ~states choices =
  Sta.reset_fast sta;
  Netlist.iter_gates (Sta.netlist sta) (fun id kind _ ->
      let entry = (Library.options lib kind ~state:states.(id)).(choices.(id)) in
      Sta.assign sta id ~version:entry.Version.version ~perm:entry.Version.perm);
  Sta.update sta

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

let pass ?(on_step = fun _ _ _ -> ()) ~stop ~stats lib sta ~states start order =
  let net = Sta.netlist sta in
  let choices = start.choices in
  let total = ref start.leakage in
  let m = Array.length order in
  (* [stop] is typically a wall-clock read: poll it every 32 gates. *)
  let k = ref 0 in
  while !k < m && not (!k land 31 = 0 && stop ()) do
    let id = order.(!k) in
    incr k;
    match Netlist.kind_of net id with
    | None -> ()
    | Some kind ->
      let state = states.(id) in
      let c = choices.(id) in
      let i = lowest_feasible ~stats lib sta id kind ~state in
      if i <> c then begin
        let options = Library.options lib kind ~state in
        choices.(id) <- i;
        total := !total -. (options.(c).Version.leakage -. options.(i).Version.leakage)
      end;
      on_step c i !total
  done;
  { choices; leakage = !total }

let greedy ?(order = By_saving) ~stop ~stats lib sta ~states =
 Telemetry.span "gate_tree.greedy" (fun () ->
  let net = Sta.netlist sta in
  Sta.reset_fast sta;
  let ids, kinds = gates net in
  (match order with
   | Topological -> ()
   | By_saving ->
     (* Biggest potential saving first, so high-leakage gates grab slack
        before it is spent on small fry.  Float.compare: NaN-safe, no
        polymorphic-compare dispatch inside the sort. *)
     let saving = Array.make (Netlist.node_count net) 0.0 in
     Array.iteri
       (fun j id ->
         let info = Library.info lib kinds.(j) and state = states.(id) in
         saving.(id) <- info.Library.fast_leakage.(state) -. info.Library.min_leakage.(state))
       ids;
     Array.sort (fun a b -> Float.compare saving.(b) saving.(a)) ids);
  let result = pass ~stop ~stats lib sta ~states (all_fast lib net states) ids in
  Telemetry.add_fields [ ("leakage", Json.Float result.leakage) ];
  result)

let exact ?(interrupt = fun () -> false) ~stats lib sta ~states =
 Telemetry.span "gate_tree.exact" (fun () ->
  let net = Sta.netlist sta in
  Sta.reset_fast sta;
  let ids, kinds = gates net in
  let m = Array.length ids in
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
    suffix_min.(j) <-
      suffix_min.(j + 1) +. (Library.info lib kinds.(j)).Library.min_leakage.(states.(ids.(j)))
  done;
  let fast = (all_fast lib net states).choices in
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
      let id = ids.(j) in
      let options = Library.options lib kinds.(j) ~state:states.(id) in
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
       greedy pass under the same interrupt, which always produces a
       feasible answer (all-fast at worst). *)
    greedy ~stop:interrupt ~stats lib sta ~states
  else begin
    (* Leave the workspace reflecting the best solution found. *)
    install lib sta ~states !best_choices;
    Telemetry.add_fields [ ("leakage", Json.Float !best_leak) ];
    { choices = !best_choices; leakage = !best_leak }
  end)
