open Standby_device
module Gate_kind = Standby_netlist.Gate_kind

type trade_points = Two_points | Four_points

type mode = {
  trade_points : trade_points;
  uniform_stack_vt : bool;
  allow_high_vt : bool;
  allow_thick_tox : bool;
  allow_pin_reorder : bool;
}

let default_mode =
  {
    trade_points = Four_points;
    uniform_stack_vt = false;
    allow_high_vt = true;
    allow_thick_tox = true;
    allow_pin_reorder = true;
  }

let two_option_mode = { default_mode with trade_points = Two_points }

let uniform_stack_mode = { default_mode with uniform_stack_vt = true }

let two_option_uniform_stack_mode =
  { default_mode with trade_points = Two_points; uniform_stack_vt = true }

let vt_and_state_mode = { default_mode with allow_thick_tox = false }

let state_only_mode =
  { default_mode with allow_high_vt = false; allow_thick_tox = false }

let mode_name m =
  if (not m.allow_high_vt) && not m.allow_thick_tox then "state-only"
  else if not m.allow_thick_tox then "vt+state"
  else
    let points =
      match m.trade_points with Four_points -> "4-option" | Two_points -> "2-option"
    in
    if m.uniform_stack_vt then points ^ " uniform-stack" else points

let mode_tokens =
  [
    ("4opt", default_mode);
    ("2opt", two_option_mode);
    ("4opt-uniform", uniform_stack_mode);
    ("2opt-uniform", two_option_uniform_stack_mode);
    ("vt-state", vt_and_state_mode);
    ("state-only", state_only_mode);
  ]

let mode_of_token s =
  match List.assoc_opt s mode_tokens with
  | Some mode -> Ok mode
  | None ->
    Error
      (Printf.sprintf "unknown library mode %S (known: %s)" s
         (String.concat ", " (List.map fst mode_tokens)))

let mode_token mode =
  match List.find_opt (fun (_, m) -> m = mode) mode_tokens with
  | Some (token, _) -> token
  | None -> mode_name mode

type role = Min_delay | Min_leakage | Fast_rise | Fast_fall

let role_name = function
  | Min_delay -> "min delay"
  | Min_leakage -> "min leakage"
  | Fast_rise -> "fast rise"
  | Fast_fall -> "fast fall"

type option_entry = {
  version : int;
  perm : int array;
  leakage : float;
  isub : float;
  igate : float;
  role : role;
}

type generated = {
  versions : Topology.assignment array;
  options : option_entry array array;
}

(* A device is a leakage contributor when it carries at least this
   fraction of the cell's worst-state fast leakage; smaller currents
   (reverse overlap tunneling, PMOS gate current) are "negligible" in
   the paper's sense and never justify a slow device. *)
let contributor_fraction = 0.03

(* Candidates whose leakage is within this margin of a state's best are
   interchangeable; the margin combines a fraction of the state's fast
   leakage (cell-scale noise) and of the best value itself. *)
let window_margin ~fast_leak ~best = (0.05 *. fast_leak) +. (0.05 *. best)

(* ------------------------------------------------------------------ *)
(* Raw candidate space, kept for ablation and tests.                   *)

let product (choices : 'a list list) : 'a list list =
  List.fold_right
    (fun options acc -> List.concat_map (fun o -> List.map (fun rest -> o :: rest) acc) options)
    choices [ [] ]

let vt_choices mode len =
  if not mode.allow_high_vt then [ Array.make len Process.Low_vt ]
  else if mode.uniform_stack_vt || len = 1 then
    [ Array.make len Process.Low_vt; Array.make len Process.High_vt ]
  else
    List.init (1 lsl len) (fun bits ->
        Array.init len (fun i ->
            if (bits lsr i) land 1 = 1 then Process.High_vt else Process.Low_vt))

let tox_choices mode =
  if mode.allow_thick_tox then [ Process.Thin_ox; Process.Thick_ox ]
  else [ Process.Thin_ox ]

let enumerate mode cell =
  let stacks = Topology.stacks cell in
  let per_stack =
    Array.to_list stacks
    |> List.map (fun group ->
           let len = Array.length group in
           List.concat_map
             (fun vts -> List.map (fun tox -> (group, vts, tox)) (tox_choices mode))
             (vt_choices mode len))
  in
  let n = Topology.device_count cell in
  let assignments =
    product per_stack
    |> List.map (fun stack_choices ->
           let vt = Array.make n Process.Low_vt in
           let tox = Array.make n Process.Thin_ox in
           List.iter
             (fun (group, vts, tox_class) ->
               Array.iteri
                 (fun i dev ->
                   vt.(dev) <- vts.(i);
                   tox.(dev) <- tox_class)
                 group)
             stack_choices;
           { Topology.vt; tox })
  in
  let fast = Topology.fast_assignment cell in
  let rest = List.filter (fun a -> not (Topology.assignment_equal a fast)) assignments in
  Array.of_list (fast :: rest)

(* ------------------------------------------------------------------ *)
(* Contributor-driven candidate construction (Section 3 of the paper). *)

type candidate = {
  c_assignment : Topology.assignment;
  c_perm : int array;
  c_leak : float;
  c_isub : float;
  c_igate : float;
}

(* Candidates for one state under one pin order: solve the fast cell,
   flag OFF devices on significantly leaking subthreshold paths (high-Vt
   candidates) and devices with significant gate tunneling (thick-oxide
   candidates, lifted to whole stacks), then take all subsets. *)
let candidates_for_perm cache process mode cell ~threshold ~state ~perm =
  let fast = Topology.fast_assignment cell in
  let sol = Characterize.solve_state ~cache ~perm process cell fast ~state in
  let n = Topology.device_count cell in
  let devs = Topology.devices cell in
  let pins =
    Topology.apply_permutation perm (Gate_kind.bits_of_state cell.Topology.kind state)
  in
  let device_on i =
    let d = devs.(i) in
    match d.Topology.polarity with
    | Process.Nmos -> pins.(d.Topology.pin)
    | Process.Pmos -> not pins.(d.Topology.pin)
  in
  let hvt_devices = ref [] in
  if mode.allow_high_vt then begin
    let down_first, down_count = Topology.pull_down_range cell in
    let consider_network first count network_isub =
      if network_isub > threshold then
        for i = first to first + count - 1 do
          (* In a parallel network an OFF device leaks on its own; in a
             cut chain the shared current is limited by any member, so
             every OFF device is a candidate position for the single
             high-Vt. *)
          let significant =
            (not (device_on i)) && sol.Stack_solver.points.(i).Stack_solver.vds > 0.05
          in
          if significant then hvt_devices := i :: !hvt_devices
        done
    in
    let up_first, up_count = Topology.pull_up_range cell in
    consider_network down_first down_count sol.Stack_solver.pull_down_isub;
    consider_network up_first up_count sol.Stack_solver.pull_up_isub
  end;
  let thick_stacks = ref [] in
  if mode.allow_thick_tox then
    Array.iter
      (fun group ->
        if Array.exists (fun i -> sol.Stack_solver.device_igate.(i) > threshold) group then
          thick_stacks := group :: !thick_stacks)
      (Topology.stacks cell);
  (* High-Vt choice units: individual devices, or whole stacks in
     uniform mode. *)
  let hvt_units =
    if mode.uniform_stack_vt then
      Topology.stacks cell |> Array.to_list
      |> List.filter (fun group -> Array.exists (fun i -> List.mem i !hvt_devices) group)
    else List.map (fun i -> [| i |]) (List.rev !hvt_devices)
  in
  let hvt_units = Array.of_list hvt_units in
  let thick_units = Array.of_list (List.rev !thick_stacks) in
  let n_hvt = Array.length hvt_units in
  let n_thick = Array.length thick_units in
  let out = ref [] in
  for hvt_bits = 0 to (1 lsl n_hvt) - 1 do
    for thick_bits = 0 to (1 lsl n_thick) - 1 do
      let vt = Array.make n Process.Low_vt in
      let tox = Array.make n Process.Thin_ox in
      for u = 0 to n_hvt - 1 do
        if (hvt_bits lsr u) land 1 = 1 then
          Array.iter (fun i -> vt.(i) <- Process.High_vt) hvt_units.(u)
      done;
      for u = 0 to n_thick - 1 do
        if (thick_bits lsr u) land 1 = 1 then
          Array.iter (fun i -> tox.(i) <- Process.Thick_ox) thick_units.(u)
      done;
      let assignment = { Topology.vt; tox } in
      let s = Characterize.solve_state ~cache ~perm process cell assignment ~state in
      out :=
        {
          c_assignment = assignment;
          c_perm = perm;
          c_leak = s.Stack_solver.total;
          c_isub = s.Stack_solver.isub;
          c_igate = s.Stack_solver.igate;
        }
        :: !out
    done
  done;
  List.rev !out

let generate ?cache process mode cell =
  let cache = match cache with Some c -> c | None -> Stack_solver.create_cache () in
  let kind = cell.Topology.kind in
  let arity = Gate_kind.arity kind in
  let n_states = Gate_kind.state_count kind in
  let fast = Topology.fast_assignment cell in
  let fast_leakage =
    Array.init n_states (fun state -> Characterize.leakage ~cache process cell fast ~state)
  in
  let threshold = contributor_fraction *. Array.fold_left max 0.0 fast_leakage in
  let perms =
    if mode.allow_pin_reorder then Topology.permutations arity
    else [ Array.init arity (fun i -> i) ]
  in
  let state_candidates =
    Array.init n_states (fun state ->
        List.concat_map
          (fun perm -> candidates_for_perm cache process mode cell ~threshold ~state ~perm)
          perms)
  in
  (* Selection: states from the most constrained down; each role picks,
     within the leakage window of the best admissible candidate, a
     version already selected if possible, else the structurally
     simplest one. *)
  let selected = ref [ fast ] in
  let factors_of = Hashtbl.create 32 in
  let factors a =
    let key = (a.Topology.vt, a.Topology.tox) in
    match Hashtbl.find_opt factors_of key with
    | Some f -> f
    | None ->
      let f = Delay_char.factors process cell a in
      Hashtbl.add factors_of key f;
      f
  in
  let state_roles = Array.make n_states [] in
  let pick state role admissible =
    let pool = List.filter admissible state_candidates.(state) in
    match pool with
    | [] -> ()
    | _ ->
      let best = List.fold_left (fun acc c -> min acc c.c_leak) infinity pool in
      let margin = window_margin ~fast_leak:fast_leakage.(state) ~best in
      let window = List.filter (fun c -> c.c_leak <= best +. margin) pool in
      let reuse c =
        List.exists (fun a -> Topology.assignment_equal a c.c_assignment) !selected
      in
      let key c =
        ( (if reuse c then 0 else 1),
          Topology.slow_device_count c.c_assignment,
          Delay_char.worst (factors c.c_assignment),
          c.c_leak )
      in
      let chosen =
        List.fold_left
          (fun acc c -> match acc with None -> Some c | Some b -> if key c < key b then Some c else acc)
          None window
      in
      (match chosen with
       | None -> ()
       | Some c ->
         if not (reuse c) then selected := !selected @ [ c.c_assignment ];
         state_roles.(state) <- (role, c) :: state_roles.(state))
  in
  let untouched side c =
    let f = factors c.c_assignment in
    match side with
    | `Rise -> Delay_char.worst_rise f <= 1.0 +. 1e-9
    | `Fall -> Delay_char.worst_fall f <= 1.0 +. 1e-9
  in
  for state = n_states - 1 downto 0 do
    pick state Min_leakage (fun _ -> true);
    if mode.trade_points = Four_points then begin
      pick state Fast_rise (untouched `Rise);
      pick state Fast_fall (untouched `Fall)
    end
  done;
  let versions = Array.of_list !selected in
  let version_index a =
    let rec find i = if Topology.assignment_equal versions.(i) a then i else find (i + 1) in
    find 0
  in
  let options =
    Array.init n_states (fun state ->
        let fast_entry =
          {
            version = 0;
            perm = Array.init arity (fun i -> i);
            leakage = fast_leakage.(state);
            isub =
              (Characterize.solve_state ~cache process cell fast ~state).Stack_solver.isub;
            igate =
              (Characterize.solve_state ~cache process cell fast ~state).Stack_solver.igate;
            role = Min_delay;
          }
        in
        let seen = ref [ 0 ] in
        let entries =
          List.rev state_roles.(state)
          |> List.filter_map (fun (role, c) ->
                 let v = version_index c.c_assignment in
                 if List.mem v !seen then None
                 else begin
                   seen := v :: !seen;
                   Some
                     {
                       version = v;
                       perm = c.c_perm;
                       leakage = c.c_leak;
                       isub = c.c_isub;
                       igate = c.c_igate;
                       role;
                     }
                 end)
        in
        let arr = Array.of_list (fast_entry :: entries) in
        Array.sort (fun a b -> compare a.leakage b.leakage) arr;
        arr)
  in
  { versions; options }
