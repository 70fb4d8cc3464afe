(* Tests for standby_cells: topologies, the DC stack solver, delay
   characterization, version generation and the library facade. *)

module Process = Standby_device.Process
module Gate_kind = Standby_netlist.Gate_kind
module Topology = Standby_cells.Topology
module Stack_solver = Standby_cells.Stack_solver
module Characterize = Standby_cells.Characterize
module Delay_char = Standby_cells.Delay_char
module Version = Standby_cells.Version
module Library = Standby_cells.Library

let p = Process.default

let check = Alcotest.check

let all_kinds = Gate_kind.all

(* ----------------------------- Topology --------------------------- *)

let test_device_counts () =
  List.iter
    (fun (kind, n) -> check Alcotest.int (Gate_kind.name kind) n
        (Topology.device_count (Topology.of_kind kind)))
    [ (Gate_kind.Inv, 2); (Gate_kind.Nand2, 4); (Gate_kind.Nand3, 6);
      (Gate_kind.Nand4, 8); (Gate_kind.Nor2, 4); (Gate_kind.Nor3, 6);
      (Gate_kind.Nor4, 8); (Gate_kind.Aoi21, 6); (Gate_kind.Oai21, 6) ]

let test_stacks_partition () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      let stacks = Topology.stacks cell in
      let seen = Array.make (Topology.device_count cell) 0 in
      Array.iter (fun group -> Array.iter (fun i -> seen.(i) <- seen.(i) + 1) group) stacks;
      Array.iteri
        (fun i c ->
          if c <> 1 then
            Alcotest.failf "%s: device %d in %d stacks" (Gate_kind.name kind) i c)
        seen)
    all_kinds

let test_pin_coverage () =
  (* Every pin drives exactly one NMOS and one PMOS. *)
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      let arity = Gate_kind.arity kind in
      let n = Array.make arity 0 and pm = Array.make arity 0 in
      Array.iter
        (fun (d : Topology.device) ->
          match d.Topology.polarity with
          | Process.Nmos -> n.(d.Topology.pin) <- n.(d.Topology.pin) + 1
          | Process.Pmos -> pm.(d.Topology.pin) <- pm.(d.Topology.pin) + 1)
        (Topology.devices cell);
      Array.iter (fun c -> check Alcotest.int "one nmos per pin" 1 c) n;
      Array.iter (fun c -> check Alcotest.int "one pmos per pin" 1 c) pm)
    all_kinds

let test_permutations_count () =
  check Alcotest.int "1!" 1 (List.length (Topology.permutations 1));
  check Alcotest.int "2!" 2 (List.length (Topology.permutations 2));
  check Alcotest.int "3!" 6 (List.length (Topology.permutations 3));
  (* Identity comes first. *)
  check (Alcotest.array Alcotest.int) "identity first" [| 0; 1; 2 |]
    (List.hd (Topology.permutations 3))

let test_apply_permutation () =
  let perm = [| 1; 0 |] in
  check (Alcotest.array Alcotest.bool) "swap" [| false; true |]
    (Topology.apply_permutation perm [| true; false |]);
  let perm3 = [| 2; 0; 1 |] in
  (* logical l -> physical perm.(l) *)
  check (Alcotest.array Alcotest.bool) "rotate" [| false; true; true |]
    (Topology.apply_permutation perm3 [| true; false; true |])

let test_apply_permutation_involution =
  QCheck.Test.make ~count:100 ~name:"permutation then inverse is identity"
    QCheck.(make Gen.(array_size (Gen.return 3) bool))
    (fun bits ->
      List.for_all
        (fun perm ->
          let inverse = Array.make 3 0 in
          Array.iteri (fun l phys -> inverse.(phys) <- l) perm;
          Topology.apply_permutation inverse (Topology.apply_permutation perm bits) = bits)
        (Topology.permutations 3))

let test_assignment_helpers () =
  let cell = Topology.of_kind Gate_kind.Nand2 in
  let fast = Topology.fast_assignment cell in
  let slow = Topology.slowest_assignment cell in
  check Alcotest.int "fast has no slow devices" 0 (Topology.slow_device_count fast);
  check Alcotest.int "slowest has all slow" 4 (Topology.slow_device_count slow);
  check Alcotest.bool "fast equal itself" true (Topology.assignment_equal fast fast);
  check Alcotest.bool "fast differs from slow" false (Topology.assignment_equal fast slow);
  check Alcotest.string "describe fast" "fast" (Topology.describe_assignment cell fast);
  check Alcotest.bool "fast tox uniform" true (Topology.tox_stack_uniform cell fast);
  check Alcotest.bool "fast vt uniform" true (Topology.vt_stack_uniform cell fast)

(* --------------------------- Stack solver ------------------------- *)

let solve ?cache kind assignment state =
  let cell = Topology.of_kind kind in
  Characterize.solve_state ?cache p cell assignment ~state

let fast kind = Topology.fast_assignment (Topology.of_kind kind)

let test_output_matches_logic () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      for state = 0 to Gate_kind.state_count kind - 1 do
        let s = Characterize.solve_state p cell (fast kind) ~state in
        let expected = Gate_kind.eval kind (Gate_kind.bits_of_state kind state) in
        if s.Stack_solver.output_high <> expected then
          Alcotest.failf "%s state %d: output mismatch" (Gate_kind.name kind) state
      done)
    all_kinds

let test_leakage_positive_and_finite () =
  List.iter
    (fun kind ->
      for state = 0 to Gate_kind.state_count kind - 1 do
        let s = solve kind (fast kind) state in
        if not (s.Stack_solver.total > 0.0 && s.Stack_solver.total < 1e-5) then
          Alcotest.failf "%s state %d: implausible leakage %g" (Gate_kind.name kind) state
            s.Stack_solver.total
      done)
    all_kinds

let test_stack_effect () =
  (* Two OFF devices in series leak much less than one. *)
  let s_one = solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 2 (* 10: one off *) in
  let s_two = solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 0 (* 00: both off *) in
  check Alcotest.bool "stack effect" true
    (s_two.Stack_solver.isub < s_one.Stack_solver.isub /. 2.0)

let test_vt_kills_isub () =
  (* High-Vt on the single off NMOS of state 10 cuts Isub by roughly the
     process ratio. *)
  let cell = Topology.of_kind Gate_kind.Nand2 in
  let hvt_bottom =
    { (Topology.fast_assignment cell) with
      Topology.vt = [| Process.Low_vt; Process.High_vt; Process.Low_vt; Process.Low_vt |] }
  in
  let before = solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 2 in
  let after = solve Gate_kind.Nand2 hvt_bottom 2 in
  let ratio = before.Stack_solver.isub /. after.Stack_solver.isub in
  if ratio < 8.0 || ratio > 25.0 then Alcotest.failf "unexpected Isub ratio %.2f" ratio

let test_tox_kills_igate () =
  let cell = Topology.of_kind Gate_kind.Nand2 in
  let thick_n =
    { (Topology.fast_assignment cell) with
      Topology.tox = [| Process.Thick_ox; Process.Thick_ox; Process.Thin_ox; Process.Thin_ox |]
    }
  in
  let before = solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 3 in
  let after = solve Gate_kind.Nand2 thick_n 3 in
  let ratio = before.Stack_solver.igate /. after.Stack_solver.igate in
  if ratio < 5.0 || ratio > 12.0 then Alcotest.failf "unexpected Igate ratio %.2f" ratio

let test_on_above_off_small_igate () =
  (* NAND2 state 10: the conducting top NMOS floats its source near Vdd,
     so its oxide bias collapses. *)
  let s = solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 2 in
  let top_igate = s.Stack_solver.device_igate.(0) in
  let full = (solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 3).Stack_solver.device_igate.(0) in
  check Alcotest.bool "collapsed oxide bias" true (top_igate < full /. 20.0)

let test_parallel_off_no_leak_when_equalized () =
  (* NAND2 state 10: output high, the OFF PMOS has Vds = 0 and must not
     contribute subthreshold current. *)
  let s = solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 2 in
  check Alcotest.bool "pull-up isub zero-ish" true (s.Stack_solver.pull_up_isub < 1e-12)

let test_conducting_chain_nodes_at_rail () =
  let s = solve Gate_kind.Nand2 (fast Gate_kind.Nand2) 3 in
  Array.iteri
    (fun i (pt : Stack_solver.operating_point) ->
      if i < 2 (* NMOS chain conducts *) then begin
        if abs_float pt.Stack_solver.vds > 1e-9 then
          Alcotest.failf "device %d: nonzero vds on conducting chain" i
      end)
    s.Stack_solver.points

let test_cache_consistency =
  QCheck.Test.make ~count:60 ~name:"solver cache does not change results"
    QCheck.(make Gen.(pair (int_range 0 8) (int_range 0 15)))
    (fun (ki, st) ->
      let kind = List.nth all_kinds ki in
      let state = st mod Gate_kind.state_count kind in
      let cache = Stack_solver.create_cache () in
      let a = solve ~cache kind (fast kind) state in
      let b = solve kind (fast kind) state in
      abs_float (a.Stack_solver.total -. b.Stack_solver.total)
      < 1e-15 +. (1e-9 *. b.Stack_solver.total))

let test_solver_validates_inputs () =
  let cell = Topology.of_kind Gate_kind.Nand2 in
  Alcotest.check_raises "pin count" (Invalid_argument "Stack_solver.solve: wrong pin count")
    (fun () -> ignore (Stack_solver.solve p cell (Topology.fast_assignment cell) [| true |]))

let test_breakdown_adds_up =
  QCheck.Test.make ~count:60 ~name:"total = isub + igate"
    QCheck.(make Gen.(pair (int_range 0 8) (int_range 0 15)))
    (fun (ki, st) ->
      let kind = List.nth all_kinds ki in
      let state = st mod Gate_kind.state_count kind in
      let s = solve kind (fast kind) state in
      abs_float (s.Stack_solver.total -. (s.Stack_solver.isub +. s.Stack_solver.igate))
      < 1e-15)

let test_aoi21_parallel_branch_isub () =
  (* AOI21 state 110: pull-down conducts through the AND pair; the cut
     pull-up is a parallel PMOS pair above a conducting PMOS, so both
     branches leak in parallel — roughly twice one PMOS's current. *)
  let s = solve Gate_kind.Aoi21 (fast Gate_kind.Aoi21) 6 (* 110 *) in
  let one_pmos =
    Standby_device.Leakage_model.worst_case_isub p ~polarity:Process.Pmos
      ~vt:Process.Low_vt ~width:4.0
  in
  let ratio = s.Stack_solver.pull_up_isub /. (2.0 *. one_pmos) in
  if ratio < 0.8 || ratio > 1.2 then Alcotest.failf "parallel-pair isub off: %.2f" ratio

let test_oai21_stack_effect_in_branch () =
  (* OAI21 pull-down = Series[Parallel(n0,n1); n2].  State 001: both
     parallel NMOS off and n2 on -> the cut is the parallel section, and
     its two devices share the full drop (no stack effect).  State 000:
     n2 also off -> two cut levels in series -> stack effect. *)
  let both_levels = solve Gate_kind.Oai21 (fast Gate_kind.Oai21) 0 (* 000 *) in
  let one_level = solve Gate_kind.Oai21 (fast Gate_kind.Oai21) 1 (* 001 *) in
  check Alcotest.bool "series cut leaks less" true
    (both_levels.Stack_solver.pull_down_isub < one_level.Stack_solver.pull_down_isub /. 2.0)

let test_complex_cells_in_library () =
  let lib = Library.build p in
  List.iter
    (fun kind ->
      let info = Library.info lib kind in
      Array.iteri
        (fun state opts ->
          if Array.length opts < 1 then
            Alcotest.failf "%s state %d has no options" (Gate_kind.name kind) state;
          (* min option must not exceed fast leakage *)
          if opts.(0).Version.leakage > info.Library.fast_leakage.(state) +. 1e-18 then
            Alcotest.failf "%s state %d min above fast" (Gate_kind.name kind) state)
        info.Library.options)
    [ Gate_kind.Nand4; Gate_kind.Nor4; Gate_kind.Aoi21; Gate_kind.Oai21 ]

(* ------------------------- Characterize --------------------------- *)

let test_best_perm_not_worse () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      for state = 0 to Gate_kind.state_count kind - 1 do
        let identity = Characterize.leakage p cell (fast kind) ~state in
        let _, best = Characterize.best_perm p cell (fast kind) ~state in
        if best > identity +. 1e-15 then
          Alcotest.failf "%s state %d: best perm worse than identity" (Gate_kind.name kind)
            state
      done)
    all_kinds

let test_average_leakage_is_mean () =
  let cell = Topology.of_kind Gate_kind.Nand2 in
  let table = Characterize.leakage_table p cell (fast Gate_kind.Nand2) in
  let mean = Array.fold_left ( +. ) 0.0 table /. 4.0 in
  let avg = Characterize.average_leakage p cell (fast Gate_kind.Nand2) in
  if abs_float (mean -. avg) > 1e-15 then Alcotest.fail "average mismatch"

(* --------------------------- Delay_char --------------------------- *)

let test_fast_factors_are_one () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      let f = Delay_char.factors p cell (fast kind) in
      Array.iter (fun x -> check (Alcotest.float 1e-9) "rise" 1.0 x) f.Delay_char.rise;
      Array.iter (fun x -> check (Alcotest.float 1e-9) "fall" 1.0 x) f.Delay_char.fall)
    all_kinds

let test_factors_at_least_one =
  QCheck.Test.make ~count:100 ~name:"delay factors never below 1"
    QCheck.(make Gen.(pair (int_range 0 8) (int_range 0 1000)))
    (fun (ki, pick) ->
      let kind = List.nth all_kinds ki in
      let cell = Topology.of_kind kind in
      let candidates = Version.enumerate Version.default_mode cell in
      let a = candidates.(pick mod Array.length candidates) in
      let f = Delay_char.factors p cell a in
      Array.for_all (fun x -> x >= 1.0 -. 1e-9) f.Delay_char.rise
      && Array.for_all (fun x -> x >= 1.0 -. 1e-9) f.Delay_char.fall)

let test_hvt_pmos_only_hurts_rise () =
  let cell = Topology.of_kind Gate_kind.Nand2 in
  let a =
    { (Topology.fast_assignment cell) with
      Topology.vt = [| Process.Low_vt; Process.Low_vt; Process.High_vt; Process.High_vt |] }
  in
  let f = Delay_char.factors p cell a in
  check Alcotest.bool "rise slower" true (Delay_char.worst_rise f > 1.1);
  check (Alcotest.float 1e-9) "fall untouched" 1.0 (Delay_char.worst_fall f)

let test_chain_position_dependence () =
  (* A slow device deep in the chain hurts the pin driving it more than
     pins above it. *)
  let cell = Topology.of_kind Gate_kind.Nand2 in
  let a =
    { (Topology.fast_assignment cell) with
      Topology.vt = [| Process.Low_vt; Process.High_vt; Process.Low_vt; Process.Low_vt |] }
  in
  let f = Delay_char.factors p cell a in
  check Alcotest.bool "bottom pin worse" true (f.Delay_char.fall.(1) > f.Delay_char.fall.(0))

(* ----------------------------- Version ---------------------------- *)

let test_enumerate_fast_first () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      let candidates = Version.enumerate Version.default_mode cell in
      check Alcotest.bool "fast first" true
        (Topology.assignment_equal candidates.(0) (Topology.fast_assignment cell)))
    all_kinds

let test_enumerate_tox_uniform () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      Array.iter
        (fun a ->
          if not (Topology.tox_stack_uniform cell a) then
            Alcotest.failf "%s: non-uniform tox candidate" (Gate_kind.name kind))
        (Version.enumerate Version.default_mode cell))
    all_kinds

let test_generated_versions_structure () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      let g = Version.generate p Version.default_mode cell in
      check Alcotest.bool
        (Gate_kind.name kind ^ " fast is version 0")
        true
        (Topology.assignment_equal g.Version.versions.(0) (Topology.fast_assignment cell));
      Array.iteri
        (fun state opts ->
          if Array.length opts < 1 || Array.length opts > 4 then
            Alcotest.failf "%s state %d: %d options" (Gate_kind.name kind) state
              (Array.length opts);
          (* sorted ascending, fast present, versions distinct *)
          let has_fast = ref false in
          Array.iteri
            (fun i (o : Version.option_entry) ->
              if o.Version.version = 0 then has_fast := true;
              if i > 0 && opts.(i - 1).Version.leakage > o.Version.leakage +. 1e-18 then
                Alcotest.failf "%s state %d: options not sorted" (Gate_kind.name kind) state)
            opts;
          if not !has_fast then
            Alcotest.failf "%s state %d: fast version missing" (Gate_kind.name kind) state)
        g.Version.options)
    all_kinds

let test_version_counts_match_paper_band () =
  (* Exact counts differ slightly from the paper; the structure must
     stay in the same small band and the NAND2/INV counts match
     exactly. *)
  let lib = Library.build p in
  check Alcotest.int "INV versions" 5 (Library.version_count lib Gate_kind.Inv);
  check Alcotest.int "NAND2 versions" 5 (Library.version_count lib Gate_kind.Nand2);
  List.iter
    (fun kind ->
      let n = Library.version_count lib kind in
      if n < 3 || n > 12 then Alcotest.failf "%s: %d versions" (Gate_kind.name kind) n)
    all_kinds

let test_two_option_smaller () =
  let lib4 = Library.build p in
  let lib2 = Library.build ~mode:Version.two_option_mode p in
  List.iter
    (fun kind ->
      check Alcotest.bool
        (Gate_kind.name kind ^ " 2opt <= 4opt")
        true
        (Library.version_count lib2 kind <= Library.version_count lib4 kind))
    all_kinds

let test_two_option_roles () =
  let g = Version.generate p Version.two_option_mode (Topology.of_kind Gate_kind.Nand2) in
  Array.iter
    (fun opts ->
      if Array.length opts > 2 then Alcotest.fail "2-option state has more than 2 points")
    g.Version.options

let test_vt_mode_has_no_thick () =
  let g = Version.generate p Version.vt_and_state_mode (Topology.of_kind Gate_kind.Nand2) in
  Array.iter
    (fun (a : Topology.assignment) ->
      if Array.exists (fun t -> t = Process.Thick_ox) a.Topology.tox then
        Alcotest.fail "thick oxide in vt-only library")
    g.Version.versions

let test_state_only_mode_fast_only () =
  let g = Version.generate p Version.state_only_mode (Topology.of_kind Gate_kind.Nor3) in
  check Alcotest.int "one version" 1 (Array.length g.Version.versions)

let test_uniform_stack_mode () =
  List.iter
    (fun kind ->
      let cell = Topology.of_kind kind in
      let g = Version.generate p Version.uniform_stack_mode cell in
      Array.iter
        (fun a ->
          if not (Topology.vt_stack_uniform cell a) then
            Alcotest.failf "%s: non-uniform vt in uniform mode" (Gate_kind.name kind))
        g.Version.versions)
    all_kinds

let test_min_leak_below_fast () =
  let lib = Library.build p in
  List.iter
    (fun kind ->
      let info = Library.info lib kind in
      Array.iteri
        (fun state min_leak ->
          if min_leak > info.Library.fast_leakage.(state) +. 1e-18 then
            Alcotest.failf "%s state %d: min above fast" (Gate_kind.name kind) state)
        info.Library.min_leakage)
    all_kinds

let test_nand2_shared_version () =
  (* The paper's key sharing: states 00 and 10 use the same single
     high-Vt version (Figure 3 e/f). *)
  let lib = Library.build p in
  let info = Library.info lib Gate_kind.Nand2 in
  let min_version state =
    (Library.options lib Gate_kind.Nand2 ~state).(0).Version.version
  in
  check Alcotest.int "00 and 10 share" (min_version 0) (min_version 2);
  check Alcotest.int "01 shares too" (min_version 1) (min_version 2);
  (* and that version modifies exactly one device *)
  let v = info.Library.versions.(min_version 0) in
  check Alcotest.int "single-device version" 1 (Topology.slow_device_count v)

(* The one (token, mode) table the CLI, manifests and the wire share:
   every token round-trips, and an unknown one is refused with all six
   tokens named. *)
let test_mode_tokens () =
  check Alcotest.int "six library modes" 6 (List.length Version.mode_tokens);
  List.iter
    (fun (token, mode) ->
      check Alcotest.bool (token ^ " parses to its mode") true
        (Version.mode_of_token token = Ok mode);
      check Alcotest.string (token ^ " prints back") token (Version.mode_token mode))
    Version.mode_tokens;
  match Version.mode_of_token "4-option" with
  | Ok _ -> Alcotest.fail "a display name is not a token"
  | Error msg ->
    let names token =
      let n = String.length msg and m = String.length token in
      let rec go i = i + m <= n && (String.sub msg i m = token || go (i + 1)) in
      go 0
    in
    List.iter
      (fun (token, _) ->
        if not (names token) then Alcotest.failf "error %S does not name %S" msg token)
      Version.mode_tokens

(* ----------------------------- Library ---------------------------- *)

let test_library_lookups () =
  let lib = Library.build p in
  check Alcotest.bool "mode" true (Library.mode lib = Version.default_mode);
  List.iter
    (fun kind ->
      for state = 0 to Gate_kind.state_count kind - 1 do
        let fi = Library.fast_option_index lib kind ~state in
        let opts = Library.options lib kind ~state in
        check Alcotest.int "fast option is version 0" 0 opts.(fi).Version.version;
        let min0 = opts.(0).Version.leakage in
        check (Alcotest.float 1e-18) "min_leakage matches options"
          min0
          (Library.info lib kind).Library.min_leakage.(state)
      done)
    all_kinds

let test_library_slowest_below_fast_average () =
  let lib = Library.build p in
  List.iter
    (fun kind ->
      let info = Library.info lib kind in
      let avg a = Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a) in
      check Alcotest.bool
        (Gate_kind.name kind ^ " slowest leaks less")
        true
        (avg info.Library.slowest_leakage < avg info.Library.fast_leakage))
    all_kinds

let test_library_factor_accessors () =
  let lib = Library.build p in
  check (Alcotest.float 1e-9) "fast rise factor" 1.0
    (Library.rise_factor lib Gate_kind.Nand2 ~version:0 ~pin:0);
  check (Alcotest.float 1e-9) "fast fall factor" 1.0
    (Library.fall_factor lib Gate_kind.Nand2 ~version:0 ~pin:1)

(* ----------------------------- Liberty ---------------------------- *)

module Liberty = Standby_cells.Liberty

let liberty_text = lazy (Liberty.to_string (Library.build p))

let count_occurrences text needle =
  let nl = String.length needle in
  let count = ref 0 in
  for i = 0 to String.length text - nl do
    if String.sub text i nl = needle then incr count
  done;
  !count

let test_liberty_braces_balanced () =
  let text = Lazy.force liberty_text in
  let opens = count_occurrences text "{" and closes = count_occurrences text "}" in
  check Alcotest.int "balanced braces" opens closes

let test_liberty_cell_count () =
  let lib = Library.build p in
  let text = Lazy.force liberty_text in
  check Alcotest.int "one Liberty cell per version" (Library.total_version_count lib)
    (count_occurrences text "cell (")

let test_liberty_state_dependent_leakage () =
  let lib = Library.build p in
  let text = Lazy.force liberty_text in
  (* Every (version, state) pair gets a leakage_power group. *)
  let expected =
    List.fold_left
      (fun acc kind ->
        acc + (Library.version_count lib kind * Gate_kind.state_count kind))
      0 all_kinds
  in
  check Alcotest.int "leakage_power groups" expected
    (count_occurrences text "leakage_power () {")

let test_liberty_functions_present () =
  let text = Lazy.force liberty_text in
  List.iter
    (fun fragment ->
      if count_occurrences text fragment = 0 then
        Alcotest.failf "missing fragment %S" fragment)
    [
      "function : \"!(A & B)\"";
      "function : \"!((A & B) | C)\"";
      "cell_footprint : \"NAND2\"";
      "timing_sense : negative_unate";
      "cell_rise (load_template)";
    ]

let test_liberty_fast_cell_leakage_matches () =
  (* The INV_V0 average leakage printed must equal the library's fast
     table average (in nW at Vdd). *)
  let lib = Library.build p in
  let info = Library.info lib Gate_kind.Inv in
  let avg =
    Array.fold_left ( +. ) 0.0 info.Library.fast_leakage
    /. float_of_int (Array.length info.Library.fast_leakage)
    *. p.Process.vdd *. 1e9
  in
  let text = Lazy.force liberty_text in
  let expected = Printf.sprintf "cell_leakage_power : %.3f;" avg in
  if count_occurrences text expected = 0 then
    Alcotest.failf "INV_V0 leakage %s not found" expected

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_cells"
    [
      ( "topology",
        [
          quick "device counts" test_device_counts;
          quick "stacks partition" test_stacks_partition;
          quick "pin coverage" test_pin_coverage;
          quick "permutation count" test_permutations_count;
          quick "apply permutation" test_apply_permutation;
          QCheck_alcotest.to_alcotest test_apply_permutation_involution;
          quick "assignment helpers" test_assignment_helpers;
        ] );
      ( "stack-solver",
        [
          quick "output matches logic" test_output_matches_logic;
          quick "leakage plausible" test_leakage_positive_and_finite;
          quick "stack effect" test_stack_effect;
          quick "vt kills isub" test_vt_kills_isub;
          quick "tox kills igate" test_tox_kills_igate;
          quick "on-above-off igate" test_on_above_off_small_igate;
          quick "equalized parallel off" test_parallel_off_no_leak_when_equalized;
          quick "conducting chain" test_conducting_chain_nodes_at_rail;
          QCheck_alcotest.to_alcotest test_cache_consistency;
          quick "input validation" test_solver_validates_inputs;
          QCheck_alcotest.to_alcotest test_breakdown_adds_up;
        ] );
      ( "characterize",
        [
          quick "best perm" test_best_perm_not_worse;
          quick "average" test_average_leakage_is_mean;
        ] );
      ( "complex-cells",
        [
          quick "aoi21 parallel isub" test_aoi21_parallel_branch_isub;
          quick "oai21 stack effect" test_oai21_stack_effect_in_branch;
          quick "library coverage" test_complex_cells_in_library;
        ] );
      ( "delay-char",
        [
          quick "fast is one" test_fast_factors_are_one;
          QCheck_alcotest.to_alcotest test_factors_at_least_one;
          quick "pmos only rise" test_hvt_pmos_only_hurts_rise;
          quick "chain position" test_chain_position_dependence;
        ] );
      ( "version",
        [
          quick "enumerate fast first" test_enumerate_fast_first;
          quick "enumerate tox uniform" test_enumerate_tox_uniform;
          quick "generated structure" test_generated_versions_structure;
          quick "counts near paper" test_version_counts_match_paper_band;
          quick "2-option smaller" test_two_option_smaller;
          quick "2-option roles" test_two_option_roles;
          quick "vt mode no thick" test_vt_mode_has_no_thick;
          quick "state-only fast only" test_state_only_mode_fast_only;
          quick "uniform stack vt" test_uniform_stack_mode;
          quick "min below fast" test_min_leak_below_fast;
          quick "nand2 shared version" test_nand2_shared_version;
          quick "mode tokens round-trip" test_mode_tokens;
        ] );
      ( "library",
        [
          quick "lookups" test_library_lookups;
          quick "slowest leaks less" test_library_slowest_below_fast_average;
          quick "factor accessors" test_library_factor_accessors;
        ] );
      ( "liberty",
        [
          quick "braces balanced" test_liberty_braces_balanced;
          quick "cell count" test_liberty_cell_count;
          quick "state-dependent leakage" test_liberty_state_dependent_leakage;
          quick "functions present" test_liberty_functions_present;
          quick "fast cell leakage" test_liberty_fast_cell_leakage_matches;
        ] );
    ]
