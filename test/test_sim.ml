(* Tests for standby_sim: two- and three-valued simulation. *)

module Gate_kind = Standby_netlist.Gate_kind
module Netlist = Standby_netlist.Netlist
module Logic = Standby_sim.Logic
module Simulator = Standby_sim.Simulator
module Prng = Standby_util.Prng

let check = Alcotest.check

(* ------------------------------- Logic ---------------------------- *)

let trit = Alcotest.testable Logic.pp Logic.equal

let test_logic_not () =
  check trit "not 1" Logic.False (Logic.lnot Logic.True);
  check trit "not 0" Logic.True (Logic.lnot Logic.False);
  check trit "not X" Logic.Unknown (Logic.lnot Logic.Unknown)

let test_logic_nand_controlling () =
  (* A controlling 0 decides the output despite unknowns. *)
  check trit "nand(0,X)" Logic.True (Logic.nand [| Logic.False; Logic.Unknown |]);
  check trit "nand(1,X)" Logic.Unknown (Logic.nand [| Logic.True; Logic.Unknown |]);
  check trit "nand(1,1)" Logic.False (Logic.nand [| Logic.True; Logic.True |])

let test_logic_nor_controlling () =
  check trit "nor(1,X)" Logic.False (Logic.nor [| Logic.True; Logic.Unknown |]);
  check trit "nor(0,X)" Logic.Unknown (Logic.nor [| Logic.False; Logic.Unknown |]);
  check trit "nor(0,0)" Logic.True (Logic.nor [| Logic.False; Logic.False |])

let test_logic_of_to_bool () =
  check (Alcotest.option Alcotest.bool) "to_bool 1" (Some true) (Logic.to_bool Logic.True);
  check (Alcotest.option Alcotest.bool) "to_bool X" None (Logic.to_bool Logic.Unknown);
  check trit "of_bool" Logic.True (Logic.of_bool true);
  check Alcotest.bool "is_known" false (Logic.is_known Logic.Unknown)

(* ----------------------------- Simulator -------------------------- *)

(* Reference evaluation by recursive descent, independent of the
   iter_gates order. *)
let reference_eval net inputs =
  let input_ids = Netlist.inputs net in
  let cache = Hashtbl.create 64 in
  Array.iteri (fun i id -> Hashtbl.replace cache id inputs.(i)) input_ids;
  let rec value id =
    match Hashtbl.find_opt cache id with
    | Some v -> v
    | None ->
      let v =
        match Netlist.node net id with
        | Netlist.Primary_input -> assert false
        | Netlist.Cell { kind; fanin } -> Gate_kind.eval kind (Array.map value fanin)
      in
      Hashtbl.replace cache id v;
      v
  in
  Array.init (Netlist.node_count net) value

let random_circuit seed =
  Standby_circuits.Random_logic.generate ~seed ~inputs:8 ~gates:40 ()

let test_eval_matches_reference =
  QCheck.Test.make ~count:50 ~name:"eval matches recursive reference"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 255)))
    (fun (seed, v) ->
      let net = random_circuit seed in
      let inputs = Array.init 8 (fun i -> (v lsr i) land 1 = 1) in
      Simulator.eval net inputs = reference_eval net inputs)

let test_eval_input_mismatch () =
  let net = random_circuit 1 in
  Alcotest.check_raises "wrong input count"
    (Invalid_argument "Simulator.eval: input count mismatch") (fun () ->
      ignore (Simulator.eval net [| true |]))

let test_partial_agrees_with_full =
  QCheck.Test.make ~count:50 ~name:"eval_partial with full info equals eval"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 255)))
    (fun (seed, v) ->
      let net = random_circuit seed in
      let inputs = Array.init 8 (fun i -> (v lsr i) land 1 = 1) in
      let trits = Array.map Logic.of_bool inputs in
      let full = Simulator.eval net inputs in
      let partial = Simulator.eval_partial net trits in
      Array.for_all2 (fun b t -> Logic.to_bool t = Some b) full partial)

let test_partial_sound =
  (* Whatever eval_partial claims to know must hold for every completion
     of the unknown inputs. *)
  QCheck.Test.make ~count:30 ~name:"partial values sound for all completions"
    QCheck.(make Gen.(triple (int_range 0 500) (int_range 0 255) (int_range 0 255)))
    (fun (seed, known_mask, values) ->
      let net = random_circuit seed in
      let trits =
        Array.init 8 (fun i ->
            if (known_mask lsr i) land 1 = 1 then Logic.of_bool ((values lsr i) land 1 = 1)
            else Logic.Unknown)
      in
      let partial = Simulator.eval_partial net trits in
      let sound = ref true in
      for completion = 0 to 255 do
        let inputs =
          Array.init 8 (fun i ->
              match trits.(i) with
              | Logic.True -> true
              | Logic.False -> false
              | Logic.Unknown -> (completion lsr i) land 1 = 1)
        in
        let full = Simulator.eval net inputs in
        Array.iteri
          (fun id t ->
            match Logic.to_bool t with
            | Some claimed -> if claimed <> full.(id) then sound := false
            | None -> ())
          partial
      done;
      !sound)

(* --------------------------- Workspace ---------------------------- *)

module Workspace = Simulator.Workspace

(* Random assume/retract walk: after every step the workspace's node
   values must equal a fresh eval_partial over the same partial input
   assignment, and on full assignment they must match eval. *)
let test_workspace_matches_oracle =
  QCheck.Test.make ~count:40 ~name:"workspace assume/retract matches eval_partial"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 1_000_000)))
    (fun (seed, walk) ->
      let net = random_circuit seed in
      let rng = Prng.create ~seed:walk in
      let ws = Workspace.create net in
      let trits = Array.make 8 Logic.Unknown in
      let assumed = ref [] in
      let depth () = List.length !assumed in
      let agrees () =
        let oracle = Simulator.eval_partial net trits in
        Array.for_all2 Logic.equal oracle (Workspace.values ws)
      in
      let ok = ref (agrees ()) in
      for _ = 1 to 60 do
        if !ok then begin
          if depth () > 0 && (depth () = 8 || Prng.bool rng) then begin
            let pos = List.hd !assumed in
            assumed := List.tl !assumed;
            Workspace.retract ws;
            trits.(pos) <- Logic.Unknown
          end
          else begin
            let free =
              Array.to_list (Array.init 8 Fun.id)
              |> List.filter (fun p -> trits.(p) = Logic.Unknown)
            in
            let pos = List.nth free (Prng.int rng ~bound:(List.length free)) in
            let v = Logic.of_bool (Prng.bool rng) in
            Workspace.assume ws pos v;
            trits.(pos) <- v;
            assumed := pos :: !assumed
          end;
          ok := agrees () && Workspace.depth ws = depth ()
        end
      done;
      !ok)

let test_workspace_full_assignment_matches_eval =
  QCheck.Test.make ~count:40 ~name:"fully assumed workspace equals eval"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 255)))
    (fun (seed, v) ->
      let net = random_circuit seed in
      let ws = Workspace.create net in
      let inputs = Array.init 8 (fun i -> (v lsr i) land 1 = 1) in
      Array.iteri (fun pos b -> Workspace.assume ws pos (Logic.of_bool b)) inputs;
      let full = Simulator.eval net inputs in
      let ok =
        Array.for_all2
          (fun b t -> Logic.to_bool t = Some b)
          full (Workspace.values ws)
      in
      (* Unwind and confirm the workspace is clean again. *)
      for _ = 1 to 8 do
        Workspace.retract ws
      done;
      ok
      && Workspace.depth ws = 0
      && Array.for_all (fun t -> t = Logic.Unknown) (Workspace.values ws))

let test_workspace_touch_covers_changes () =
  (* Every gate whose value changes during an assume must be reported
     through on_touch (the bound-maintenance contract). *)
  let net = random_circuit 7 in
  let ws = Workspace.create net in
  let touched = Hashtbl.create 16 in
  let before = Array.copy (Workspace.values ws) in
  Workspace.assume ~on_touch:(fun id -> Hashtbl.replace touched id ()) ws 0 Logic.True;
  let after = Workspace.values ws in
  Array.iteri
    (fun id b ->
      if not (Logic.equal b after.(id)) && not (Netlist.is_input net id) then
        check Alcotest.bool (Printf.sprintf "gate %d touched" id) true
          (Hashtbl.mem touched id))
    before

let test_workspace_rejects_misuse () =
  let net = random_circuit 1 in
  let ws = Workspace.create net in
  Alcotest.check_raises "unknown value"
    (Invalid_argument "Workspace.assume: value must be known") (fun () ->
      Workspace.assume ws 0 Logic.Unknown);
  Workspace.assume ws 0 Logic.True;
  Alcotest.check_raises "double assignment"
    (Invalid_argument "Workspace.assume: input already assigned") (fun () ->
      Workspace.assume ws 0 Logic.False);
  Workspace.retract ws;
  Alcotest.check_raises "empty retract"
    (Invalid_argument "Workspace.retract: nothing to retract") (fun () ->
      Workspace.retract ws)

let test_gate_states_convention () =
  (* gate_states packs fanin 0 as the MSB. *)
  let b = Netlist.Builder.create () in
  let a = Netlist.Builder.add_input b in
  let c = Netlist.Builder.add_input b in
  let g = Netlist.Builder.add_gate b Gate_kind.Nand2 [| a; c |] in
  Netlist.Builder.mark_output b g;
  let net = Netlist.Builder.finish b in
  let values = Simulator.eval net [| true; false |] in
  let states = Simulator.gate_states net values in
  check Alcotest.int "state 10" 2 states.(g);
  check Alcotest.int "inputs report 0" 0 states.(a)

let test_output_vector () =
  let net = random_circuit 3 in
  let rng = Prng.create ~seed:4 in
  let inputs = Array.init 8 (fun _ -> Prng.bool rng) in
  let values = Simulator.eval net inputs in
  let out = Simulator.output_vector net inputs in
  Array.iteri
    (fun i o -> check Alcotest.bool "output matches values" values.(o) out.(i))
    (Netlist.outputs net)

(* ----------------------------- Bitsim ----------------------------- *)

module Bitsim = Standby_sim.Bitsim

let test_popcount () =
  check Alcotest.int "zero" 0 (Bitsim.popcount 0);
  check Alcotest.int "one" 1 (Bitsim.popcount 1);
  check Alcotest.int "sign bit counts" 63 (Bitsim.popcount (-1));
  check Alcotest.int "alternating" 31 (Bitsim.popcount (max_int land 0x2AAAAAAAAAAAAAAA));
  let naive x =
    let n = ref 0 in
    for b = 0 to 62 do
      if (x lsr b) land 1 = 1 then incr n
    done;
    !n
  in
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Int64.to_int (Prng.next_int64 rng) in
    check Alcotest.int "matches naive" (naive x) (Bitsim.popcount x)
  done

let test_block_geometry () =
  check Alcotest.int "lanes" 63 Bitsim.lanes;
  check Alcotest.int "one block" 1 (Bitsim.block_count ~vectors:63);
  check Alcotest.int "partial tail" 2 (Bitsim.block_count ~vectors:64);
  check Alcotest.int "full block lanes" 63 (Bitsim.lanes_in_block ~vectors:126 ~block:0);
  check Alcotest.int "tail lanes" 1 (Bitsim.lanes_in_block ~vectors:64 ~block:1);
  check Alcotest.int "full mask" (-1) (Bitsim.lane_mask ~lanes:63);
  check Alcotest.int "partial mask" 7 (Bitsim.lane_mask ~lanes:3);
  Alcotest.check_raises "vectors must be positive"
    (Invalid_argument "Bitsim.block_count: vectors must be positive") (fun () ->
      ignore (Bitsim.block_count ~vectors:0))

(* The packed engine's lanes must be exactly the scalar simulator's
   results on the lane's own input vector — the central correctness
   property of the whole bit-parallel path. *)
let lanes_match_scalar net seed block =
  let bsim = Bitsim.create net in
  Bitsim.load_block bsim ~seed ~block;
  Bitsim.eval bsim;
  let ok = ref true in
  for lane = 0 to Bitsim.lanes - 1 do
    let scalar = Simulator.eval net (Bitsim.lane_vector bsim ~lane) in
    if not (Array.for_all2 ( = ) scalar (Bitsim.lane_values bsim ~lane)) then ok := false
  done;
  !ok

let test_bitsim_matches_scalar_random =
  QCheck.Test.make ~count:50 ~name:"bitsim lanes equal scalar eval (random netlists)"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 50)))
    (fun (seed, block) -> lanes_match_scalar (random_circuit seed) 0x5eed block)

let test_bitsim_matches_scalar_iscas () =
  List.iter
    (fun name ->
      check Alcotest.bool name true
        (lanes_match_scalar (Standby_circuits.Benchmarks.circuit name) 0x5eed 0))
    Standby_circuits.Benchmarks.names

(* One gate of each of the nine kinds, with fan-ins that mix primary
   inputs and correlated gate outputs and one pin tied twice. *)
let every_kind_circuit () =
  let b = Netlist.Builder.create ~name:"every_kind" () in
  let i = Array.init 4 (fun _ -> Netlist.Builder.add_input b) in
  let gate kind fanin = Netlist.Builder.add_gate b kind fanin in
  let inv = gate Gate_kind.Inv [| i.(0) |] in
  let nand2 = gate Gate_kind.Nand2 [| i.(0); inv |] in
  let nand3 = gate Gate_kind.Nand3 [| i.(1); i.(2); nand2 |] in
  let nand4 = gate Gate_kind.Nand4 [| i.(0); i.(1); i.(2); i.(3) |] in
  let nor2 = gate Gate_kind.Nor2 [| nand3; nand3 |] in
  let nor3 = gate Gate_kind.Nor3 [| i.(3); nand4; i.(1) |] in
  let nor4 = gate Gate_kind.Nor4 [| nor2; nor3; i.(2); i.(0) |] in
  let aoi = gate Gate_kind.Aoi21 [| nor4; i.(3); nand4 |] in
  let oai = gate Gate_kind.Oai21 [| i.(1); aoi; nor3 |] in
  Netlist.Builder.mark_output b oai;
  Netlist.Builder.mark_output b nand2;
  Netlist.Builder.finish b

(* The counting pass against a lane-by-lane scalar walk: exact integer
   equality of every (gate, state) count, over vector counts with a
   one-lane set, partial tails, one exact block and several blocks. *)
let state_counts_match_scalar net seed =
  List.for_all
    (fun vectors ->
      let bsim = Bitsim.create net in
      let n_blocks = Bitsim.block_count ~vectors in
      Bitsim.count_blocks bsim ~seed ~vectors ~first:0 ~last:n_blocks;
      let counts = Bitsim.counts bsim in
      let expected = Array.make_matrix (Netlist.node_count net) 16 0 in
      let oracle = Bitsim.create net in
      for block = 0 to n_blocks - 1 do
        Bitsim.load_block oracle ~seed ~block;
        for lane = 0 to Bitsim.lanes_in_block ~vectors ~block - 1 do
          let values = Simulator.eval net (Bitsim.lane_vector oracle ~lane) in
          let states = Simulator.gate_states net values in
          Netlist.iter_gates net (fun id _ _ ->
              expected.(id).(states.(id)) <- expected.(id).(states.(id)) + 1)
        done
      done;
      let ok = ref (Bitsim.vectors counts = vectors) in
      Netlist.iter_gates net (fun id kind _ ->
          for s = 0 to Gate_kind.state_count kind - 1 do
            if Bitsim.count counts id s <> expected.(id).(s) then ok := false
          done);
      !ok)
    [ 1; 62; 63; 64; 200 ]

let test_bitsim_state_counts =
  QCheck.Test.make ~count:20 ~name:"state counts equal scalar histogram"
    QCheck.(make Gen.(pair (int_range 0 1000) (int_range 0 1000)))
    (fun (net_seed, seed) -> state_counts_match_scalar (random_circuit net_seed) seed)

let test_bitsim_state_counts_every_kind () =
  let net = every_kind_circuit () in
  check Alcotest.int "nine kinds" 9 (List.length (Netlist.gate_histogram net));
  List.iter
    (fun seed ->
      check Alcotest.bool (Printf.sprintf "seed %d" seed) true (state_counts_match_scalar net seed))
    [ 0; 7; 0x5eed ]

let test_bitsim_deterministic_load () =
  (* Lanes are a pure function of (seed, block): reloading reproduces the
     input words, and different blocks differ. *)
  let net = random_circuit 5 in
  let bsim = Bitsim.create net in
  Bitsim.load_block bsim ~seed:42 ~block:3;
  let w0 = Array.init (Netlist.input_count net) (Bitsim.input_word bsim) in
  Bitsim.load_block bsim ~seed:42 ~block:4;
  let w1 = Array.init (Netlist.input_count net) (Bitsim.input_word bsim) in
  Bitsim.load_block bsim ~seed:42 ~block:3;
  let w2 = Array.init (Netlist.input_count net) (Bitsim.input_word bsim) in
  check Alcotest.bool "reload reproduces" true (w0 = w2);
  check Alcotest.bool "blocks differ" true (w0 <> w1)

let test_bitsim_words_evaluated () =
  let net = random_circuit 2 in
  let bsim = Bitsim.create net in
  check Alcotest.int "starts at zero" 0 (Bitsim.words_evaluated bsim);
  Bitsim.load_block bsim ~seed:1 ~block:0;
  Bitsim.eval bsim;
  Bitsim.eval bsim;
  check Alcotest.int "counts gate words" (2 * Netlist.gate_count net)
    (Bitsim.words_evaluated bsim)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_sim"
    [
      ( "logic",
        [
          quick "not" test_logic_not;
          quick "nand controlling" test_logic_nand_controlling;
          quick "nor controlling" test_logic_nor_controlling;
          quick "bool conversions" test_logic_of_to_bool;
        ] );
      ( "simulator",
        [
          QCheck_alcotest.to_alcotest test_eval_matches_reference;
          quick "input mismatch" test_eval_input_mismatch;
          QCheck_alcotest.to_alcotest test_partial_agrees_with_full;
          QCheck_alcotest.to_alcotest test_partial_sound;
          quick "gate states convention" test_gate_states_convention;
          quick "output vector" test_output_vector;
        ] );
      ( "workspace",
        [
          QCheck_alcotest.to_alcotest test_workspace_matches_oracle;
          QCheck_alcotest.to_alcotest test_workspace_full_assignment_matches_eval;
          quick "on_touch covers changes" test_workspace_touch_covers_changes;
          quick "rejects misuse" test_workspace_rejects_misuse;
        ] );
      ( "bitsim",
        [
          quick "popcount" test_popcount;
          quick "block geometry" test_block_geometry;
          QCheck_alcotest.to_alcotest test_bitsim_matches_scalar_random;
          quick "lanes match scalar on ISCAS" test_bitsim_matches_scalar_iscas;
          QCheck_alcotest.to_alcotest test_bitsim_state_counts;
          quick "state counts on every kind" test_bitsim_state_counts_every_kind;
          quick "deterministic load" test_bitsim_deterministic_load;
          quick "words evaluated" test_bitsim_words_evaluated;
        ] );
    ]
