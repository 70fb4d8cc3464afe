(* Tests for standby_netlist: gate semantics, builder invariants,
   technology mapping, and .bench I/O. *)

module Gate_kind = Standby_netlist.Gate_kind
module Netlist = Standby_netlist.Netlist
module Logic_build = Standby_netlist.Logic_build
module Bench_io = Standby_netlist.Bench_io
module B = Netlist.Builder

let check = Alcotest.check

(* ----------------------------- Gate_kind -------------------------- *)

let test_arities () =
  List.iter
    (fun (kind, a) -> check Alcotest.int (Gate_kind.name kind) a (Gate_kind.arity kind))
    [ (Gate_kind.Inv, 1); (Gate_kind.Nand2, 2); (Gate_kind.Nand3, 3);
      (Gate_kind.Nand4, 4); (Gate_kind.Nor2, 2); (Gate_kind.Nor3, 3);
      (Gate_kind.Nor4, 4); (Gate_kind.Aoi21, 3); (Gate_kind.Oai21, 3) ]

let test_truth_tables () =
  check Alcotest.bool "inv 0" true (Gate_kind.eval Gate_kind.Inv [| false |]);
  check Alcotest.bool "inv 1" false (Gate_kind.eval Gate_kind.Inv [| true |]);
  check Alcotest.bool "nand2 11" false (Gate_kind.eval Gate_kind.Nand2 [| true; true |]);
  check Alcotest.bool "nand2 10" true (Gate_kind.eval Gate_kind.Nand2 [| true; false |]);
  check Alcotest.bool "nor2 00" true (Gate_kind.eval Gate_kind.Nor2 [| false; false |]);
  check Alcotest.bool "nor2 01" false (Gate_kind.eval Gate_kind.Nor2 [| false; true |]);
  check Alcotest.bool "nand3 111" false
    (Gate_kind.eval Gate_kind.Nand3 [| true; true; true |]);
  check Alcotest.bool "nor3 000" true
    (Gate_kind.eval Gate_kind.Nor3 [| false; false; false |]);
  check Alcotest.bool "nand4 1111" false
    (Gate_kind.eval Gate_kind.Nand4 [| true; true; true; true |]);
  check Alcotest.bool "nor4 0000" true
    (Gate_kind.eval Gate_kind.Nor4 [| false; false; false; false |]);
  (* AOI21 = not (i0*i1 + i2) *)
  check Alcotest.bool "aoi21 110" false (Gate_kind.eval Gate_kind.Aoi21 [| true; true; false |]);
  check Alcotest.bool "aoi21 100" true (Gate_kind.eval Gate_kind.Aoi21 [| true; false; false |]);
  check Alcotest.bool "aoi21 001" false (Gate_kind.eval Gate_kind.Aoi21 [| false; false; true |]);
  (* OAI21 = not ((i0+i1) * i2) *)
  check Alcotest.bool "oai21 101" false (Gate_kind.eval Gate_kind.Oai21 [| true; false; true |]);
  check Alcotest.bool "oai21 110" true (Gate_kind.eval Gate_kind.Oai21 [| true; true; false |]);
  check Alcotest.bool "oai21 001" true (Gate_kind.eval Gate_kind.Oai21 [| false; false; true |])

let test_eval_arity_mismatch () =
  Alcotest.check_raises "wrong arity" (Invalid_argument "Gate_kind.eval: wrong input count")
    (fun () -> ignore (Gate_kind.eval Gate_kind.Nand2 [| true |]))

let test_state_roundtrip =
  QCheck.Test.make ~count:200 ~name:"state packing roundtrip"
    QCheck.(make Gen.(pair (int_range 0 8) (int_range 0 15)))
    (fun (kind_index, state) ->
      let kind = List.nth Gate_kind.all kind_index in
      let state = state mod Gate_kind.state_count kind in
      Gate_kind.state_of_bits kind (Gate_kind.bits_of_state kind state) = state)

let test_state_msb_convention () =
  (* Pin 0 is the most significant bit: NAND2 state "10" = i1 high. *)
  let bits = Gate_kind.bits_of_state Gate_kind.Nand2 2 in
  check Alcotest.bool "i1 of 10" true bits.(0);
  check Alcotest.bool "i2 of 10" false bits.(1)

(* ----------------------------- Builder ---------------------------- *)

let tiny_netlist () =
  let b = B.create ~name:"tiny" () in
  let a = B.add_input ~name:"a" b in
  let c = B.add_input ~name:"c" b in
  let g1 = B.add_gate ~name:"g1" b Gate_kind.Nand2 [| a; c |] in
  let g2 = B.add_gate ~name:"g2" b Gate_kind.Inv [| g1 |] in
  B.mark_output ~name:"out" b g2;
  B.finish b

let test_builder_basics () =
  let net = tiny_netlist () in
  check Alcotest.int "nodes" 4 (Netlist.node_count net);
  check Alcotest.int "inputs" 2 (Netlist.input_count net);
  check Alcotest.int "gates" 2 (Netlist.gate_count net);
  check Alcotest.string "design name" "tiny" (Netlist.design_name net);
  check Alcotest.int "depth" 2 (Netlist.depth net);
  check (Alcotest.option Alcotest.int) "id by name" (Some 2) (Netlist.id_of_name net "g1")

let test_builder_validation () =
  let net = tiny_netlist () in
  check (Alcotest.result Alcotest.unit Alcotest.string) "valid" (Ok ()) (Netlist.validate net)

let test_builder_bad_fanin () =
  let b = B.create () in
  let a = B.add_input b in
  Alcotest.check_raises "forward reference"
    (Invalid_argument "Netlist.Builder.add_gate: fan-in refers to an unknown node")
    (fun () -> ignore (B.add_gate b Gate_kind.Nand2 [| a; 99 |]))

let test_builder_bad_arity () =
  let b = B.create () in
  let a = B.add_input b in
  Alcotest.check_raises "arity"
    (Invalid_argument "Netlist.Builder.add_gate: fan-in count does not match arity")
    (fun () -> ignore (B.add_gate b Gate_kind.Nand2 [| a |]))

let test_builder_no_output () =
  let b = B.create () in
  ignore (B.add_input b);
  Alcotest.check_raises "no output"
    (Invalid_argument "Netlist.Builder.finish: netlist has no primary output") (fun () ->
      ignore (B.finish b))

let test_double_mark () =
  let b = B.create () in
  let a = B.add_input b in
  B.mark_output b a;
  Alcotest.check_raises "double mark"
    (Invalid_argument "Netlist.Builder.mark_output: node marked twice") (fun () ->
      B.mark_output b a)

let test_fanout_consistency () =
  let net = tiny_netlist () in
  (* a and c each drive g1; g1 drives g2; g2 drives nothing. *)
  check (Alcotest.array Alcotest.int) "fanout of a" [| 2 |] (Netlist.fanout net 0);
  check (Alcotest.array Alcotest.int) "fanout of g1" [| 3 |] (Netlist.fanout net 2);
  check Alcotest.int "fanout count of g2" 0 (Netlist.fanout_count net 3)

let test_levels () =
  let net = tiny_netlist () in
  check (Alcotest.array Alcotest.int) "levels" [| 0; 0; 1; 2 |] (Netlist.level_of net)

let test_names_unique =
  QCheck.Test.make ~count:30 ~name:"node names unique after finish"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let net = Standby_circuits.Random_logic.generate ~seed ~inputs:6 ~gates:40 () in
      let seen = Hashtbl.create 64 in
      let ok = ref true in
      for id = 0 to Netlist.node_count net - 1 do
        let name = Netlist.name_of net id in
        if Hashtbl.mem seen name then ok := false;
        Hashtbl.replace seen name ();
        (* and id_of_name resolves to the node carrying the name *)
        if Netlist.id_of_name net name <> Some id then ok := false
      done;
      !ok)

let test_histogram () =
  let net = tiny_netlist () in
  let hist = Netlist.gate_histogram net in
  check Alcotest.int "inv count" 1 (List.assoc Gate_kind.Inv hist);
  check Alcotest.int "nand2 count" 1 (List.assoc Gate_kind.Nand2 hist)

(* --------------------------- Logic_build -------------------------- *)

(* Evaluate a constructed function against a specification on all input
   combinations. *)
let check_netlist ~inputs ~spec name net =
  for v = 0 to (1 lsl inputs) - 1 do
    let bits = Array.init inputs (fun i -> (v lsr i) land 1 = 1) in
    let result = (Standby_sim.Simulator.output_vector net bits).(0) in
    if result <> spec bits then Alcotest.failf "%s: wrong output for assignment %d" name v
  done

let check_function ~inputs ~build ~spec name =
  let b = B.create () in
  let ids = Array.init inputs (fun _ -> B.add_input b) in
  let out = build b ids in
  B.mark_output b out;
  check_netlist ~inputs ~spec name (B.finish b)

(* A function only the elaborator's table lowers, checked the same way:
   [y = func(i0, ..., i<k-1>)]. *)
let check_lowered ~inputs func ~spec name =
  let args = List.init inputs (Printf.sprintf "i%d") in
  match
    Logic_build.elaborate ~name (fun define ->
        define "y" func args;
        (args, [ "y" ]))
  with
  | Ok net -> check_netlist ~inputs ~spec name net
  | Error msg -> Alcotest.failf "%s: %s" name msg

let test_wide_nand () =
  List.iter
    (fun k ->
      check_function ~inputs:k
        ~build:(fun b ids -> Logic_build.nand_of b (Array.to_list ids))
        ~spec:(fun bits -> not (Array.for_all (fun x -> x) bits))
        (Printf.sprintf "nand%d" k))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_wide_nor () =
  List.iter
    (fun k ->
      check_lowered ~inputs:k Logic_build.Nor
        ~spec:(fun bits -> not (Array.exists (fun x -> x) bits))
        (Printf.sprintf "nor%d" k))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_wide_and_or () =
  check_function ~inputs:5
    ~build:(fun b ids -> Logic_build.and_of b (Array.to_list ids))
    ~spec:(fun bits -> Array.for_all (fun x -> x) bits)
    "and5";
  check_function ~inputs:5
    ~build:(fun b ids -> Logic_build.or_of b (Array.to_list ids))
    ~spec:(fun bits -> Array.exists (fun x -> x) bits)
    "or5"

let test_xor_xnor () =
  check_function ~inputs:2
    ~build:(fun b ids -> Logic_build.xor2 b ids.(0) ids.(1))
    ~spec:(fun bits -> bits.(0) <> bits.(1))
    "xor2";
  check_lowered ~inputs:2 Logic_build.Xnor
    ~spec:(fun bits -> bits.(0) = bits.(1))
    "xnor2";
  check_lowered ~inputs:4 Logic_build.Xor
    ~spec:(fun bits -> Array.fold_left (fun acc x -> acc <> x) false bits)
    "xor4"

let test_mux () =
  check_function ~inputs:3
    ~build:(fun b ids -> Logic_build.mux2 b ~sel:ids.(2) ids.(0) ids.(1))
    ~spec:(fun bits -> if bits.(2) then bits.(1) else bits.(0))
    "mux2"

let test_full_adder () =
  check_function ~inputs:3
    ~build:(fun b ids ->
      let sum, _ = Logic_build.full_adder b ids.(0) ids.(1) ids.(2) in
      sum)
    ~spec:(fun bits -> Array.fold_left (fun acc x -> acc <> x) false bits)
    "fa sum";
  check_function ~inputs:3
    ~build:(fun b ids ->
      let _, carry = Logic_build.full_adder b ids.(0) ids.(1) ids.(2) in
      carry)
    ~spec:(fun bits ->
      let n = Array.fold_left (fun acc x -> acc + Bool.to_int x) 0 bits in
      n >= 2)
    "fa carry"

(* ------------------------------ Bench_io -------------------------- *)

let sample_bench =
  "# sample\n\
   INPUT(a)\n\
   INPUT(b)\n\
   INPUT(c)\n\
   OUTPUT(y)\n\
   OUTPUT(z)\n\
   t1 = AND(a, b)\n\
   t2 = XOR(t1, c)\n\
   y = NOT(t2)\n\
   z = OR(a, t2)\n"

let test_bench_parse () =
  match Bench_io.of_string sample_bench with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    check Alcotest.int "inputs" 3 (Netlist.input_count net);
    check Alcotest.int "outputs" 2 (Array.length (Netlist.outputs net));
    check (Alcotest.result Alcotest.unit Alcotest.string) "valid" (Ok ())
      (Netlist.validate net)

let outputs_for net v =
  let n = Netlist.input_count net in
  let bits = Array.init n (fun i -> (v lsr i) land 1 = 1) in
  Standby_sim.Simulator.output_vector net bits

let test_bench_semantics () =
  match Bench_io.of_string sample_bench with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    (* Input order in file: a, b, c. *)
    for v = 0 to 7 do
      let a = v land 1 = 1 and b = v land 2 = 2 and c = v land 4 = 4 in
      let t2 = (a && b) <> c in
      let out = outputs_for net v in
      check Alcotest.bool (Printf.sprintf "y @%d" v) (not t2) out.(0);
      check Alcotest.bool (Printf.sprintf "z @%d" v) (a || t2) out.(1)
    done

let test_bench_roundtrip =
  QCheck.Test.make ~count:20 ~name:"export/import preserves the Boolean function"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let net = Standby_circuits.Random_logic.generate ~seed ~inputs:6 ~gates:25 () in
      match Bench_io.of_string (Bench_io.to_string net) with
      | Error _ -> false
      | Ok again ->
        let ok = ref (Netlist.input_count net = Netlist.input_count again) in
        for v = 0 to 63 do
          if outputs_for net v <> outputs_for again v then ok := false
        done;
        !ok)

(* The parsers are load-bearing for the batch manifest loader, so pin
   the round trip down harder than function preservation alone: primary
   input names and order survive, the output count survives, structure
   is preserved exactly from the second pass on (the first pass may
   lower complex cells, which can force output renames on collision),
   and the printed form is a textual fixpoint of print-after-parse. *)
let roundtrip_properties ~of_string ~to_string net =
  match of_string (to_string net) with
  | Error _ -> false
  | Ok again -> (
    let io_names n ids = Array.map (Netlist.name_of n) ids in
    Netlist.input_count net = Netlist.input_count again
    && io_names net (Netlist.inputs net) = io_names again (Netlist.inputs again)
    && Array.length (Netlist.outputs net) = Array.length (Netlist.outputs again)
    && Result.is_ok (Netlist.validate again)
    && begin
         let ok = ref true in
         for v = 0 to (1 lsl Netlist.input_count net) - 1 do
           if outputs_for net v <> outputs_for again v then ok := false
         done;
         !ok
       end
    &&
    let printed = to_string again in
    match of_string printed with
    | Error _ -> false
    | Ok third ->
      to_string third = printed
      && Netlist.gate_count third = Netlist.gate_count again
      && Netlist.gate_histogram third = Netlist.gate_histogram again
      && io_names again (Netlist.inputs again) = io_names third (Netlist.inputs third)
      && io_names again (Netlist.outputs again) = io_names third (Netlist.outputs third))

let test_bench_roundtrip_exhaustive =
  QCheck.Test.make ~count:40 ~name:"bench of_string . to_string = id (names, function, fixpoint)"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 100_000))
    (fun seed ->
      let net = Standby_circuits.Random_logic.generate ~seed ~inputs:8 ~gates:60 () in
      roundtrip_properties ~of_string:(Bench_io.of_string ?name:None)
        ~to_string:Bench_io.to_string net)

(* Scaling smoke test: a 500k-gate netlist must survive
   print-parse-print within single-digit seconds.  This guards the
   iterative parser (explicit-stack toposort, streaming line scan) and
   the straight-line Buffer writer against regressions back to
   quadratic accumulation or stack-overflowing recursion: before those
   fixes this either blew the stack outright or took minutes.  The
   wall-clock bound is deliberately loose (CI machines vary) — the
   failure modes it catches are order-of-magnitude ones. *)
let test_bench_large_roundtrip () =
  let gates = 500_000 in
  let t0 = Unix.gettimeofday () in
  let net =
    Standby_circuits.Random_logic.generate ~window:(gates / 20) ~seed:7 ~inputs:512 ~gates ()
  in
  let text = Bench_io.to_string net in
  match Bench_io.of_string text with
  | Error msg -> Alcotest.failf "500k-gate parse failed: %s" msg
  | Ok again ->
    let elapsed = Unix.gettimeofday () -. t0 in
    check Alcotest.int "inputs survive" (Netlist.input_count net) (Netlist.input_count again);
    check Alcotest.int "outputs survive" (Array.length (Netlist.outputs net))
      (Array.length (Netlist.outputs again));
    (* AOI21/OAI21 export as an aux AND/OR statement, and the reader
       lowers each of those into a NAND/NOR plus inverter — so every
       complex gate reparses as three inverting gates. *)
    let aux =
      let h = Netlist.gate_histogram net in
      List.fold_left
        (fun acc (kind, n) ->
          match kind with Gate_kind.Aoi21 | Gate_kind.Oai21 -> acc + (2 * n) | _ -> acc)
        0 h
    in
    check Alcotest.int "gates survive" (Netlist.gate_count net + aux)
      (Netlist.gate_count again);
    (* From the second pass on, printing is a textual fixpoint. *)
    let printed = Bench_io.to_string again in
    (match Bench_io.of_string printed with
     | Error msg -> Alcotest.failf "500k-gate reparse failed: %s" msg
     | Ok third ->
       check Alcotest.int "gates stable" (Netlist.gate_count again)
         (Netlist.gate_count third);
       check Alcotest.bool "textual fixpoint" true
         (String.equal printed (Bench_io.to_string third)));
    if elapsed > 20.0 then
      Alcotest.failf "500k-gate round trip took %.1f s (expected a few seconds)" elapsed

let test_bench_dff_cut () =
  let src = "INPUT(d)\nOUTPUT(q)\ns = DFF(n)\nn = AND(d, s)\nq = NOT(s)\n" in
  match Bench_io.of_string src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    (* The flop output s becomes an input; its data n becomes an output. *)
    check Alcotest.int "inputs" 2 (Netlist.input_count net);
    check Alcotest.int "outputs" 2 (Array.length (Netlist.outputs net));
    check
      Alcotest.(array string)
      "output names" [| "q"; "n" |]
      (Array.map (Netlist.name_of net) (Netlist.outputs net))

(* A cut sequential core takes the whole flow: heu1 chooses the sleep
   vector over the real inputs and the flop outputs together, and a
   from-scratch STA of its answer meets the budget. *)
let test_bench_dff_optimizes () =
  let src =
    "INPUT(a)\nINPUT(b)\nINPUT(c)\nOUTPUT(y)\nOUTPUT(z)\nq0 = DFF(d0)\nq1 = DFF(d1)\n\
     q2 = DFF(d2)\nd0 = NAND(a, q1, q2)\nd1 = NOR(b, q0)\nd2 = XOR(c, d0)\n\
     t = AND(d0, d1, q2)\ny = OR(t, q0, a)\nz = NAND(d2, q1)\n"
  in
  match Bench_io.of_string src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    let module Optimizer = Standby_opt.Optimizer in
    let module Sta = Standby_timing.Sta in
    let module Version = Standby_cells.Version in
    let lib = Standby_cells.Library.build Standby_device.Process.default in
    let heu1 =
      match Optimizer.method_of_token "heu1" Optimizer.default_params with
      | Ok m -> m
      | Error msg -> Alcotest.fail msg
    in
    let r = Optimizer.run lib net ~penalty:0.05 heu1 in
    let a = r.Optimizer.assignment in
    check Alcotest.int "sleep vector covers inputs and flops" 6
      (Array.length a.Standby_power.Assignment.input_vector);
    let sta = Sta.create lib net in
    Sta.set_budget sta r.Optimizer.budget;
    Netlist.iter_gates net (fun id _ _ ->
        let o = Standby_power.Assignment.choice lib net a id in
        Sta.assign sta id ~version:o.Version.version ~perm:o.Version.perm);
    Sta.update sta;
    check Alcotest.bool "full STA meets the budget" true (Sta.meets_budget sta)

let test_bench_errors () =
  let check_err src =
    match Bench_io.of_string src with
    | Ok _ -> Alcotest.failf "expected failure: %s" src
    | Error _ -> ()
  in
  check_err "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n";
  check_err "INPUT(a)\nOUTPUT(y)\ny = AND(a, ghost)\n";
  check_err "INPUT(a)\nOUTPUT(y)\ny = AND(a, z)\nz = NOT(y)\n";
  check_err "INPUT(a)\ny = NOT(a)\n" (* no outputs *);
  check_err "INPUT(a)\nOUTPUT(y)\ny = NOT(a\n"

(* ----------------------------- Verilog_io ------------------------- *)

module Verilog_io = Standby_netlist.Verilog_io

let c17_verilog =
  "// c17\n\
   module c17 (N1, N2, N3, N6, N7, N22, N23);\n\
   \  input N1, N2, N3, N6, N7;\n\
   \  output N22, N23;\n\
   \  wire N10, N11, N16, N19;\n\
   \  nand g1 (N10, N1, N3);\n\
   \  nand g2 (N11, N3, N6);\n\
   \  nand g3 (N16, N2, N11);\n\
   \  nand g4 (N19, N11, N7);\n\
   \  nand g5 (N22, N10, N16);\n\
   \  nand g6 (N23, N16, N19);\n\
   endmodule\n"

let test_verilog_parse_c17 () =
  match Verilog_io.of_string c17_verilog with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    check Alcotest.string "module name" "c17" (Netlist.design_name net);
    check Alcotest.int "inputs" 5 (Netlist.input_count net);
    check Alcotest.int "gates" 6 (Netlist.gate_count net);
    check Alcotest.int "outputs" 2 (Array.length (Netlist.outputs net));
    check (Alcotest.result Alcotest.unit Alcotest.string) "valid" (Ok ())
      (Netlist.validate net)

let test_verilog_matches_bench () =
  (* The same circuit via both readers computes the same function. *)
  let bench =
    "INPUT(N1)\nINPUT(N2)\nINPUT(N3)\nINPUT(N6)\nINPUT(N7)\n\
     OUTPUT(N22)\nOUTPUT(N23)\n\
     N10 = NAND(N1, N3)\nN11 = NAND(N3, N6)\nN16 = NAND(N2, N11)\n\
     N19 = NAND(N11, N7)\nN22 = NAND(N10, N16)\nN23 = NAND(N16, N19)\n"
  in
  match (Verilog_io.of_string c17_verilog, Bench_io.of_string bench) with
  | Ok v, Ok b ->
    for vec = 0 to 31 do
      if outputs_for v vec <> outputs_for b vec then
        Alcotest.failf "mismatch at vector %d" vec
    done
  | Error m, _ | _, Error m -> Alcotest.failf "parse failed: %s" m

let test_verilog_roundtrip =
  QCheck.Test.make ~count:20 ~name:"verilog export/import preserves the function"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let net = Standby_circuits.Random_logic.generate ~seed ~inputs:6 ~gates:30 () in
      match Verilog_io.of_string (Verilog_io.to_string net) with
      | Error _ -> false
      | Ok again ->
        let ok = ref (Netlist.input_count net = Netlist.input_count again) in
        for v = 0 to 63 do
          if outputs_for net v <> outputs_for again v then ok := false
        done;
        !ok)

let test_verilog_roundtrip_exhaustive =
  QCheck.Test.make ~count:40
    ~name:"verilog of_string . to_string = id (names, function, fixpoint)"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 100_000))
    (fun seed ->
      let net = Standby_circuits.Random_logic.generate ~seed ~inputs:8 ~gates:60 () in
      roundtrip_properties ~of_string:(Verilog_io.of_string ?name:None)
        ~to_string:Verilog_io.to_string net)

let test_verilog_primitives_and_comments () =
  let src =
    "module m (a, b, y);\n\
     \  input a, b; output y;\n\
     \  wire t1, t2, t3; /* block\n comment */\n\
     \  and (t1, a, b);\n\
     \  xor (t2, a, b);\n\
     \  buf (t3, t2);\n\
     \  nor named_instance (y, t1, t3);\n\
     endmodule\n"
  in
  match Verilog_io.of_string src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net ->
    for v = 0 to 3 do
      let a = v land 1 = 1 and b = v land 2 = 2 in
      let expected = not ((a && b) || (a <> b)) in
      check Alcotest.bool (Printf.sprintf "y @%d" v) expected (outputs_for net v).(0)
    done

let test_verilog_errors () =
  let check_err src =
    match Verilog_io.of_string src with
    | Ok _ -> Alcotest.failf "expected failure: %s" src
    | Error _ -> ()
  in
  check_err "module m (a, y); input a; output y; wire [3:0] bus; endmodule";
  check_err "module m (a, y); input a; output y; assign y = a; endmodule";
  check_err "module m (a, y); input a; output y; not (y, ghost); endmodule";
  check_err "module m (a, y); input a; output y; not (y, z); not (z, y); endmodule";
  check_err "module m (a, y); input a; output y; not (y, a); not (y, a); endmodule";
  check_err "module m (a, y); input a; output y; not (y, a);";
  check_err "no module here"

let test_bench_comments_and_blank_lines () =
  let src = "\n# hello\n  INPUT(a)  \n\nOUTPUT(y) # trailing\ny = NOT(a)\n" in
  match Bench_io.of_string src with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok net -> check Alcotest.int "gates" 1 (Netlist.gate_count net)

(* ------------------------------ Peephole --------------------------- *)

module Peephole = Standby_netlist.Peephole

let equivalent a b =
  Netlist.input_count a = Netlist.input_count b
  && Array.length (Netlist.outputs a) = Array.length (Netlist.outputs b)
  && begin
    let ok = ref true in
    for v = 0 to (1 lsl Netlist.input_count a) - 1 do
      if outputs_for a v <> outputs_for b v then ok := false
    done;
    !ok
  end

let test_peephole_equivalence =
  QCheck.Test.make ~count:40 ~name:"peephole rewrites preserve the function"
    QCheck.(make Gen.(int_range 0 100_000))
    (fun seed ->
      let net = Standby_circuits.Random_logic.generate ~seed ~inputs:7 ~gates:60 () in
      let simplified, _ = Peephole.simplify_fixpoint net in
      Result.is_ok (Netlist.validate simplified) && equivalent net simplified)

let test_peephole_removes_buffers () =
  (* BUFF import becomes INV pairs; the pass collapses them back. *)
  let src =
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\
     t1 = BUFF(a)\nt2 = BUFF(t1)\nt3 = AND(t2, b)\ny = BUFF(t3)\n"
  in
  match Bench_io.of_string src with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok net ->
    let simplified, removed = Peephole.simplify_fixpoint net in
    check Alcotest.bool "buffers removed" true (removed >= 6);
    check Alcotest.bool "still equivalent" true (equivalent net simplified)

let test_peephole_cse () =
  let b = B.create () in
  let a = B.add_input b in
  let c = B.add_input b in
  let g1 = B.add_gate b Gate_kind.Nand2 [| a; c |] in
  let g2 = B.add_gate b Gate_kind.Nand2 [| a; c |] in
  let out = B.add_gate b Gate_kind.Nand2 [| g1; g2 |] in
  B.mark_output b out;
  let net = B.finish b in
  let simplified, _ = Peephole.simplify_fixpoint net in
  (* NAND(g,g) with g = CSE-merged pair collapses to INV(NAND(a,c)). *)
  check Alcotest.int "two gates remain" 2 (Netlist.gate_count simplified);
  check Alcotest.bool "equivalent" true (equivalent net simplified)

let test_peephole_duplicate_inputs () =
  let b = B.create () in
  let a = B.add_input b in
  let c = B.add_input b in
  let g = B.add_gate b Gate_kind.Nand3 [| a; a; c |] in
  B.mark_output b g;
  let net = B.finish b in
  let simplified, _ = Peephole.simplify net in
  check Alcotest.bool "narrowed to nand2" true
    (Netlist.kind_of simplified 2 = Some Gate_kind.Nand2);
  check Alcotest.bool "equivalent" true (equivalent net simplified)

let test_peephole_dead_logic () =
  let b = B.create () in
  let a = B.add_input b in
  let live = B.add_gate b Gate_kind.Inv [| a |] in
  let _dead = B.add_gate b Gate_kind.Nand2 [| a; live |] in
  B.mark_output b live;
  let net = B.finish b in
  let simplified, removed = Peephole.simplify net in
  check Alcotest.int "dead gate dropped" 1 removed;
  check Alcotest.int "one gate left" 1 (Netlist.gate_count simplified)

let test_peephole_preserves_output_count () =
  (* Two outputs wired to identical logic must stay distinct nets. *)
  let b = B.create () in
  let a = B.add_input b in
  let g1 = B.add_gate b Gate_kind.Inv [| a |] in
  let g2 = B.add_gate b Gate_kind.Inv [| a |] in
  B.mark_output b g1;
  B.mark_output b g2;
  let net = B.finish b in
  let simplified, _ = Peephole.simplify net in
  check Alcotest.int "two outputs" 2 (Array.length (Netlist.outputs simplified));
  check Alcotest.bool "distinct nodes" true
    ((Netlist.outputs simplified).(0) <> (Netlist.outputs simplified).(1));
  check Alcotest.bool "equivalent" true (equivalent net simplified)

(* --------------------------- File fixtures ------------------------ *)

let fixture name =
  (* dune runs tests in _build/default/test; fixtures are declared as
     deps from the workspace root. *)
  let candidates = [ Filename.concat "../data" name; Filename.concat "data" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "fixture %s not found" name

let test_c17_bench_file () =
  match Bench_io.read_file (fixture "c17.bench") with
  | Error msg -> Alcotest.failf "read failed: %s" msg
  | Ok net ->
    check Alcotest.string "design name" "c17" (Netlist.design_name net);
    check Alcotest.int "gates" 6 (Netlist.gate_count net)

let test_c17_cross_format () =
  (* The .bench and .v fixtures describe the same circuit. *)
  match (Bench_io.read_file (fixture "c17.bench"), Verilog_io.read_file (fixture "c17.v")) with
  | Ok a, Ok b ->
    check Alcotest.int "same inputs" (Netlist.input_count a) (Netlist.input_count b);
    for v = 0 to 31 do
      if outputs_for a v <> outputs_for b v then Alcotest.failf "mismatch at %d" v
    done
  | Error m, _ | _, Error m -> Alcotest.failf "read failed: %s" m

(* Node for node: kinds, fan-ins, names, and input and output order. *)
let same_structure a b =
  Netlist.node_count a = Netlist.node_count b
  && Netlist.inputs a = Netlist.inputs b
  && Netlist.outputs a = Netlist.outputs b
  && List.for_all
       (fun i -> Netlist.node a i = Netlist.node b i && Netlist.name_of a i = Netlist.name_of b i)
       (List.init (Netlist.node_count a) Fun.id)

(* A random statement set spelled in both syntaxes: XOR/XNOR, AND/OR/
   NAND/NOR up to six wide, NOT, BUFF, and AOI21/OAI21 as the AND+NOR /
   OR+NAND pair the writers emit.  Outputs are the last three gates. *)
let random_statements seed =
  let rng = Random.State.make [| seed |] in
  let inputs = List.init 6 (Printf.sprintf "i%d") in
  let signals = ref (Array.of_list inputs) in
  let definitions = ref [] in
  let pick () = !signals.(Random.State.int rng (Array.length !signals)) in
  let args k = List.init k (fun _ -> pick ()) in
  let define signal func args =
    definitions := (signal, func, args) :: !definitions;
    signals := Array.append !signals [| signal |]
  in
  let gates = 40 in
  for g = 0 to gates - 1 do
    let signal = Printf.sprintf "g%d" g in
    let either a b = if Random.State.bool rng then a else b in
    match Random.State.int rng 7 with
    | 0 -> define signal "XOR" (args (2 + Random.State.int rng 2))
    | 1 -> define signal "XNOR" (args 2)
    | 2 -> define signal (either "AND" "OR") (args (2 + Random.State.int rng 5))
    | 3 -> define signal (either "NAND" "NOR") (args (1 + Random.State.int rng 6))
    | 4 -> define signal (either "NOT" "BUFF") (args 1)
    | _ ->
      let inner, outer = either ("AND", "NOR") ("OR", "NAND") in
      let aux = signal ^ "_aux" in
      define aux inner (args 2);
      define signal outer [ aux; pick () ]
  done;
  let outputs = List.init 3 (fun k -> Printf.sprintf "g%d" (gates - 1 - k)) in
  let definitions = List.rev !definitions in
  let bench =
    String.concat ""
      (List.map (Printf.sprintf "INPUT(%s)\n") inputs
      @ List.map (Printf.sprintf "OUTPUT(%s)\n") outputs
      @ List.map
          (fun (signal, func, args) ->
            Printf.sprintf "%s = %s(%s)\n" signal func (String.concat ", " args))
          definitions)
  in
  let verilog =
    Printf.sprintf "module r (%s);\n  input %s;\n  output %s;\n%sendmodule\n"
      (String.concat ", " (inputs @ outputs))
      (String.concat ", " inputs) (String.concat ", " outputs)
      (String.concat ""
         (List.map
            (fun (signal, func, args) ->
              let prim = if func = "BUFF" then "buf" else String.lowercase_ascii func in
              Printf.sprintf "  %s (%s);\n" prim (String.concat ", " (signal :: args)))
            definitions))
  in
  (bench, verilog)

let test_cross_format_roundtrip =
  QCheck.Test.make ~count:15 ~name:"verilog(bench(net)) preserves the function"
    QCheck.(make Gen.(int_range 0 10_000))
    (fun seed ->
      let net = Standby_circuits.Random_logic.generate ~seed ~inputs:6 ~gates:30 () in
      let structure_agrees =
        (* Both readers build the same netlist from the same statements:
           a generated netlist written by each writer, the first reading
           written back as Verilog, and a statement set with the rich
           functions only files carry. *)
        let bench, verilog = random_statements seed in
        match
          ( Bench_io.of_string (Bench_io.to_string net),
            Verilog_io.of_string (Verilog_io.to_string net),
            Bench_io.of_string ~name:"r" bench,
            Verilog_io.of_string verilog )
        with
        | Ok b, Ok v, Ok rb, Ok rv -> (
          same_structure b v
          && same_structure rb rv
          &&
          match Verilog_io.of_string (Verilog_io.to_string b) with
          | Ok again -> same_structure b again
          | Error _ -> false)
        | _ -> false
      in
      structure_agrees
      &&
      match Bench_io.of_string (Bench_io.to_string net) with
      | Error _ -> false
      | Ok via_bench ->
        (match Verilog_io.of_string (Verilog_io.to_string via_bench) with
         | Error _ -> false
         | Ok via_both ->
           let ok = ref true in
           for v = 0 to 63 do
             if outputs_for net v <> outputs_for via_both v then ok := false
           done;
           !ok))

(* A signal that is both an input and driven has two drivers: both
   readers refuse it, as [.bench] refuses a signal defined twice. *)
let test_input_and_driven_refused () =
  let bench = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\na = NOT(b)\ny = NOT(a)\n" in
  let verilog =
    "module m (a, b, y);\n  input a, b;\n  output y;\n  not (a, b);\n  not (y, a);\nendmodule\n"
  in
  let refused reader = function
    | Ok net -> Alcotest.failf "%s read %d gates" reader (Netlist.gate_count net)
    | Error msg ->
      check Alcotest.string reader "signal \"a\" is both an input and driven" msg
  in
  refused ".bench" (Bench_io.of_string bench);
  refused "verilog" (Verilog_io.of_string verilog)

(* An output driven by a decomposed function (AND lowers to NAND + INV,
   XOR to four NANDs) keeps its declared name through both readers and
   both writers, as one that lowers to a single named cell does. *)
let test_output_names () =
  List.iter
    (fun (func, bench_args, prim, verilog_args) ->
      let bench =
        Printf.sprintf "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = %s(%s)\n" func bench_args
      in
      let verilog =
        Printf.sprintf
          "module m (a, b, y);\n  input a, b;\n  output y;\n  %s (y, %s);\nendmodule\n" prim
          verilog_args
      in
      let named reader = function
        | Error msg -> Alcotest.failf "%s %s: %s" func reader msg
        | Ok net ->
          let outputs net = Array.map (Netlist.name_of net) (Netlist.outputs net) in
          check Alcotest.(array string) (func ^ " " ^ reader) [| "y" |] (outputs net);
          (match Bench_io.of_string (Bench_io.to_string net) with
           | Ok again ->
             check Alcotest.(array string) (func ^ " " ^ reader ^ " via .bench") [| "y" |]
               (outputs again)
           | Error msg -> Alcotest.fail msg);
          (match Verilog_io.of_string (Verilog_io.to_string net) with
           | Ok again ->
             check Alcotest.(array string) (func ^ " " ^ reader ^ " via verilog") [| "y" |]
               (outputs again)
           | Error msg -> Alcotest.fail msg)
      in
      named ".bench" (Bench_io.of_string bench);
      named "verilog" (Verilog_io.of_string verilog))
    [ ("AND", "a, b", "and", "a, b"); ("XOR", "a, b", "xor", "a, b"); ("BUFF", "a", "buf", "a") ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_netlist"
    [
      ( "gate-kind",
        [
          quick "arities" test_arities;
          quick "truth tables" test_truth_tables;
          quick "arity mismatch" test_eval_arity_mismatch;
          QCheck_alcotest.to_alcotest test_state_roundtrip;
          quick "msb convention" test_state_msb_convention;
        ] );
      ( "builder",
        [
          quick "basics" test_builder_basics;
          quick "validation" test_builder_validation;
          quick "bad fanin" test_builder_bad_fanin;
          quick "bad arity" test_builder_bad_arity;
          quick "no output" test_builder_no_output;
          quick "double mark" test_double_mark;
          quick "fanouts" test_fanout_consistency;
          quick "levels" test_levels;
          QCheck_alcotest.to_alcotest test_names_unique;
          quick "histogram" test_histogram;
        ] );
      ( "logic-build",
        [
          quick "wide nand" test_wide_nand;
          quick "wide nor" test_wide_nor;
          quick "wide and/or" test_wide_and_or;
          quick "xor/xnor" test_xor_xnor;
          quick "mux" test_mux;
          quick "full adder" test_full_adder;
        ] );
      ( "bench-io",
        [
          quick "parse" test_bench_parse;
          quick "semantics" test_bench_semantics;
          QCheck_alcotest.to_alcotest test_bench_roundtrip;
          QCheck_alcotest.to_alcotest test_bench_roundtrip_exhaustive;
          quick "500k-gate round trip" test_bench_large_roundtrip;
          quick "dff cut" test_bench_dff_cut;
          quick "dff core optimizes" test_bench_dff_optimizes;
          quick "errors" test_bench_errors;
          quick "comments and blanks" test_bench_comments_and_blank_lines;
        ] );
      ( "verilog-io",
        [
          quick "parse c17" test_verilog_parse_c17;
          quick "matches bench" test_verilog_matches_bench;
          QCheck_alcotest.to_alcotest test_verilog_roundtrip;
          QCheck_alcotest.to_alcotest test_verilog_roundtrip_exhaustive;
          quick "primitives and comments" test_verilog_primitives_and_comments;
          quick "errors" test_verilog_errors;
        ] );
      ( "peephole",
        [
          QCheck_alcotest.to_alcotest test_peephole_equivalence;
          quick "buffer removal" test_peephole_removes_buffers;
          quick "cse" test_peephole_cse;
          quick "duplicate inputs" test_peephole_duplicate_inputs;
          quick "dead logic" test_peephole_dead_logic;
          quick "output count" test_peephole_preserves_output_count;
        ] );
      ( "fixtures",
        [
          quick "c17 bench file" test_c17_bench_file;
          quick "c17 cross-format" test_c17_cross_format;
          QCheck_alcotest.to_alcotest test_cross_format_roundtrip;
          quick "input and driven refused" test_input_and_driven_refused;
          quick "output names" test_output_names;
        ] );
    ]
