module Process = Standby_device.Process
module Gate_kind = Standby_netlist.Gate_kind
module Netlist = Standby_netlist.Netlist
module Topology = Standby_cells.Topology
module Stack_solver = Standby_cells.Stack_solver
module Characterize = Standby_cells.Characterize
module Version = Standby_cells.Version
module Library = Standby_cells.Library
module Evaluate = Standby_power.Evaluate
module Optimizer = Standby_opt.Optimizer
module Baselines = Standby_opt.Baselines
module State_tree = Standby_opt.State_tree
module Gate_tree = Standby_opt.Gate_tree
module Search_stats = Standby_opt.Search_stats
module Benchmarks = Standby_circuits.Benchmarks

type config = {
  vectors : int;
  heu2_limit_s : float;
  suite : string list;
  seed : int;
  jobs : int;
}

let default_config =
  { vectors = 10_000; heu2_limit_s = 2.0; suite = Benchmarks.names; seed = 0x5eed; jobs = 1 }

let quick_config =
  { vectors = 500; heu2_limit_s = 0.2; suite = Benchmarks.small_suite; seed = 0x5eed; jobs = 1 }

type t = {
  cfg : config;
  process : Process.t;
  lib4 : Library.t Lazy.t;
  lib2 : Library.t Lazy.t;
  lib4_uniform : Library.t Lazy.t;
  lib2_uniform : Library.t Lazy.t;
  lib_vt : Library.t Lazy.t;
  lib_state : Library.t Lazy.t;
  lib_no_reorder : Library.t Lazy.t;
  circuits : (string, Netlist.t) Hashtbl.t;
  averages : (string, Evaluate.breakdown) Hashtbl.t;
}

let create ?(config = default_config) () =
  let process = Process.default in
  let build mode = lazy (Library.build ~mode process) in
  {
    cfg = config;
    process;
    lib4 = build Version.default_mode;
    lib2 = build Version.two_option_mode;
    lib4_uniform = build Version.uniform_stack_mode;
    lib2_uniform = build Version.two_option_uniform_stack_mode;
    lib_vt = build Version.vt_and_state_mode;
    lib_state = build Version.state_only_mode;
    lib_no_reorder = build { Version.default_mode with Version.allow_pin_reorder = false };
    circuits = Hashtbl.create 16;
    averages = Hashtbl.create 16;
  }

let config t = t.cfg

let library t = Lazy.force t.lib4

let circuit t name =
  match Hashtbl.find_opt t.circuits name with
  | Some net -> net
  | None ->
    let net = Benchmarks.circuit name in
    Hashtbl.replace t.circuits name net;
    net

let average t name =
  match Hashtbl.find_opt t.averages name with
  | Some b -> b
  | None ->
    let b =
      Baselines.random_average ~vectors:t.cfg.vectors ~seed:t.cfg.seed ~jobs:t.cfg.jobs
        (library t) (circuit t name)
    in
    Hashtbl.replace t.averages name b;
    b

let ua x = Ascii_table.float_cell (x *. 1e6)

let na x = Ascii_table.float_cell (x *. 1e9)

let factor x = Ascii_table.float_cell x

let penalties = [ 0.05; 0.10; 0.25 ]

(* ------------------------------------------------------------------ *)

let table1 t =
  let lib = library t in
  let info = Library.info lib Gate_kind.Nand2 in
  let state_label s =
    let bits = Gate_kind.bits_of_state Gate_kind.Nand2 s in
    Printf.sprintf "%d%d" (Bool.to_int bits.(0)) (Bool.to_int bits.(1))
  in
  let rows = ref [] in
  List.iter
    (fun s ->
      Array.iter
        (fun (o : Version.option_entry) ->
          let rise l = info.Library.rise_factors.(o.Version.version).(o.Version.perm.(l)) in
          let fall l = info.Library.fall_factors.(o.Version.version).(o.Version.perm.(l)) in
          rows :=
            [
              state_label s;
              Version.role_name o.Version.role;
              info.Library.version_names.(o.Version.version);
              na o.Version.leakage;
              Ascii_table.float_cell ~decimals:2 (rise 0);
              Ascii_table.float_cell ~decimals:2 (rise 1);
              Ascii_table.float_cell ~decimals:2 (fall 0);
              Ascii_table.float_cell ~decimals:2 (fall 1);
            ]
            :: !rows)
        info.Library.options.(s))
    [ 3; 0; 2; 1 ];
  Ascii_table.render
    ~title:"Table 1: trade-offs for Vt-Tox versions of the NAND2 gate (leakage nA,\ndelays normalized to the fast version; pin A/B are the logical inputs)"
    ~columns:
      [
        ("State", Ascii_table.Left); ("Version", Ascii_table.Left);
        ("Assignment", Ascii_table.Left); ("Leak[nA]", Ascii_table.Right);
        ("RiseA", Ascii_table.Right); ("RiseB", Ascii_table.Right);
        ("FallA", Ascii_table.Right); ("FallB", Ascii_table.Right);
      ]
    (List.rev !rows)

let table2 t =
  let lib4 = library t and lib2 = Lazy.force t.lib2 in
  (* Paper reference counts exist only for the kinds Table 2 lists; the
     wider and complex cells are this implementation's extension. *)
  let paper_counts =
    [
      (Gate_kind.Inv, (5, 3)); (Gate_kind.Nand2, (5, 3)); (Gate_kind.Nand3, (5, 3));
      (Gate_kind.Nor2, (8, 4)); (Gate_kind.Nor3, (9, 5));
    ]
  in
  let rows =
    List.map
      (fun kind ->
        let paper4, paper2 =
          match List.assoc_opt kind paper_counts with
          | Some (a, b) -> (string_of_int a, string_of_int b)
          | None -> ("-", "-")
        in
        [
          Gate_kind.name kind;
          string_of_int (Library.version_count lib4 kind);
          paper4;
          string_of_int (Library.version_count lib2 kind);
          paper2;
        ])
      Gate_kind.all
  in
  let totals =
    [
      "TOTAL";
      string_of_int (Library.total_version_count lib4);
      "32*";
      string_of_int (Library.total_version_count lib2);
      "18*";
    ]
  in
  Ascii_table.render
    ~title:
      "Table 2: number of library cell versions needed (paper columns cover its\n5-kind library; * = paper total over those kinds only)"
    ~columns:
      [
        ("Cell", Ascii_table.Left);
        ("4-option", Ascii_table.Right); ("paper", Ascii_table.Right);
        ("2-option", Ascii_table.Right); ("paper", Ascii_table.Right);
      ]
    (rows @ [ totals ])

let table3 t =
  let lib = library t in
  let columns =
    [ ("Circuit", Ascii_table.Left); ("Avg[uA]", Ascii_table.Right) ]
    @ List.concat_map
        (fun p ->
          let tag = Printf.sprintf "%d%%" (int_of_float (p *. 100.)) in
          [
            ("Heu1 " ^ tag, Ascii_table.Right); ("X", Ascii_table.Right);
            ("t[s]", Ascii_table.Right);
            ("Heu2 " ^ tag, Ascii_table.Right); ("X", Ascii_table.Right);
          ])
        penalties
  in
  let sums = Array.make (2 * List.length penalties) 0.0 in
  let count = ref 0 in
  let rows =
    List.map
      (fun name ->
        let net = circuit t name in
        let avg = (average t name).Evaluate.total in
        incr count;
        let cells = ref [ ua avg; name ] in
        List.iteri
          (fun i p ->
            let h1 = Optimizer.run lib net ~penalty:p Optimizer.Heuristic_1 in
            let h2 =
              Optimizer.run lib net ~penalty:p
                (Optimizer.Heuristic_2 { time_limit_s = t.cfg.heu2_limit_s })
            in
            let x1 = avg /. h1.Optimizer.breakdown.Evaluate.total in
            let x2 = avg /. h2.Optimizer.breakdown.Evaluate.total in
            sums.(2 * i) <- sums.(2 * i) +. x1;
            sums.((2 * i) + 1) <- sums.((2 * i) + 1) +. x2;
            cells :=
              factor x2 :: ua h2.Optimizer.breakdown.Evaluate.total
              :: Ascii_table.float_cell ~decimals:2 h1.Optimizer.runtime_s
              :: factor x1 :: ua h1.Optimizer.breakdown.Evaluate.total :: !cells)
          penalties;
        List.rev !cells)
      t.cfg.suite
  in
  let avg_row =
    [ "AVG"; "" ]
    @ List.concat_map
        (fun i ->
          [
            ""; factor (sums.(2 * i) /. float_of_int !count); "";
            ""; factor (sums.((2 * i) + 1) /. float_of_int !count);
          ])
        (List.init (List.length penalties) (fun i -> i))
  in
  Ascii_table.render
    ~title:
      (Printf.sprintf
         "Table 3: Heuristic 1 vs Heuristic 2 with the 4-option library (leakage uA;\nX = reduction vs %d-random-vector average; Heu2 budget %.1f s)"
         t.cfg.vectors t.cfg.heu2_limit_s)
    ~columns (rows @ [ avg_row ])

let table4 t =
  let lib = library t in
  let lib_state = Lazy.force t.lib_state and lib_vt = Lazy.force t.lib_vt in
  let columns =
    [
      ("Circuit", Ascii_table.Left); ("Ins", Ascii_table.Right);
      ("Gates", Ascii_table.Right); ("Avg[uA]", Ascii_table.Right);
      ("State", Ascii_table.Right); ("X", Ascii_table.Right);
    ]
    @ List.concat_map
        (fun p ->
          let tag = Printf.sprintf "%d%%" (int_of_float (p *. 100.)) in
          [
            ("Vt+St " ^ tag, Ascii_table.Right); ("X", Ascii_table.Right);
            ("Heu1 " ^ tag, Ascii_table.Right); ("X", Ascii_table.Right);
          ])
        penalties
  in
  let n_pen = List.length penalties in
  let sums = Array.make (1 + (2 * n_pen)) 0.0 in
  let count = ref 0 in
  let rows =
    List.map
      (fun name ->
        let net = circuit t name in
        let avg = (average t name).Evaluate.total in
        incr count;
        let st = Baselines.state_only lib_state net in
        let x_st = avg /. st.Optimizer.breakdown.Evaluate.total in
        sums.(0) <- sums.(0) +. x_st;
        let cells =
          ref
            [
              factor x_st; ua st.Optimizer.breakdown.Evaluate.total; ua avg;
              string_of_int (Netlist.gate_count net);
              string_of_int (Netlist.input_count net); name;
            ]
        in
        List.iteri
          (fun i p ->
            let vt = Baselines.vt_and_state lib_vt net ~penalty:p in
            let h1 = Optimizer.run lib net ~penalty:p Optimizer.Heuristic_1 in
            let x_vt = avg /. vt.Optimizer.breakdown.Evaluate.total in
            let x_h1 = avg /. h1.Optimizer.breakdown.Evaluate.total in
            sums.(1 + (2 * i)) <- sums.(1 + (2 * i)) +. x_vt;
            sums.(2 + (2 * i)) <- sums.(2 + (2 * i)) +. x_h1;
            cells :=
              factor x_h1 :: ua h1.Optimizer.breakdown.Evaluate.total
              :: factor x_vt :: ua vt.Optimizer.breakdown.Evaluate.total :: !cells)
          penalties;
        List.rev !cells)
      t.cfg.suite
  in
  let avg_row =
    [ "AVG"; ""; ""; ""; ""; factor (sums.(0) /. float_of_int !count) ]
    @ List.concat_map
        (fun i ->
          [
            ""; factor (sums.(1 + (2 * i)) /. float_of_int !count);
            ""; factor (sums.(2 + (2 * i)) /. float_of_int !count);
          ])
        (List.init n_pen (fun i -> i))
  in
  Ascii_table.render
    ~title:
      "Table 4: comparison with state-only assignment and the prior state+Vt\napproach (4-option library; leakage uA; X vs random-vector average)"
    ~columns (rows @ [ avg_row ])

let table5 t =
  let variants =
    [
      ("4-option", t.lib4); ("2-option", t.lib2);
      ("4-opt uniform", t.lib4_uniform); ("2-opt uniform", t.lib2_uniform);
    ]
  in
  let columns =
    [ ("Circuit", Ascii_table.Left); ("Avg[uA]", Ascii_table.Right) ]
    @ List.concat_map
        (fun (label, _) -> [ (label, Ascii_table.Right); ("X", Ascii_table.Right) ])
        variants
  in
  let sums = Array.make (List.length variants) 0.0 in
  let count = ref 0 in
  let rows =
    List.map
      (fun name ->
        let net = circuit t name in
        let avg = (average t name).Evaluate.total in
        incr count;
        let cells = ref [ ua avg; name ] in
        List.iteri
          (fun i (_, lib) ->
            let r = Optimizer.run (Lazy.force lib) net ~penalty:0.05 Optimizer.Heuristic_1 in
            let x = avg /. r.Optimizer.breakdown.Evaluate.total in
            sums.(i) <- sums.(i) +. x;
            cells := factor x :: ua r.Optimizer.breakdown.Evaluate.total :: !cells)
          variants;
        List.rev !cells)
      t.cfg.suite
  in
  let avg_row =
    [ "AVG"; "" ]
    @ List.concat_map
        (fun i -> [ ""; Ascii_table.float_cell ~decimals:2 (sums.(i) /. float_of_int !count) ])
        (List.init (List.length variants) (fun i -> i))
  in
  Ascii_table.render
    ~title:
      "Table 5: cell library options at a 5% delay penalty (Heuristic 1;\nleakage uA; X vs random-vector average)"
    ~columns (rows @ [ avg_row ])

(* ------------------------------------------------------------------ *)

let figure1 t =
  let p = t.process in
  let cell = Topology.of_kind Gate_kind.Inv in
  let fast = Topology.fast_assignment cell in
  let rows =
    List.concat_map
      (fun state ->
        let s = Characterize.solve_state p cell fast ~state in
        let devs = Topology.devices cell in
        Array.to_list
          (Array.mapi
             (fun i (d : Topology.device) ->
               let pt = s.Stack_solver.points.(i) in
               [
                 string_of_int state;
                 (match d.Topology.polarity with
                  | Process.Nmos -> "NMOS"
                  | Process.Pmos -> "PMOS");
                 Ascii_table.float_cell ~decimals:2 pt.Stack_solver.vgs;
                 Ascii_table.float_cell ~decimals:2 pt.Stack_solver.vgd;
                 (if pt.Stack_solver.conducting then "on" else "off");
                 na s.Stack_solver.device_igate.(i);
               ])
             devs)
        @ [
            [
              string_of_int state; "cell"; ""; ""; "";
              na s.Stack_solver.igate; na s.Stack_solver.isub; na s.Stack_solver.total;
            ];
          ])
      [ 1; 0 ]
  in
  Ascii_table.render
    ~title:
      "Figure 1: inverter leakage components vs input state (input 1: NMOS gate\ntunneling at full bias + PMOS subthreshold; input 0: reverse overlap\ntunneling only, NMOS subthreshold)"
    ~columns:
      [
        ("In", Ascii_table.Left); ("Device", Ascii_table.Left);
        ("Vgs", Ascii_table.Right); ("Vgd", Ascii_table.Right);
        ("Mode", Ascii_table.Left); ("Igate[nA]", Ascii_table.Right);
        ("Isub[nA]", Ascii_table.Right); ("Total[nA]", Ascii_table.Right);
      ]
    rows

let figure2 t =
  let lib = library t in
  let lib_nr = Lazy.force t.lib_no_reorder in
  let describe lib_used kind state =
    let info = Library.info lib_used kind in
    let opts = info.Library.options.(state) in
    let o = opts.(0) in
    let bits = Gate_kind.bits_of_state kind state in
    let label =
      String.concat "" (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits))
    in
    [
      Gate_kind.name kind;
      label;
      info.Library.version_names.(o.Version.version);
      String.concat "" (Array.to_list (Array.map string_of_int o.Version.perm));
      na info.Library.fast_leakage.(state);
      na o.Version.leakage;
    ]
  in
  let rows =
    [
      describe lib Gate_kind.Nor2 1 (* 01: one hvt PMOS + one thick NMOS *);
      describe lib Gate_kind.Nor2 3 (* 11: worst case *);
      describe lib Gate_kind.Nor2 0 (* 00: two hvt NMOS *);
      describe lib_nr Gate_kind.Nand2 1 (* 01 without reordering *);
      describe lib Gate_kind.Nand2 1 (* 01 with reordering *);
    ]
  in
  Ascii_table.render
    ~title:
      "Figure 2: minimum-leakage assignments at known input states (last two rows:\nNAND2 state 01 without vs with pin reordering — reordering drops the\nthick-oxide assignment; perm maps logical input -> physical pin)"
    ~columns:
      [
        ("Cell", Ascii_table.Left); ("State", Ascii_table.Left);
        ("Assignment", Ascii_table.Left); ("Perm", Ascii_table.Left);
        ("Fast[nA]", Ascii_table.Right); ("MinLeak[nA]", Ascii_table.Right);
      ]
    rows

let figure3 t =
  let lib = library t in
  let info = Library.info lib Gate_kind.Nand2 in
  let n_versions = Array.length info.Library.versions in
  let states_of v =
    let out = ref [] in
    Array.iteri
      (fun s opts ->
        Array.iter
          (fun (o : Version.option_entry) ->
            if o.Version.version = v then begin
              let bits = Gate_kind.bits_of_state Gate_kind.Nand2 s in
              let label =
                String.concat ""
                  (Array.to_list (Array.map (fun b -> if b then "1" else "0") bits))
              in
              out := Printf.sprintf "%s(%s)" label (Version.role_name o.Version.role) :: !out
            end)
          opts)
      info.Library.options;
    String.concat " " (List.rev !out)
  in
  let rows =
    List.init n_versions (fun v ->
        [ Printf.sprintf "v%d" v; info.Library.version_names.(v); states_of v ])
  in
  Ascii_table.render
    ~title:
      (Printf.sprintf
         "Figure 3: the %d generated NAND2 cell versions and the states sharing them"
         n_versions)
    ~columns:
      [
        ("Id", Ascii_table.Left); ("Assignment", Ascii_table.Left);
        ("Used by state(role)", Ascii_table.Left);
      ]
    rows

let figure4 t =
  let lib = library t in
  let net = Standby_circuits.Random_logic.generate ~name:"fig4" ~seed:9 ~inputs:6 ~gates:10 () in
  let exact = Optimizer.run lib net ~penalty:0.10 Optimizer.Exact in
  let h1 = Optimizer.run lib net ~penalty:0.10 Optimizer.Heuristic_1 in
  let h2 =
    Optimizer.run lib net ~penalty:0.10 (Optimizer.Heuristic_2 { time_limit_s = 1.0 })
  in
  let row (r : Optimizer.result) =
    let s = r.Optimizer.stats in
    [
      r.Optimizer.method_name;
      ua r.Optimizer.breakdown.Evaluate.total;
      string_of_int s.Search_stats.state_nodes;
      string_of_int s.Search_stats.leaves;
      string_of_int s.Search_stats.pruned;
      string_of_int s.Search_stats.gate_changes;
      Ascii_table.float_cell ~decimals:3 r.Optimizer.runtime_s;
    ]
  in
  Ascii_table.render
    ~title:
      (Printf.sprintf
         "Figure 4: state tree with a gate tree at each node — search statistics on a\nsmall circuit (%d inputs, %d gates, 10%% delay penalty)"
         (Netlist.input_count net) (Netlist.gate_count net))
    ~columns:
      [
        ("Method", Ascii_table.Left); ("Leak[uA]", Ascii_table.Right);
        ("StateNodes", Ascii_table.Right); ("Leaves", Ascii_table.Right);
        ("Pruned", Ascii_table.Right); ("GateSwaps", Ascii_table.Right);
        ("t[s]", Ascii_table.Right);
      ]
    [ row exact; row h1; row h2 ]

let figure5 t =
  let lib = library t in
  let lib_vt = Lazy.force t.lib_vt and lib_state = Lazy.force t.lib_state in
  let name = if List.mem "c7552" t.cfg.suite then "c7552" else List.hd t.cfg.suite in
  let net = circuit t name in
  let avg = (average t name).Evaluate.total in
  let st = Baselines.state_only lib_state net in
  let sweep = [ 0.0; 0.01; 0.02; 0.05; 0.10; 0.15; 0.25; 0.50; 0.75; 1.0 ] in
  let rows =
    List.map
      (fun p ->
        let h1 = Optimizer.run lib net ~penalty:p Optimizer.Heuristic_1 in
        let vt = Baselines.vt_and_state lib_vt net ~penalty:p in
        [
          Printf.sprintf "%.0f%%" (p *. 100.);
          ua h1.Optimizer.breakdown.Evaluate.total;
          ua vt.Optimizer.breakdown.Evaluate.total;
          ua st.Optimizer.breakdown.Evaluate.total;
          ua avg;
        ])
      sweep
  in
  Csv.write_file "figure5.csv"
    ~header:[ "penalty"; "heu1_uA"; "vt_state_uA"; "state_only_uA"; "average_uA" ]
    ~rows;
  Ascii_table.render
    ~title:
      (Printf.sprintf
         "Figure 5: leakage vs delay-penalty constraint for %s (uA; the proposed\napproach saturates within ~10%% penalty, state-only and the average are\nflat references)"
         name)
    ~columns:
      [
        ("Penalty", Ascii_table.Right); ("Heu1", Ascii_table.Right);
        ("Vt+State", Ascii_table.Right); ("StateOnly", Ascii_table.Right);
        ("Average", Ascii_table.Right);
      ]
    rows

let ablation t =
  let lib = library t in
  let lib_nr = Lazy.force t.lib_no_reorder in
  let name = if List.mem "c880" t.cfg.suite then "c880" else List.hd t.cfg.suite in
  let net = circuit t name in
  let avg = (average t name).Evaluate.total in
  let run ?config lib = Optimizer.run ?config lib net ~penalty:0.05 Optimizer.Heuristic_1 in
  let entries =
    [
      ("baseline heu1", run lib);
      ( "no bound-guided branch ordering",
        run ~config:{ State_tree.default_config with State_tree.use_bound_ordering = false }
          lib );
      ( "topological gate order",
        run ~config:{ State_tree.default_config with State_tree.gate_order = Gate_tree.Topological }
          lib );
      ("no pin reordering", run lib_nr);
      ( "heu1 + hill climbing (ext)",
        Optimizer.run lib net ~penalty:0.05
          (Optimizer.Hill_climb { time_limit_s = 1.0; max_rounds = 4 }) );
    ]
  in
  let rows =
    List.map
      (fun (label, r) ->
        [
          label;
          ua r.Optimizer.breakdown.Evaluate.total;
          factor (avg /. r.Optimizer.breakdown.Evaluate.total);
          Ascii_table.float_cell ~decimals:3 r.Optimizer.runtime_s;
        ])
      entries
  in
  Ascii_table.render
    ~title:
      (Printf.sprintf "Ablation on %s at a 5%% delay penalty (Heuristic 1)" name)
    ~columns:
      [
        ("Variant", Ascii_table.Left); ("Leak[uA]", Ascii_table.Right);
        ("X", Ascii_table.Right); ("t[s]", Ascii_table.Right);
      ]
    rows

let artifacts =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("figure1", figure1);
    ("figure2", figure2);
    ("figure3", figure3);
    ("figure4", figure4);
    ("figure5", figure5);
    ("ablation", ablation);
  ]
