(* Tests for standby_report: table rendering, CSV escaping and a smoke
   pass over the experiment reproductions with a tiny configuration. *)

module Ascii_table = Standby_report.Ascii_table
module Csv = Standby_report.Csv
module Experiments = Standby_report.Experiments

let check = Alcotest.check

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0

(* ----------------------------- Ascii_table ------------------------- *)

let test_render_alignment () =
  let out =
    Ascii_table.render
      ~columns:[ ("name", Ascii_table.Left); ("value", Ascii_table.Right) ]
      [ [ "a"; "1" ]; [ "long-name"; "22" ] ]
  in
  let lines = String.split_on_char '\n' out in
  (* header, separator, two rows, trailing empty *)
  check Alcotest.int "line count" 5 (List.length lines);
  (* all non-empty lines share a width *)
  let widths =
    List.filter_map (fun l -> if l = "" then None else Some (String.length l)) lines
  in
  List.iter (fun w -> check Alcotest.int "aligned" (List.hd widths) w) widths;
  check Alcotest.bool "right alignment pads left" true (contains out " 1")

let test_render_title_and_padding () =
  let out =
    Ascii_table.render ~title:"My Table"
      ~columns:[ ("a", Ascii_table.Left); ("b", Ascii_table.Left) ]
      [ [ "x" ] ]
  in
  check Alcotest.bool "title present" true (contains out "My Table");
  check Alcotest.bool "short row padded" true (contains out "x")

let test_render_row_too_long () =
  Alcotest.check_raises "row too long"
    (Invalid_argument "Ascii_table.render: row longer than header") (fun () ->
      ignore
        (Ascii_table.render ~columns:[ ("a", Ascii_table.Left) ] [ [ "1"; "2" ] ]))

let test_float_cell () =
  check Alcotest.string "default" "3.1" (Ascii_table.float_cell 3.14159);
  check Alcotest.string "decimals" "3.142" (Ascii_table.float_cell ~decimals:3 3.14159)

(* -------------------------------- Csv ------------------------------ *)

let test_csv_plain () =
  check Alcotest.string "simple" "a,b\n1,2\n"
    (Csv.to_string ~header:[ "a"; "b" ] ~rows:[ [ "1"; "2" ] ])

let test_csv_escaping () =
  let out =
    Csv.to_string ~header:[ "x" ] ~rows:[ [ "has,comma" ]; [ "has\"quote" ]; [ "line\nbreak" ] ]
  in
  check Alcotest.bool "comma quoted" true (contains out "\"has,comma\"");
  check Alcotest.bool "quote doubled" true (contains out "\"has\"\"quote\"");
  check Alcotest.bool "newline quoted" true (contains out "\"line\nbreak\"")

let test_csv_file_roundtrip () =
  let path = Filename.temp_file "standby" ".csv" in
  Csv.write_file path ~header:[ "h" ] ~rows:[ [ "v" ] ];
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  check Alcotest.string "file content" "h\nv\n" content

(* ----------------------------- Experiments ------------------------- *)

(* A configuration small enough for unit tests. *)
let tiny_config =
  {
    Experiments.vectors = 100;
    Experiments.heu2_limit_s = 0.05;
    Experiments.suite = [ "c432" ];
    Experiments.seed = 1;
    Experiments.jobs = 1;
  }

let context = lazy (Experiments.create ~config:tiny_config ())

(* Every artifact is rendered through the table behind [standbyopt report]. *)
let render name t = List.assoc name Experiments.artifacts t

let smoke name expected_fragments () =
  let t = Lazy.force context in
  let out = render name t in
  check Alcotest.bool (name ^ " non-empty") true (String.length out > 50);
  List.iter
    (fun fragment ->
      if not (contains out fragment) then
        Alcotest.failf "%s: missing fragment %S in:\n%s" name fragment out)
    expected_fragments

let test_table1 = smoke "table1" [ "NAND2"; "min leakage"; "State" ]

let test_table2 = smoke "table2" [ "INV"; "NOR3"; "TOTAL" ]

let test_table3 = smoke "table3" [ "c432"; "AVG"; "Heu1 5%" ]

let test_table4 = smoke "table4" [ "c432"; "Vt+St 5%"; "State" ]

let test_table5 = smoke "table5" [ "c432"; "uniform" ]

let test_figure1 = smoke "figure1" [ "NMOS"; "PMOS"; "Igate" ]

let test_figure2 = smoke "figure2" [ "NOR2"; "NAND2"; "Perm" ]

let test_figure3 = smoke "figure3" [ "v0"; "fast"; "min leakage" ]

let test_figure4 = smoke "figure4" [ "exact"; "heu1"; "heu2" ]

let test_figure5 () =
  let t = Lazy.force context in
  let dir = Filename.temp_dir "standby_fig5" "" in
  let cwd = Sys.getcwd () in
  Sys.chdir dir;
  let out = Fun.protect ~finally:(fun () -> Sys.chdir cwd) (fun () -> render "figure5" t) in
  check Alcotest.bool "rendered" true (String.length out > 50);
  let path = Filename.concat dir "figure5.csv" in
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  Sys.rmdir dir;
  check Alcotest.bool "csv header" true (contains content "penalty,heu1_uA");
  (* ten sweep points + header *)
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' content) in
  check Alcotest.int "csv rows" 11 (List.length lines)

let test_ablation = smoke "ablation" [ "baseline heu1"; "pin reordering" ]

let test_context_accessors () =
  let t = Lazy.force context in
  check Alcotest.int "config vectors" 100 (Experiments.config t).Experiments.vectors;
  let net = Experiments.circuit t "c432" in
  check Alcotest.int "circuit cached" 177 (Standby_netlist.Netlist.gate_count net);
  check Alcotest.bool "library built" true
    (Standby_cells.Library.total_version_count (Experiments.library t) > 10)

(* ------------------------------- DOT ------------------------------ *)

module Dot_export = Standby_report.Dot_export

let test_dot_structure () =
  let net = Standby_circuits.Adder.ripple_carry ~bits:2 () in
  let dot = Dot_export.of_netlist net in
  List.iter
    (fun needle ->
      if not (contains dot needle) then Alcotest.failf "missing %S" needle)
    [ "digraph"; "rankdir=LR"; "->"; "shape=box"; "doubleoctagon" ];
  (* one edge per fan-in connection *)
  let edges = ref 0 in
  Standby_netlist.Netlist.iter_gates net (fun _ _ fanin ->
      edges := !edges + Array.length fanin);
  let count = ref 0 in
  String.iteri
    (fun i c ->
      if c = '-' && i + 1 < String.length dot && dot.[i + 1] = '>' then incr count)
    dot;
  check Alcotest.int "edge count" !edges !count

let test_dot_annotated () =
  let t = Lazy.force context in
  let lib = Experiments.library t in
  let net = Standby_circuits.Adder.ripple_carry ~bits:2 () in
  let r = Standby_opt.Optimizer.run lib net ~penalty:0.25 Standby_opt.Optimizer.Heuristic_1 in
  let dot = Dot_export.of_assignment lib net r.Standby_opt.Optimizer.assignment in
  check Alcotest.bool "leakage labels" true (contains dot "nA");
  check Alcotest.bool "swapped fill" true (contains dot "fillcolor")

(* ------------------------------ Analyze --------------------------- *)

module Analyze = Standby_report.Analyze
module Optimizer = Standby_opt.Optimizer

let test_circuit_summary () =
  let net = Standby_circuits.Adder.ripple_carry ~bits:4 () in
  let out = Analyze.circuit_summary net in
  List.iter
    (fun needle ->
      if not (contains out needle) then Alcotest.failf "missing %S" needle)
    [ "ripple_adder"; "inputs"; "NAND2"; "fanout" ]

let test_leakage_profile () =
  let t = Lazy.force context in
  let lib = Experiments.library t in
  let net = Standby_circuits.Adder.ripple_carry ~bits:4 () in
  let r = Optimizer.run lib net ~penalty:0.05 Optimizer.Heuristic_1 in
  let out = Analyze.leakage_profile ~top:3 lib net r.Optimizer.assignment in
  List.iter
    (fun needle ->
      if not (contains out needle) then Alcotest.failf "missing %S" needle)
    [ "total leakage"; "swapped cells"; "top 3 leaky gates"; "sleep-entry overhead" ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "standby_report"
    [
      ( "ascii-table",
        [
          quick "alignment" test_render_alignment;
          quick "title and padding" test_render_title_and_padding;
          quick "row too long" test_render_row_too_long;
          quick "float cell" test_float_cell;
        ] );
      ( "csv",
        [
          quick "plain" test_csv_plain;
          quick "escaping" test_csv_escaping;
          quick "file roundtrip" test_csv_file_roundtrip;
        ] );
      ( "experiments",
        [
          quick "table1" test_table1;
          quick "table2" test_table2;
          quick "table3" test_table3;
          quick "table4" test_table4;
          quick "table5" test_table5;
          quick "figure1" test_figure1;
          quick "figure2" test_figure2;
          quick "figure3" test_figure3;
          quick "figure4" test_figure4;
          quick "figure5" test_figure5;
          quick "ablation" test_ablation;
          quick "context accessors" test_context_accessors;
        ] );
      ( "dot",
        [ quick "structure" test_dot_structure; quick "annotated" test_dot_annotated ] );
      ( "analyze",
        [
          quick "circuit summary" test_circuit_summary;
          quick "leakage profile" test_leakage_profile;
        ] );
    ]
