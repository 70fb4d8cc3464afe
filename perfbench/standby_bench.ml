(* The repository benchmark.  See README.md for the metrics, what each
   workload is for, and how to read a comparison.

     standby_bench --workload W [--seed S] [--seconds T] [--trace 0|1]
       One workload in this process; the last stdout line is the JSON
       result.  Exit 1 if any answer fails its check.
     standby_bench all [--repeat N] [--seed S] [--seconds T] [--out FILE]
       Every workload N times untraced (seeds S, S+1, ...), then once
       traced (seed S), each in a fresh process; appends one JSON line
       per run to FILE and prints medians and quartiles.
     standby_bench compare A B [--pairs]
       Two result files from [all], judged against the bounds in
       BENCHMARK.json (read from the working directory); exit 1 on any
       "differs". *)

module Json = Standby_telemetry.Json
module Log = Standby_telemetry.Log

let default_seed = 11
let default_seconds = 20.0
let scratch = "_perfbench"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("standby_bench: " ^ msg);
      exit 2)
    fmt

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun entry -> rm_rf (Filename.concat path entry)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Sys.mkdir p 0o755
    end
  in
  go path

(* Flag parsing: [--name value] pairs after the positional arguments. *)
let parse_flags args =
  let rec go positional flags = function
    | [] -> (List.rev positional, flags)
    | "--pairs" :: rest -> go positional (("pairs", "1") :: flags) rest
    | flag :: value :: rest when String.starts_with ~prefix:"--" flag ->
      go positional ((String.sub flag 2 (String.length flag - 2), value) :: flags) rest
    | flag :: [] when String.starts_with ~prefix:"--" flag -> die "%s needs a value" flag
    | arg :: rest -> go (arg :: positional) flags rest
  in
  go [] [] args

let flag flags name ~default conv =
  match List.assoc_opt name flags with
  | None -> default
  | Some v -> ( match conv v with Some x -> x | None -> die "bad value %S for --%s" v name)

(* ------------------------------------------------------------------ *)
(* One workload                                                         *)

let result_json (r : Workloads.report) =
  Json.Obj
    [
      ("correct", Json.Bool (r.Workloads.failures = []));
      ("attempted", Json.Int r.Workloads.attempted);
      ("failed", Json.Int (List.length r.Workloads.failures));
      ( "metrics",
        Json.Obj
          (List.map
             (fun (name, unit_, value) ->
               (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit_) ]))
             r.Workloads.metrics) );
    ]

let run_one flags =
  let workload = flag flags "workload" ~default:"" Option.some in
  if not (List.mem workload Workloads.names) then
    die "--workload must be one of %s" (String.concat ", " Workloads.names);
  let seed = flag flags "seed" ~default:default_seed int_of_string_opt in
  let seconds = flag flags "seconds" ~default:default_seconds float_of_string_opt in
  let trace =
    flag flags "trace" ~default:false (function "0" -> Some false | "1" -> Some true | _ -> None)
  in
  (* Per-request info lines from the daemon would swamp stderr. *)
  Log.set_level Log.Warn;
  let work_dir = Filename.concat scratch (string_of_int (Unix.getpid ())) in
  mkdir_p work_dir;
  let report =
    Fun.protect
      ~finally:(fun () ->
        rm_rf work_dir;
        try Sys.rmdir scratch with Sys_error _ -> ())
      (fun () -> Workloads.run workload { Workloads.seed; seconds; trace; work_dir })
  in
  Printf.printf "%s seed=%d seconds=%g trace=%b\n" workload seed seconds trace;
  List.iter
    (fun (name, unit_, value) -> Printf.printf "  %-30s %16.6f %s\n" name value unit_)
    report.Workloads.metrics;
  Printf.printf "  attempted %d, failed %d\n" report.Workloads.attempted
    (List.length report.Workloads.failures);
  List.iter (fun msg -> Printf.printf "  FAILED %s\n" msg) report.Workloads.failures;
  print_endline (Json.to_string (result_json report));
  exit (if report.Workloads.failures = [] then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Result files                                                         *)

type run = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;
}

let run_of_json line =
  let ( let* ) = Option.bind in
  let* json = Result.to_option (Json.of_string line) in
  let* workload = Option.bind (Json.member "workload" json) Json.to_string_opt in
  let* seed = Option.bind (Json.member "seed" json) Json.to_int_opt in
  let* traced = Option.bind (Json.member "trace" json) Json.to_int_opt in
  let* result = Json.member "result" json in
  let* correct = match Json.member "correct" result with Some (Json.Bool b) -> Some b | _ -> None in
  let* attempted = Option.bind (Json.member "attempted" result) Json.to_int_opt in
  let* failed = Option.bind (Json.member "failed" result) Json.to_int_opt in
  let* metrics = Option.bind (Json.member "metrics" result) Json.to_obj_opt in
  let metrics =
    List.filter_map
      (fun (name, m) ->
        let* value = Option.bind (Json.member "value" m) Json.to_float_opt in
        let* unit_ = Option.bind (Json.member "unit" m) Json.to_string_opt in
        Some (name, (value, unit_)))
      metrics
  in
  Some { workload; seed; traced = traced = 1; correct; attempted; failed; metrics }

let load_runs path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.filter_map (fun line ->
         let r = run_of_json line in
         if r = None then Printf.eprintf "standby_bench: %s: skipping run without a result\n" path;
         r)

let values runs workload name =
  List.filter_map
    (fun r ->
      if r.workload = workload && r.correct && not r.traced then
        Option.map fst (List.assoc_opt name r.metrics)
      else None)
    runs

(* ------------------------------------------------------------------ *)
(* all                                                                  *)

(* A child run's stdout, and its result line if it printed one. *)
let spawn args =
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list (Sys.executable_name :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left (fun acc l -> if String.trim l = "" then acc else Some l) None lines
  in
  (status, last)

let run_all flags =
  let repeat = flag flags "repeat" ~default:3 int_of_string_opt in
  let seed = flag flags "seed" ~default:default_seed int_of_string_opt in
  let seconds = flag flags "seconds" ~default:default_seconds float_of_string_opt in
  let out = flag flags "out" ~default:(Filename.concat scratch "runs.jsonl") Option.some in
  mkdir_p (Filename.dirname out);
  let oc = Out_channel.open_gen [ Open_append; Open_creat; Open_text ] 0o644 out in
  let ok = ref true and runs = ref [] in
  List.iter
    (fun workload ->
      let schedule =
        List.init repeat (fun i -> (seed + i, 0)) @ [ (seed, 1) ]
      in
      List.iter
        (fun (seed, trace) ->
          Printf.eprintf "standby_bench: %s seed %d trace %d\n%!" workload seed trace;
          let status, last =
            spawn
              [
                "--workload"; workload; "--seed"; string_of_int seed; "--seconds";
                Printf.sprintf "%g" seconds; "--trace"; string_of_int trace;
              ]
          in
          let result =
            match Option.map Json.of_string last with Some (Ok j) -> j | _ -> Json.Null
          in
          if status <> Unix.WEXITED 0 || result = Json.Null then ok := false;
          let line =
            Json.to_string
              (Json.Obj
                 [
                   ("workload", Json.String workload);
                   ("seed", Json.Int seed);
                   ("trace", Json.Int trace);
                   ("result", result);
                 ])
          in
          Out_channel.output_string oc (line ^ "\n");
          Out_channel.flush oc;
          Option.iter (fun r -> runs := r :: !runs) (run_of_json line))
        schedule)
    Workloads.names;
  Out_channel.close oc;
  let runs = List.rev !runs in
  List.iter
    (fun workload ->
      let mine = List.filter (fun r -> r.workload = workload) runs in
      let untraced = List.filter (fun r -> not r.traced) mine in
      let attempted = List.fold_left (fun a r -> a + r.attempted) 0 mine in
      let failed = List.fold_left (fun a r -> a + r.failed) 0 mine in
      Printf.printf "\n%s: %d runs, %d/%d jobs failed\n" workload (List.length mine) failed
        attempted;
      (match untraced with
       | r :: _ ->
         List.iter
           (fun (name, (_, unit_)) ->
             let q1, m, q3 = Quantile.quartiles (values mine workload name) in
             Printf.printf "  %-30s median %14.6f  [%.6f .. %.6f] %s\n" name m q1 q3 unit_)
           r.metrics
       | [] -> ());
      match List.filter (fun r -> r.traced) mine with
      | t :: _ ->
        Printf.printf "  traced (seed %d):\n" t.seed;
        List.iter
          (fun (name, (v, unit_)) -> Printf.printf "    %-30s %16.6f %s\n" name v unit_)
          t.metrics
      | [] -> ())
    Workloads.names;
  Printf.printf "\nruns appended to %s\n" out;
  exit (if !ok then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare                                                              *)

type bound = { metric : string; lower_is_better : bool; bound : float }

let load_bounds path =
  let json =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "%s: %s" path e
  in
  let entries =
    Option.value (Option.bind (Json.member "end_to_end" json) Json.to_list_opt) ~default:[]
  in
  List.map
    (fun e ->
      let str k = Option.bind (Json.member k e) Json.to_string_opt in
      match (str "name", str "better", Option.bind (Json.member "bound" e) Json.to_float_opt) with
      | Some metric, Some better, Some bound -> { metric; lower_is_better = better = "lower"; bound }
      | _ -> die "%s: malformed end_to_end entry" path)
    entries

let spread (q1, m, q3) = if m = 0.0 then 0.0 else Float.abs ((q3 -. q1) /. m)

let run_compare flags a b =
  let bounds = load_bounds "BENCHMARK.json" in
  let pairs = List.mem_assoc "pairs" flags in
  let runs_a = load_runs a and runs_b = load_runs b in
  let differs = ref 0 in
  Printf.printf "%-14s %-12s %12s %12s %8s %8s %7s  %s\n" "workload" "metric" "median A"
    "median B" "iqr A" "iqr B" "change" "verdict";
  List.iter
    (fun workload ->
      List.iter
        (fun { metric; lower_is_better; bound } ->
          let va = values runs_a workload metric and vb = values runs_b workload metric in
          if va <> [] && vb <> [] then begin
            let qa = Quantile.quartiles va and qb = Quantile.quartiles vb in
            let (_, ma, _), (_, mb, _) = (qa, qb) in
            let change = if ma = 0.0 then 0.0 else (mb -. ma) /. Float.abs ma in
            let iqr = Float.max (spread qa) (spread qb) in
            let verdict =
              if iqr > bound then Printf.sprintf "unresolved (IQR > bound; needs %.4f)" iqr
              else if Float.abs change > bound then begin
                incr differs;
                "differs"
              end
              else "agree"
            in
            Printf.printf "%-14s %-12s %12.5g %12.5g %8.4f %8.4f %+7.2f%%  %s (bound %g)\n" workload
              metric ma mb (spread qa) (spread qb) (100.0 *. change) verdict bound;
            if pairs then begin
              (* Pairs are the i-th run of each side: run them alternating
                 and in the same seed order. *)
              let n = min (List.length va) (List.length vb) in
              let wins =
                List.length
                  (List.filter Fun.id
                     (List.init n (fun i ->
                          let x = List.nth va i and y = List.nth vb i in
                          if lower_is_better then y < x else y > x)))
              in
              let q1a, _, q3a = qa in
              let gain =
                float_of_int wins >= 0.9 *. float_of_int n
                && Float.abs (mb -. ma) > q3a -. q1a
              in
              Printf.printf "%-14s %-12s B wins %d/%d pairs; gain %s\n" "" "" wins n
                (if gain then "shown" else "not shown")
            end
          end)
        bounds)
    (List.fold_left
       (fun seen r -> if List.mem r.workload seen then seen else seen @ [ r.workload ])
       [] runs_a);
  exit (if !differs > 0 then 1 else 0)

let () =
  let positional, flags = parse_flags (List.tl (Array.to_list Sys.argv)) in
  match positional with
  | [] -> run_one flags
  | [ "all" ] -> run_all flags
  | [ "compare"; a; b ] -> run_compare flags a b
  | _ -> die "usage: see perfbench/README.md"
