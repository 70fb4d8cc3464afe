type profile = { bench_name : string; published_inputs : int; published_gates : int }

let profiles =
  [
    { bench_name = "c432"; published_inputs = 36; published_gates = 177 };
    { bench_name = "c499"; published_inputs = 41; published_gates = 519 };
    { bench_name = "c880"; published_inputs = 60; published_gates = 364 };
    { bench_name = "c1355"; published_inputs = 41; published_gates = 528 };
    { bench_name = "c1908"; published_inputs = 33; published_gates = 432 };
    { bench_name = "c2670"; published_inputs = 233; published_gates = 825 };
    { bench_name = "c3540"; published_inputs = 50; published_gates = 940 };
    { bench_name = "c5315"; published_inputs = 178; published_gates = 1627 };
    { bench_name = "c6288"; published_inputs = 32; published_gates = 2470 };
    { bench_name = "c7552"; published_inputs = 207; published_gates = 1994 };
    { bench_name = "alu64"; published_inputs = 131; published_gates = 1803 };
  ]

let names = List.map (fun p -> p.bench_name) profiles

(* Deterministic per-benchmark seed so every run sees the same circuit. *)
let seed_of_name name = Hashtbl.hash ("standby:" ^ name)

let circuit name =
  match name with
  | "c6288" -> Multiplier.array_multiplier ~name ~bits:16 ()
  | "alu64" -> Alu.make ~name ~width:64 ()
  | _ ->
    (match List.find_opt (fun p -> p.bench_name = name) profiles with
     | None -> raise Not_found
     | Some p ->
       Random_logic.generate ~name ~seed:(seed_of_name name) ~inputs:p.published_inputs
         ~gates:p.published_gates ())

let find name =
  try Ok (circuit name)
  with Not_found ->
    Error
      (Printf.sprintf "unknown benchmark %S (known: %s)" name (String.concat ", " names))

let small_suite = [ "c432"; "c499"; "c880"; "c1355"; "c1908" ]
