(* The batch subsystem: manifests, cache keys, the result store, the
   domain pool, deadline degradation and the engine end to end. *)

module Netlist = Standby_netlist.Netlist
module Gate_kind = Standby_netlist.Gate_kind
module Bench_io = Standby_netlist.Bench_io
module Process = Standby_device.Process
module Version = Standby_cells.Version
module Library = Standby_cells.Library
module Optimizer = Standby_opt.Optimizer
module Assignment = Standby_power.Assignment
module Benchmarks = Standby_circuits.Benchmarks
module Manifest = Standby_service.Manifest
module Cache_key = Standby_service.Cache_key
module Result_store = Standby_service.Result_store
module Pool = Standby_pool.Pool
module Engine = Standby_service.Engine
module Metrics = Standby_telemetry.Metrics

let check = Alcotest.check
let quick name f = Alcotest.test_case name `Quick f

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_error ~sub name = function
  | Ok _ -> Alcotest.failf "%s: expected an error mentioning %S" name sub
  | Error msg ->
    if not (contains ~sub msg) then
      Alcotest.failf "%s: error %S does not mention %S" name msg sub

let data_file name =
  let candidates = [ Filename.concat "../data" name; Filename.concat "data" name ] in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> Alcotest.failf "fixture %s not found" name

(* A unique throwaway directory (created on demand by its consumer). *)
let fresh_dir prefix =
  let file = Filename.temp_file prefix "" in
  Sys.remove file;
  file

let read_file path = In_channel.with_open_text path In_channel.input_all

(* Characterizing the default library is the expensive setup; share it. *)
let library = lazy (Library.build Process.default)

(* ------------------------------------------------------------------ *)
(* Manifest                                                             *)

let sample_manifest =
  {|# batch manifest
[defaults]
library = 2opt
method = heu2
time-limit = 0.5
penalty = 0.08

[job first]
circuit = c432

[job second]
file = sub/c17.bench
method = exact
penalty = 0.02
deadline = 30

[job third]
circuit = c880
method = hc
rounds = 3

[job fourth]
circuit = c432
method = greedy
time-limit = 4
|}

let test_manifest_parse () =
  match Manifest.parse ~dir:"/anchor" sample_manifest with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok jobs ->
    check (Alcotest.list Alcotest.string) "ids, in manifest order"
      [ "first"; "second"; "third"; "fourth" ]
      (List.map (fun j -> j.Manifest.id) jobs);
    let first, second, third, fourth =
      match jobs with [ a; b; c; d ] -> (a, b, c, d) | _ -> assert false
    in
    check Alcotest.bool "defaults apply" true
      (first.Manifest.mode = Version.two_option_mode
      && first.Manifest.method_ = Optimizer.Heuristic_2 { time_limit_s = 0.5 }
      && first.Manifest.penalty = 0.08
      && first.Manifest.deadline_s = None
      && first.Manifest.source = Manifest.Builtin "c432");
    check Alcotest.bool "per-job overrides win" true
      (second.Manifest.method_ = Optimizer.Exact
      && second.Manifest.penalty = 0.02
      && second.Manifest.deadline_s = Some 30.0);
    check Alcotest.string "relative file anchored to dir" "/anchor/sub/c17.bench"
      (match second.Manifest.source with Manifest.File p -> p | _ -> "not a file");
    check Alcotest.bool "job keys fall back to defaults" true
      (third.Manifest.method_ = Optimizer.Hill_climb { time_limit_s = 0.5; max_rounds = 3 });
    check Alcotest.bool "greedy reuses the time-limit key as its budget" true
      (fourth.Manifest.method_ = Optimizer.Greedy { time_budget_s = 4.0 })

let test_manifest_errors () =
  let parse = Manifest.parse ?dir:None in
  check_error ~sub:"no jobs" "empty" (parse "");
  check_error ~sub:"duplicate job" "duplicate"
    (parse "[job a]\ncircuit = c432\n[job a]\ncircuit = c432\n");
  check_error ~sub:"sets both" "circuit and file"
    (parse "[job a]\ncircuit = c432\nfile = x.bench\n");
  check_error ~sub:"needs 'circuit" "no source" (parse "[job a]\npenalty = 0.1\n");
  check_error ~sub:"line 2: unknown key" "unknown key"
    (parse "[job a]\nfrobnicate = yes\ncircuit = c432\n");
  check_error ~sub:"outside" "key at toplevel" (parse "penalty = 0.1\n");
  check_error ~sub:"not allowed in [defaults]" "circuit in defaults"
    (parse "[defaults]\ncircuit = c432\n");
  check_error ~sub:"unknown method" "bad method"
    (parse "[job a]\ncircuit = c432\nmethod = annealing\n");
  check_error ~sub:"unknown library mode" "bad mode"
    (parse "[job a]\ncircuit = c432\nlibrary = 9opt\n");
  check_error ~sub:"deadline must be positive" "zero deadline"
    (parse "[job a]\ncircuit = c432\ndeadline = 0\n");
  check_error ~sub:"unterminated" "unterminated header" (parse "[job a\ncircuit = c432\n");
  check_error ~sub:"malformed number" "bad float"
    (parse "[job a]\ncircuit = c432\npenalty = lots\n");
  (* The method table validates the parameters a method takes, with the
     same messages the CLI and the wire give. *)
  check_error ~sub:"rounds must be positive" "zero hc rounds"
    (parse "[job a]\ncircuit = c432\nmethod = hc\nrounds = 0\n");
  check_error ~sub:"time limit must be positive" "negative hc time limit"
    (parse "[job a]\ncircuit = c432\nmethod = hc\ntime-limit = -5\n");
  check_error ~sub:"time limit must be positive" "zero greedy budget"
    (parse "[job a]\ncircuit = c432\nmethod = greedy\ntime-limit = 0\n");
  check_error ~sub:"regions must be non-negative" "negative regions"
    (parse "[job a]\ncircuit = c432\nmethod = partition\nregions = -1\n")

(* ------------------------------------------------------------------ *)
(* Cache keys                                                           *)

(* Three inputs, two parallel gates, one output gate — small enough to
   build by hand twice with the parallel gates swapped. *)
let diamond ~swap_order ~names () =
  let b = Netlist.Builder.create ~name:(if names then "one" else "two") () in
  let input i = Netlist.Builder.add_input ~name:(Printf.sprintf "%s%d" i 0) b in
  let a = input (if names then "a" else "p") in
  let bb = input (if names then "b" else "q") in
  let c = input (if names then "c" else "r") in
  let x, y =
    if swap_order then begin
      let y = Netlist.Builder.add_gate b Gate_kind.Nor2 [| bb; c |] in
      let x = Netlist.Builder.add_gate b Gate_kind.Nand2 [| a; bb |] in
      (x, y)
    end
    else begin
      let x = Netlist.Builder.add_gate b Gate_kind.Nand2 [| a; bb |] in
      let y = Netlist.Builder.add_gate b Gate_kind.Nor2 [| bb; c |] in
      (x, y)
    end
  in
  let out = Netlist.Builder.add_gate b Gate_kind.Nand2 [| x; y |] in
  Netlist.Builder.mark_output b out;
  (b, a)

let finish (b, _) = Netlist.Builder.finish b

let test_canonical_invariance () =
  let net1 = finish (diamond ~swap_order:false ~names:true ()) in
  let net2 = finish (diamond ~swap_order:true ~names:false ()) in
  check Alcotest.string "gate insertion order and names are irrelevant"
    (Cache_key.canonical net1) (Cache_key.canonical net2);
  (* Dead logic — a gate feeding no output — must not affect the key. *)
  let b, a = diamond ~swap_order:false ~names:true () in
  let _dead = Netlist.Builder.add_gate b Gate_kind.Inv [| a |] in
  let net3 = Netlist.Builder.finish b in
  check Alcotest.string "unreachable logic is irrelevant" (Cache_key.canonical net1)
    (Cache_key.canonical net3);
  (* But an actual structural change must show. *)
  let b, _ = diamond ~swap_order:false ~names:true () in
  let inv = Netlist.Builder.add_gate b Gate_kind.Inv [| 0 |] in
  Netlist.Builder.mark_output b inv;
  let net4 = Netlist.Builder.finish b in
  check Alcotest.bool "structure changes the rendering" false
    (Cache_key.canonical net1 = Cache_key.canonical net4)

let test_digest_sensitivity () =
  let net = finish (diamond ~swap_order:false ~names:true ()) in
  let digest ?(process = Process.default) ?(mode = Version.default_mode) ?(penalty = 0.05)
      ?(method_ = Optimizer.Heuristic_1) () =
    Cache_key.digest ~net ~process ~mode ~penalty ~method_
  in
  let base = digest () in
  check Alcotest.string "digest is deterministic" base (digest ());
  check Alcotest.string "equal structure, equal digest" base
    (Cache_key.digest
       ~net:(finish (diamond ~swap_order:true ~names:false ()))
       ~process:Process.default ~mode:Version.default_mode ~penalty:0.05
       ~method_:Optimizer.Heuristic_1);
  let differs name key = check Alcotest.bool name false (key = base) in
  differs "process parameter misses"
    (digest ~process:{ Process.default with Process.vdd = Process.default.Process.vdd +. 0.05 } ());
  differs "penalty misses" (digest ~penalty:0.06 ());
  differs "library mode misses" (digest ~mode:Version.two_option_mode ());
  differs "method misses" (digest ~method_:(Optimizer.Heuristic_2 { time_limit_s = 1.0 }) ());
  differs "method parameter misses"
    (digest ~method_:(Optimizer.Hill_climb { time_limit_s = 1.0; max_rounds = 4 }) ());
  check Alcotest.bool "method parameters are part of the descriptor" false
    (Cache_key.method_descriptor (Optimizer.Heuristic_2 { time_limit_s = 1.0 })
    = Cache_key.method_descriptor (Optimizer.Heuristic_2 { time_limit_s = 2.0 }));
  (* Stored digests hash these strings: they may not move. *)
  List.iter
    (fun (want, m) -> check Alcotest.string want want (Cache_key.method_descriptor m))
    [
      ("heu1", Optimizer.Heuristic_1);
      ("heu2:1.5", Optimizer.Heuristic_2 { time_limit_s = 1.5 });
      ("hc:0.5:3", Optimizer.Hill_climb { time_limit_s = 0.5; max_rounds = 3 });
      ("exact", Optimizer.Exact);
      ("greedy:1.2345", Optimizer.Greedy { time_budget_s = 1.2345 });
      ("partition:0.0004:r2", Optimizer.Partition { time_budget_s = 0.0004; regions = 2 });
    ]

(* The rendering as it was first written, with [Printf] per node: an
   independent reference the buffer-and-digits [Cache_key.canonical]
   must match byte for byte, since stored keys hash these bytes. *)
let printf_canonical net =
  let buf = Buffer.create 4096 in
  let inputs = Netlist.inputs net in
  Buffer.add_string buf (Printf.sprintf "inputs %d\n" (Array.length inputs));
  let canon = Array.make (Netlist.node_count net) (-1) in
  Array.iteri (fun position id -> canon.(id) <- position) inputs;
  let next = ref (Array.length inputs) in
  let emit id =
    let fanin = Netlist.fanin net id in
    let kind = match Netlist.kind_of net id with Some k -> k | None -> assert false in
    let cid = !next in
    incr next;
    canon.(id) <- cid;
    Buffer.add_string buf (Printf.sprintf "n%d = %s(" cid (Gate_kind.name kind));
    Array.iteri
      (fun pin driver ->
        if pin > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (Printf.sprintf "n%d" canon.(driver)))
      fanin;
    Buffer.add_string buf ")\n"
  in
  Netlist.postorder ~fanin:(Netlist.fanin net) (Netlist.node_count net) (Netlist.outputs net) emit;
  Buffer.add_string buf "outputs ";
  Array.iteri
    (fun i id ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "n%d" canon.(id)))
    (Netlist.outputs net);
  Buffer.add_char buf '\n';
  Buffer.contents buf

let test_canonical_oracle_standins () =
  List.iter
    (fun name ->
      let net = Benchmarks.circuit name in
      check Alcotest.string name (printf_canonical net) (Cache_key.canonical net))
    Benchmarks.names

let test_canonical_oracle_random =
  QCheck.Test.make ~count:60 ~name:"canonical matches the printf rendering"
    QCheck.(make ~print:string_of_int Gen.(int_range 0 100_000))
    (fun seed ->
      let inputs = 2 + (seed mod 30) in
      let net =
        Standby_circuits.Random_logic.generate ~seed ~inputs ~gates:(inputs + (seed mod 200)) ()
      in
      String.equal (printf_canonical net) (Cache_key.canonical net))

(* ------------------------------------------------------------------ *)
(* Source memo                                                          *)

let memo_digest canonical =
  Cache_key.digest_of_canonical ~canonical ~process:Process.default ~mode:Version.default_mode
    ~penalty:0.05 ~method_:Optimizer.Heuristic_1

let reference_digest text =
  match Bench_io.of_string text with
  | Ok net ->
    Cache_key.digest ~net ~process:Process.default ~mode:Version.default_mode ~penalty:0.05
      ~method_:Optimizer.Heuristic_1
  | Error msg -> Alcotest.fail msg

let memo_key memo text =
  match Cache_key.Source_memo.canonical memo text ~parse:(Bench_io.of_string ~name:"memo") with
  | Ok canonical -> memo_digest canonical
  | Error msg -> Alcotest.failf "memo refused a valid text: %s" msg

let standin_text name = Bench_io.to_string (Benchmarks.circuit name)

(* A memo whose instruments live in a registry of their own, and
   readers for them. *)
let test_memo ~cap_bytes =
  let registry = Metrics.create () in
  let memo =
    Cache_key.Source_memo.create ~hits:(Metrics.counter registry "hits")
      ~misses:(Metrics.counter registry "misses") ~evictions:(Metrics.counter registry "evictions")
      ~bytes:(Metrics.gauge registry "bytes") ~cap_bytes
  in
  let counter name = Option.get (Metrics.find_counter (Metrics.registry_snapshot registry) name) in
  let bytes () =
    int_of_float (Option.get (Metrics.find_gauge (Metrics.registry_snapshot registry) "bytes"))
  in
  (memo, counter, bytes)

let test_memo_keys () =
  let c17 = read_file (data_file "c17.bench") in
  let c432 = standin_text "c432" and c499 = standin_text "c499" in
  let size text =
    String.length text + String.length (Cache_key.canonical (Result.get_ok (Bench_io.of_string text)))
  in
  (* Room for c17 with either, but not for c432 and c499 together. *)
  let cap_bytes = size c17 + size c499 in
  check Alcotest.bool "c432 smaller than c499" true (size c432 < size c499);
  let memo, counter, bytes = test_memo ~cap_bytes in
  (* Whether a lookup parsed: a stored text is answered without. *)
  let parsed text =
    let before = counter "misses" in
    let key = memo_key memo text in
    check Alcotest.string "memo key = Cache_key.digest" (reference_digest text) key;
    counter "misses" > before
  in
  check Alcotest.bool "first sight parses" true (parsed c432);
  check Alcotest.bool "a repeat does not" false (parsed c432);
  check Alcotest.int "the repeat is a hit" 1 (counter "hits");
  check Alcotest.bool "c17 parses" true (parsed c17);
  check Alcotest.int "both fit" (size c432 + size c17) (bytes ());
  check Alcotest.bool "c499 parses" true (parsed c499);
  check Alcotest.int "the oldest, c432, was evicted" 1 (counter "evictions");
  check Alcotest.bool "within the cap" true (bytes () <= cap_bytes);
  check Alcotest.bool "after eviction c432 parses again" true (parsed c432);
  check Alcotest.bool "still within the cap" true (bytes () <= cap_bytes);
  (* Statements permuted and signals renamed: a different text, the
     same structure, so the same key. *)
  let lines = String.split_on_char '\n' c17 in
  let is_gate line = String.contains line '=' in
  let renamed =
    String.concat "net_"
      (String.split_on_char 'G'
         (String.concat "\n"
            (List.filter (fun l -> not (is_gate l)) lines @ List.rev (List.filter is_gate lines))))
  in
  check Alcotest.bool "a different text" false (String.equal renamed c17);
  check Alcotest.string "permuted and renamed" (memo_key memo c17) (memo_key memo renamed)

let test_memo_refusals () =
  let memo, counter, bytes = test_memo ~cap_bytes:4096 in
  let malformed = "INPUT(a)\nOUTPUT(y)\ny = FROB(a)\n" in
  let ask text = Cache_key.Source_memo.canonical memo text ~parse:(Bench_io.of_string ~name:"bad") in
  let first = ask malformed in
  check Alcotest.bool "malformed text is refused" true (Result.is_error first);
  check Alcotest.(result string string) "the same error twice" first (ask malformed);
  check Alcotest.(result string string) "the error the parser gives"
    (Result.map Cache_key.canonical (Bench_io.of_string ~name:"bad" malformed))
    first;
  check Alcotest.int "both asks parsed" 2 (counter "misses");
  check Alcotest.int "nothing stored" 0 (bytes ());
  let big = standin_text "c432" in
  check Alcotest.bool "c432 exceeds the cap" true (String.length big > 4096);
  check Alcotest.string "oversized text still keys" (reference_digest big) (memo_key memo big);
  check Alcotest.string "and again" (reference_digest big) (memo_key memo big);
  check Alcotest.int "oversized text parsed both times" 4 (counter "misses");
  check Alcotest.int "still nothing stored" 0 (bytes ())

let test_memo_threads () =
  let texts = Array.of_list (List.map standin_text [ "c432"; "c499"; "c880"; "c1355" ]) in
  let n = Array.length texts in
  let want = Array.map reference_digest texts in
  (* Smaller than the four together, so the threads also race evictions. *)
  let cap_bytes = 2 * (String.length texts.(0) + String.length texts.(1)) in
  let memo, counter, bytes = test_memo ~cap_bytes in
  let results = Array.make 4 [] in
  let worker k () =
    results.(k) <-
      List.init (3 * n) (fun r ->
          let j = (r + k) mod n in
          (j, memo_key memo texts.(j)))
  in
  List.iter Thread.join (List.init 4 (fun k -> Thread.create (worker k) ()));
  Array.iter
    (List.iter (fun (j, key) -> check Alcotest.string "same key from every thread" want.(j) key))
    results;
  check Alcotest.int "every lookup counted" (4 * 3 * n) (counter "hits" + counter "misses");
  check Alcotest.bool "within the cap" true (bytes () <= cap_bytes)

(* ------------------------------------------------------------------ *)
(* Result store                                                         *)

let sample_entry =
  {
    Result_store.method_name = "heu1";
    penalty = 0.05;
    budget = 1.25;
    delay = 1.2000000000000003;
    delay_fast = 1.0;
    delay_slow = 3.5;
    total = 1.234e-6;
    isub = 1.0e-6;
    igate = 0.234e-6;
    runtime_s = 0.75;
    assignment = "vector 0101\nchoices 0 0 1 2\n";
  }

let test_store_roundtrip () =
  let store = Result_store.create ~dir:(fresh_dir "standbyopt-store") () in
  let key = String.make 32 'a' in
  check Alcotest.bool "missing key is a miss" true (Result_store.find store ~key = None);
  Result_store.store store ~key sample_entry;
  (match Result_store.find store ~key with
   | None -> Alcotest.fail "stored entry not found"
   | Some e ->
     (* %.17g round-trips doubles exactly, so equality is structural. *)
     check Alcotest.bool "entry survives the round trip" true (e = sample_entry));
  (* Corruption degrades to a miss, never an error. *)
  Out_channel.with_open_text
    (Filename.concat (Result_store.dir store) (key ^ ".result"))
    (fun oc -> Out_channel.output_string oc "not a result file\n");
  check Alcotest.bool "corrupted entry is a miss" true (Result_store.find store ~key = None);
  Result_store.store store ~key sample_entry;
  Result_store.store store ~key:(String.make 32 'b') sample_entry;
  check Alcotest.int "clear removes every entry" 2 (Result_store.clear store);
  check Alcotest.bool "cleared store is empty" true (Result_store.find store ~key = None)


(* A file in the retired "standbyopt-result 1" line format (here
   [sample_entry], written out literally) is not a hit any more: it
   counts as corrupt once and the next store overwrites it with the one
   JSON object a cache-found frame carries after [v], [type] and [key]. *)
let test_store_retired_format () =
  let module Json = Standby_telemetry.Json in
  let module Metrics = Standby_telemetry.Metrics in
  let corrupt = Metrics.counter Metrics.default "result_store.corrupt" in
  let store = Result_store.create ~dir:(fresh_dir "standbyopt-retired") () in
  let key = String.make 32 'c' in
  let file = Filename.concat (Result_store.dir store) (key ^ ".result") in
  Out_channel.with_open_text file (fun oc ->
      Out_channel.output_string oc
        "standbyopt-result 1\nmethod heu1\npenalty 0.050000000000000003\nbudget 1.25\n\
         delay 1.2000000000000004\ndelay_fast 1\ndelay_slow 3.5\ntotal 1.234e-06\n\
         isub 9.9999999999999995e-07\nigate 2.34e-07\nruntime 0.75\n\
         vector 0101\nchoices 0 0 1 2\n");
  let before = Metrics.counter_value corrupt in
  check Alcotest.bool "old-format file is not a hit" true (Result_store.find store ~key = None);
  check Alcotest.int "counted corrupt once" (before + 1) (Metrics.counter_value corrupt);
  Result_store.store store ~key sample_entry;
  match In_channel.with_open_text file In_channel.input_lines with
  | [ line ] ->
    check Alcotest.bool "the file is the cache frame's entry members" true
      (Json.of_string line = Ok (Json.Obj (Result_store.entry_members sample_entry)))
  | lines -> Alcotest.failf "expected one line, got %d" (List.length lines)

(* The cap is LRU: a [find] freshens its entry, so the evictee is the
   least recently *used* entry, not merely the oldest write. *)
let test_store_lru () =
  let store =
    Result_store.create ~max_entries:2 ~dir:(fresh_dir "standbyopt-lru") ()
  in
  check Alcotest.(option int) "cap recorded" (Some 2) (Result_store.max_entries store);
  let key c = String.make 32 c in
  let present c = Result_store.find store ~key:(key c) <> None in
  Result_store.store store ~key:(key 'a') sample_entry;
  Unix.sleepf 0.02;
  Result_store.store store ~key:(key 'b') sample_entry;
  Unix.sleepf 0.02;
  (* Touch 'a' so 'b' becomes the least recently used entry. *)
  check Alcotest.bool "freshening hit" true (present 'a');
  Unix.sleepf 0.02;
  Result_store.store store ~key:(key 'c') sample_entry;
  check Alcotest.bool "recently used entry survives the cap" true (present 'a');
  check Alcotest.bool "least recently used entry is evicted" false (present 'b');
  check Alcotest.bool "new entry is present" true (present 'c')

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)

let test_pool_map () =
  let input = Array.init 100 (fun i -> i) in
  let output = Pool.map ~workers:4 (fun i -> i * i) input in
  check (Alcotest.array Alcotest.int) "order preserved" (Array.map (fun i -> i * i) input)
    output;
  match Pool.map ~workers:2 (fun i -> if i = 5 then failwith "boom" else i) input with
  | _ -> Alcotest.fail "expected the task exception to re-raise"
  | exception Failure msg -> check Alcotest.string "first task exception re-raised" "boom" msg

let test_pool_submit_wait () =
  let pool = Pool.create ~workers:3 () in
  check Alcotest.int "worker count" 3 (Pool.workers pool);
  let counter = Atomic.make 0 in
  for _ = 1 to 50 do
    Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Pool.wait pool;
  check Alcotest.int "every task ran" 50 (Atomic.get counter);
  (* Exceptions must not kill workers. *)
  Pool.submit pool (fun () -> failwith "swallowed");
  Pool.submit pool (fun () -> Atomic.incr counter);
  Pool.wait pool;
  check Alcotest.int "worker survives a task exception" 51 (Atomic.get counter);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* Idempotent. *)
  match Pool.submit pool (fun () -> ()) with
  | () -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Assignment serialization                                             *)

let test_assignment_roundtrip () =
  let lib = Lazy.force library in
  let net = Result.get_ok (Bench_io.of_string (read_file (data_file "c17.bench"))) in
  let result = Optimizer.run lib net ~penalty:0.1 Optimizer.Heuristic_1 in
  let a = result.Optimizer.assignment in
  match Assignment.of_string lib net (Assignment.to_string a) with
  | Error msg -> Alcotest.failf "round trip failed: %s" msg
  | Ok b ->
    check (Alcotest.array Alcotest.bool) "input vector" a.Assignment.input_vector
      b.Assignment.input_vector;
    check (Alcotest.array Alcotest.int) "option choices" a.Assignment.option_choice
      b.Assignment.option_choice;
    check (Alcotest.array Alcotest.bool) "node values re-derived" a.Assignment.node_values
      b.Assignment.node_values;
    check (Alcotest.array Alcotest.int) "gate states re-derived" a.Assignment.gate_state
      b.Assignment.gate_state

let test_assignment_rejects () =
  let lib = Lazy.force library in
  let net = Result.get_ok (Bench_io.of_string (read_file (data_file "c17.bench"))) in
  let reject name text = check_error ~sub:"" name (Assignment.of_string lib net text) in
  reject "wrong vector length" "vector 01\nchoices 0 0 0 0 0 0\n";
  reject "wrong choice count" "vector 01010\nchoices 0 0\n";
  reject "out-of-range choice" "vector 01010\nchoices 99 0 0 0 0 0\n";
  reject "garbage" "hello\n"

(* ------------------------------------------------------------------ *)
(* Deadline degradation                                                 *)

let test_degraded_flag () =
  let lib = Lazy.force library in
  let net = Benchmarks.circuit "c880" in
  (* Exact search on hundreds of gates cannot finish inside a zero
     deadline — but it must still return a feasible incumbent. *)
  let r = Optimizer.run ~deadline_s:0.0 lib net ~penalty:0.1 Optimizer.Exact in
  check Alcotest.bool "deadline cut marks the result degraded" true r.Optimizer.degraded;
  check Alcotest.bool "degraded result stays delay-feasible" true
    (r.Optimizer.delay <= r.Optimizer.budget +. 1e-9);
  let full = Optimizer.run lib net ~penalty:0.1 Optimizer.Heuristic_1 in
  check Alcotest.bool "no deadline, not degraded" false full.Optimizer.degraded;
  (* A generous deadline that the method beats on its own is not a cut. *)
  let easy = Optimizer.run ~deadline_s:3600.0 lib net ~penalty:0.1 Optimizer.Heuristic_1 in
  check Alcotest.bool "unexercised deadline, not degraded" false easy.Optimizer.degraded;
  (* Heuristic 1 is one descent and one gate-tree pass: the pass polls
     the deadline and the interrupt too, so a zero deadline leaves every
     gate fast. *)
  let five_k =
    Standby_circuits.Random_logic.generate ~seed:11 ~inputs:50 ~gates:5000 ~window:250 ()
  in
  let cut = Optimizer.run ~deadline_s:0.0 lib five_k ~penalty:0.1 Optimizer.Heuristic_1 in
  check Alcotest.bool "heu1 deadline cut marks the result degraded" true cut.Optimizer.degraded;
  check Alcotest.bool "heu1 cut stays delay-feasible" true
    (cut.Optimizer.delay <= cut.Optimizer.budget);
  check Alcotest.int "heu1 cut before any swap" 0
    cut.Optimizer.stats.Standby_opt.Search_stats.gate_changes;
  let cancelled =
    Optimizer.run ~interrupt:(fun () -> true) lib five_k ~penalty:0.1 Optimizer.Heuristic_1
  in
  check Alcotest.bool "heu1 interrupt marks the result degraded" true
    cancelled.Optimizer.degraded

(* ------------------------------------------------------------------ *)
(* Engine                                                               *)

let engine_job ~id ?deadline_s ?(method_ = Optimizer.Heuristic_1) ?(penalty = 0.1) source =
  {
    Manifest.id;
    source;
    mode = Version.default_mode;
    method_;
    penalty;
    deadline_s;
    process_file = None;
  }

let test_engine_cache_flow () =
  let c17 = data_file "c17.bench" in
  let jobs =
    [
      engine_job ~id:"c17-a" ~penalty:0.05 (Manifest.File c17);
      engine_job ~id:"c17-b" ~penalty:0.15 (Manifest.File c17);
      engine_job ~id:"c432" (Manifest.Builtin "c432");
      engine_job ~id:"c880-tight" ~method_:Optimizer.Exact ~deadline_s:0.01
        (Manifest.Builtin "c880");
    ]
  in
  let store = Result_store.create ~dir:(fresh_dir "standbyopt-cache") () in
  let cold = Engine.run ~workers:2 ~store jobs in
  check Alcotest.int "cold run computes" 3 cold.Engine.computed;
  check Alcotest.int "cold run has no hits" 0 cold.Engine.cached;
  check Alcotest.int "deadline job degrades" 1 cold.Engine.degraded;
  check Alcotest.int "nothing fails" 0 cold.Engine.failed;
  let entries dir =
    Array.length
      (Array.of_list
         (List.filter
            (fun f -> Filename.check_suffix f ".result")
            (Array.to_list (Sys.readdir dir))))
  in
  check Alcotest.int "degraded results are not persisted" 3
    (entries (Result_store.dir store));
  let warm = Engine.run ~workers:2 ~store jobs in
  check Alcotest.int "warm run hits" 3 warm.Engine.cached;
  check Alcotest.int "warm run recomputes nothing" 0 warm.Engine.computed;
  check Alcotest.int "degraded job reruns every time" 1 warm.Engine.degraded;
  check Alcotest.int "store is unchanged" 3 (entries (Result_store.dir store));
  Array.iter
    (fun o ->
      match o.Engine.status with
      | Engine.Failed msg -> Alcotest.failf "job %s failed: %s" o.Engine.job.Manifest.id msg
      | _ ->
        check Alcotest.bool "every outcome carries a result" true (o.Engine.result <> None))
    warm.Engine.outcomes;
  (* Outcomes come back in manifest order regardless of completion order. *)
  check (Alcotest.list Alcotest.string) "manifest order preserved"
    (List.map (fun j -> j.Manifest.id) jobs)
    (Array.to_list (Array.map (fun o -> o.Engine.job.Manifest.id) warm.Engine.outcomes));
  let rendered = Engine.table warm in
  List.iter
    (fun sub ->
      check Alcotest.bool (Printf.sprintf "table mentions %s" sub) true
        (contains ~sub rendered))
    [ "c17-a"; "c880-tight"; "cached"; "degraded" ];
  let csv = Engine.csv warm in
  check Alcotest.bool "csv has the header" true (contains ~sub:"job,circuit" csv);
  check Alcotest.bool "csv carries the cache key" true
    (match warm.Engine.outcomes.(0).Engine.key with
     | Some key -> contains ~sub:key csv
     | None -> false)

let test_engine_failure () =
  let summary =
    Engine.run ~workers:1
      [
        engine_job ~id:"ghost" (Manifest.File "/nonexistent/ghost.bench");
        engine_job ~id:"real" (Manifest.File (data_file "c17.bench"));
      ]
  in
  check Alcotest.int "bad path fails its job only" 1 summary.Engine.failed;
  check Alcotest.int "good job still computes" 1 summary.Engine.computed;
  let ghost = summary.Engine.outcomes.(0) in
  check Alcotest.bool "failed outcome has no key or result" true
    (ghost.Engine.key = None && ghost.Engine.result = None)

(* Stores on disk are keyed by these digests (heu1, penalty 0.05, the
   default process and library mode), so no refactor of the canonical
   walk may move them: the hex strings were computed before the walk
   moved into [Netlist.postorder]. *)
let test_digest_pinned () =
  let key net =
    Cache_key.digest ~net ~process:Process.default ~mode:Version.default_mode ~penalty:0.05
      ~method_:Optimizer.Heuristic_1
  in
  let c17 =
    let path =
      List.find Sys.file_exists [ Filename.concat "../data" "c17.bench"; "data/c17.bench" ]
    in
    match Bench_io.read_file path with Ok net -> net | Error msg -> Alcotest.fail msg
  in
  check Alcotest.string "data/c17.bench" "c88f52331547cc1d5e959247300c5d43" (key c17);
  check Alcotest.string "built-in c432" "1f3d12bef5370a76fb5db7d515e27b25"
    (key (Benchmarks.circuit "c432"))

let () =
  Alcotest.run "standby.service"
    [
      ("manifest", [ quick "parse" test_manifest_parse; quick "errors" test_manifest_errors ]);
      ( "cache-key",
        [
          quick "canonical invariance" test_canonical_invariance;
          quick "digest sensitivity" test_digest_sensitivity;
          quick "pinned digests" test_digest_pinned;
          quick "canonical matches printf on the stand-ins" test_canonical_oracle_standins;
          QCheck_alcotest.to_alcotest test_canonical_oracle_random;
        ] );
      ( "source-memo",
        [
          quick "keys on first sight, repeat and after eviction" test_memo_keys;
          quick "refusals and oversized texts are not stored" test_memo_refusals;
          quick "threads share one memo" test_memo_threads;
        ] );
      ( "result-store",
        [
          quick "roundtrip, corruption, clear" test_store_roundtrip;
          quick "lru eviction under a cap" test_store_lru;
          quick "retired line format reads as corrupt" test_store_retired_format;
        ] );
      ( "pool",
        [ quick "map" test_pool_map; quick "submit and wait" test_pool_submit_wait ] );
      ( "assignment-io",
        [
          quick "roundtrip" test_assignment_roundtrip;
          quick "rejects bad payloads" test_assignment_rejects;
        ] );
      ("degradation", [ quick "deadline flag" test_degraded_flag ]);
      ( "engine",
        [
          quick "compute then cache" test_engine_cache_flow;
          quick "failure isolation" test_engine_failure;
        ] );
    ]
