module Json = Standby_telemetry.Json
module Metrics = Standby_telemetry.Metrics

let m_hits = Metrics.counter Metrics.default "result_store.hits" ~help:"Cache entries served"
let m_misses =
  Metrics.counter Metrics.default "result_store.misses" ~help:"Keys with no cache entry"
let m_corrupt =
  Metrics.counter Metrics.default "result_store.corrupt"
    ~help:"Entries rejected as unreadable or inconsistent"
let m_evictions =
  Metrics.counter Metrics.default "cache.evictions"
    ~help:"Entries evicted to keep the store under its size cap"
let m_remote_hits =
  Metrics.counter Metrics.default "cache.remote_hits"
    ~help:"Local misses answered by a peer store (shared tier)"
let m_remote_misses =
  Metrics.counter Metrics.default "cache.remote_misses"
    ~help:"Local misses the shared tier could not answer either"
let m_publishes =
  Metrics.counter Metrics.default "cache.publishes"
    ~help:"Fresh entries offered to peer stores"

let note_corrupt () = Metrics.incr m_corrupt

type entry = {
  method_name : string;
  penalty : float;
  budget : float;
  delay : float;
  delay_fast : float;
  delay_slow : float;
  total : float;
  isub : float;
  igate : float;
  runtime_s : float;
  assignment : string;
}

(* The shared tier is injected as plain closures: the store lives below
   the wire-protocol layer in the dependency order, so the peer client
   (standby.cluster's [Cache_tier]) hands fetch/publish down instead of
   being linked up. *)
type remote = {
  fetch : key:string -> entry option;
  publish : key:string -> entry -> unit;
}

type t = {
  dir : string;
  max_entries : int option;
  store_mutex : Mutex.t;
  mutable remote : remote option;
}

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let create ?max_entries ~dir () =
  (match max_entries with
   | Some n when n < 1 -> invalid_arg "Result_store.create: max_entries must be positive"
   | _ -> ());
  mkdir_p dir;
  if not (Sys.is_directory dir) then
    raise (Sys_error (Printf.sprintf "cache path %s is not a directory" dir));
  { dir; max_entries; store_mutex = Mutex.create (); remote = None }

let max_entries t = t.max_entries

let dir t = t.dir

(* Install before serving starts; worker domains only read it. *)
let set_remote t remote = t.remote <- remote

let default_dir () =
  match Sys.getenv_opt "STANDBYOPT_CACHE_DIR" with
  | Some dir when dir <> "" -> dir
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some base when base <> "" -> Filename.concat base "standbyopt"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some home when home <> "" ->
        Filename.concat (Filename.concat home ".cache") "standbyopt"
      | _ -> "_standbyopt_cache"))

let valid_key key =
  key <> "" && String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) key

let path t ~key = Filename.concat t.dir (key ^ ".result")

(* An entry as JSON members: a store file holds exactly this object, and
   the cache-put/cache-found frames carry the same members after their
   header.  Floats print at %.17g, so decoding returns the entry
   bit-identical. *)
let entry_members e =
  [
    ("method", Json.String e.method_name);
    ("penalty", Json.Float e.penalty);
    ("budget", Json.Float e.budget);
    ("delay", Json.Float e.delay);
    ("delay_fast", Json.Float e.delay_fast);
    ("delay_slow", Json.Float e.delay_slow);
    ("total", Json.Float e.total);
    ("isub", Json.Float e.isub);
    ("igate", Json.Float e.igate);
    ("runtime_s", Json.Float e.runtime_s);
    ("assignment", Json.String e.assignment);
  ]

let entry_of_json json =
  let ( let* ) = Result.bind in
  let field conv kind name =
    match Option.bind (Json.member name json) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or non-%s %S field" kind name)
  in
  let str = field Json.to_string_opt "string" and num = field Json.to_float_opt "numeric" in
  let* method_name = str "method" in
  let* penalty = num "penalty" in
  let* budget = num "budget" in
  let* delay = num "delay" in
  let* delay_fast = num "delay_fast" in
  let* delay_slow = num "delay_slow" in
  let* total = num "total" in
  let* isub = num "isub" in
  let* igate = num "igate" in
  let* runtime_s = num "runtime_s" in
  let* assignment = str "assignment" in
  Ok
    {
      method_name; penalty; budget; delay; delay_fast; delay_slow; total; isub; igate;
      runtime_s; assignment;
    }

let find_local t ~key =
  if not (valid_key key) then None
  else
    let file = path t ~key in
    match In_channel.with_open_text file In_channel.input_all with
    | text -> (
      match Result.bind (Json.of_string text) entry_of_json with
      | Ok entry ->
        Metrics.incr m_hits;
        (* Freshen the file so LRU eviction tracks access order, not
           just write order.  Best-effort: a raced eviction only costs a
           future recompute. *)
        (try Unix.utimes file 0.0 0.0 with Unix.Unix_error _ -> ());
        Some entry
      | Error _ ->
        (* The file exists but does not decode: corruption, not a
           mere miss. *)
        Metrics.incr m_corrupt;
        None)
    | exception Sys_error _ ->
      Metrics.incr m_misses;
      None

(* Entries (name, mtime) oldest-first; ties break on the name so the
   order is total. *)
let entries_by_age t =
  let names = try Sys.readdir t.dir with Sys_error _ -> [||] in
  let aged =
    Array.to_list names
    |> List.filter_map (fun name ->
           if not (Filename.check_suffix name ".result") then None
           else
             match Unix.stat (Filename.concat t.dir name) with
             | st -> Some (name, st.Unix.st_mtime)
             | exception Unix.Unix_error _ -> None)
  in
  List.sort
    (fun (na, ta) (nb, tb) ->
      match Float.compare ta tb with 0 -> String.compare na nb | c -> c)
    aged

(* Drop least-recently-used entries until the store fits its cap.
   Called after every write; the directory scan is O(entries), which a
   long-lived daemon amortizes against an optimizer run per store. *)
let evict_over_cap t =
  match t.max_entries with
  | None -> ()
  | Some cap ->
    let aged = entries_by_age t in
    let excess = List.length aged - cap in
    if excess > 0 then
      List.iteri
        (fun i (name, _) ->
          if i < excess then begin
            (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
            Metrics.incr m_evictions
          end)
        aged

let store_local t ~key entry =
  if not (valid_key key) then invalid_arg "Result_store.store: malformed key";
  let file = path t ~key in
  let tmp = Printf.sprintf "%s.tmp.%d" file (Unix.getpid ()) in
  Out_channel.with_open_text tmp (fun oc ->
      Out_channel.output_string oc (Json.to_string (Json.Obj (entry_members entry)));
      Out_channel.output_char oc '\n');
  Sys.rename tmp file;
  (* Serialize the scan-and-evict step across worker domains; without
     the lock two concurrent stores could each count the other's fresh
     file as excess. *)
  Mutex.lock t.store_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.store_mutex) (fun () -> evict_over_cap t)

(* Read-through: a local miss consults the shared tier and writes the
   peer's entry back locally, so a circuit optimized anywhere becomes a
   local hit everywhere it is asked for twice.  Remote failures (dead
   peer, timeout) degrade to a miss — the shared tier can never make a
   lookup fail harder than no tier at all. *)
let find t ~key =
  match find_local t ~key with
  | Some _ as hit -> hit
  | None -> (
    match t.remote with
    | None -> None
    | Some remote -> (
      match (try remote.fetch ~key with _ -> None) with
      | None ->
        Metrics.incr m_remote_misses;
        None
      | Some entry ->
        Metrics.incr m_remote_hits;
        (try store_local t ~key entry with Sys_error _ | Invalid_argument _ -> ());
        Some entry))

let store t ~key entry =
  store_local t ~key entry;
  match t.remote with
  | None -> ()
  | Some { publish; _ } ->
    Metrics.incr m_publishes;
    (try publish ~key entry with _ -> ())

let clear t =
  let removed = ref 0 in
  Array.iter
    (fun name ->
      if Filename.check_suffix name ".result" then begin
        (try Sys.remove (Filename.concat t.dir name) with Sys_error _ -> ());
        incr removed
      end)
    (try Sys.readdir t.dir with Sys_error _ -> [||]);
  !removed
