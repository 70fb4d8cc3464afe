module Timer = Standby_util.Timer

type level = Error | Warn | Info | Debug

let severity = function Error -> 0 | Warn -> 1 | Info -> 2 | Debug -> 3

let level_name = function Error -> "error" | Warn -> "warn" | Info -> "info" | Debug -> "debug"

let level_of_string s =
  match String.lowercase_ascii s with
  | "error" -> Ok Error
  | "warn" | "warning" -> Ok Warn
  | "info" -> Ok Info
  | "debug" -> Ok Debug
  | other -> Error (Printf.sprintf "unknown log level %S (error|warn|info|debug)" other)

type field = string * Json.t

let str k v = (k, Json.String v)
let int k v = (k, Json.Int v)
let float k v = (k, Json.Float v)

type sink = level -> ts:float -> msg:string -> fields:field list -> unit

let render_clock ts =
  let tm = Unix.gmtime ts in
  let ms = int_of_float (Float.rem ts 1.0 *. 1000.0) in
  Printf.sprintf "%02d:%02d:%02d.%03d" tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec ms

let stderr_sink level ~ts ~msg ~fields =
  let rendered_fields =
    match fields with
    | [] -> ""
    | fields ->
      " "
      ^ String.concat " "
          (List.map
             (fun (k, v) ->
               k ^ "="
               ^ (match v with Json.String s -> s | other -> Json.to_string other))
             fields)
  in
  Printf.eprintf "%s %-5s %s%s\n%!" (render_clock ts)
    (String.uppercase_ascii (level_name level))
    msg rendered_fields

let jsonl_sink oc level ~ts ~msg ~fields =
  let record =
    Json.Obj
      [
        ("ts", Json.Float ts);
        ("level", Json.String (level_name level));
        ("msg", Json.String msg);
        ("fields", Json.Obj fields);
      ]
  in
  output_string oc (Json.to_string record);
  output_char oc '\n';
  flush oc

(* Process-global state.  The threshold is read lock-free on the hot
   path; sink mutation and emission share the mutex. *)
let mutex = Mutex.create ()
let threshold = Atomic.make (severity Info)
let sinks : sink list ref = ref [ stderr_sink ]

let set_level level = Atomic.set threshold (severity level)

let get_level () =
  match Atomic.get threshold with
  | 0 -> Error
  | 1 -> Warn
  | 2 -> Info
  | _ -> Debug

let enabled level = severity level <= Atomic.get threshold

let set_sinks new_sinks =
  Mutex.lock mutex;
  sinks := new_sinks;
  Mutex.unlock mutex

let emit level fields msg =
  if enabled level then begin
    let ts = Timer.wall_now () in
    Mutex.lock mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock mutex)
      (fun () -> List.iter (fun sink -> sink level ~ts ~msg ~fields) !sinks)
  end

let err ?(fields = []) fmt = Printf.ksprintf (emit Error fields) fmt
let warn ?(fields = []) fmt = Printf.ksprintf (emit Warn fields) fmt
let info ?(fields = []) fmt = Printf.ksprintf (emit Info fields) fmt
let debug ?(fields = []) fmt = Printf.ksprintf (emit Debug fields) fmt
