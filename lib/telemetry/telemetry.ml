module Timer = Standby_util.Timer

type field = string * Json.t

type span_ref = { pid : int; span : int }
type context = { trace_id : string; parent : span_ref option }

(* An open span on some thread's stack.  [fields] is mutated by
   [add_fields] only from the owning thread — no lock needed.  The
   cross-process identity ([trace_id], remote parent) is captured at
   open time so emission never has to re-read thread-local state. *)
type open_span = {
  id : int;
  name : string;
  start_mono : float;
  start_wall : float;
  parent : int option;
  parent_pid : int option;
  trace_id : string option;
  mutable fields : field list;
}

(* Tracer state: the [active] flag is the lock-free fast path; the
   channel is only touched under [mutex]. *)
let active = Atomic.make false
let mutex = Mutex.create ()
let channel : out_channel option ref = ref None
let next_id = Atomic.make 1

(* Process identity stamped on every record.  Span ids are only unique
   within one process; (pid, id) is the merged-trace identity. *)
let own_pid = Unix.getpid ()
let role_ref : string option ref = ref None
let set_role r = role_ref := Some r

(* Span stacks and trace contexts are per (domain, thread), not per
   domain: the serving layers handle connections on sibling threads of
   domain 0, and a DLS-only stack would interleave their spans into one
   bogus ancestry.  Entries are dropped as soon as both stacks empty so
   thread churn does not grow the table. *)
type tls = { mutable spans : open_span list; mutable contexts : context list }

let tls_mutex = Mutex.create ()
let tls_table : (int * int, tls) Hashtbl.t = Hashtbl.create 64

let domain_id () = (Domain.self () :> int)
let tls_key () = (domain_id (), Thread.id (Thread.self ()))

let get_tls () =
  let key = tls_key () in
  Mutex.lock tls_mutex;
  let t =
    match Hashtbl.find_opt tls_table key with
    | Some t -> t
    | None ->
      let t = { spans = []; contexts = [] } in
      Hashtbl.add tls_table key t;
      t
  in
  Mutex.unlock tls_mutex;
  t

let drop_tls_if_empty t =
  if t.spans = [] && t.contexts = [] then begin
    let key = tls_key () in
    Mutex.lock tls_mutex;
    (match Hashtbl.find_opt tls_table key with
     | Some t' when t' == t -> Hashtbl.remove tls_table key
     | _ -> ());
    Mutex.unlock tls_mutex
  end

let current_context_of t = match t.contexts with [] -> None | c :: _ -> Some c

let with_context ctx f =
  let t = get_tls () in
  t.contexts <- ctx :: t.contexts;
  Fun.protect
    ~finally:(fun () ->
      (match t.contexts with
       | c :: rest when c == ctx -> t.contexts <- rest
       | _ -> t.contexts <- List.filter (fun c -> c != ctx) t.contexts);
      drop_tls_if_empty t)
    f

let current_context () =
  let t = get_tls () in
  let result =
    match current_context_of t with
    | None -> None
    | Some ctx ->
      let parent =
        match t.spans with
        | s :: _ -> Some { pid = own_pid; span = s.id }
        | [] -> ctx.parent
      in
      Some { trace_id = ctx.trace_id; parent }
  in
  drop_tls_if_empty t;
  result

(* splitmix64 step over pid ⊕ wall-clock ⊕ a process counter: unique
   enough across a fleet without coordination, stable format (16 hex). *)
let trace_counter = Atomic.make 0

let mint_trace_id () =
  let open Int64 in
  let seed =
    logxor
      (mul (of_int own_pid) 0x9E3779B97F4A7C15L)
      (logxor
         (bits_of_float (Timer.wall_now ()))
         (mul (of_int (Atomic.fetch_and_add trace_counter 1)) 0xBF58476D1CE4E5B9L))
  in
  let z = add seed 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  Printf.sprintf "%016Lx" (logxor z (shift_right_logical z 31))

let write_line json =
  Mutex.lock mutex;
  (match !channel with
   | Some oc ->
     output_string oc (Json.to_string json);
     output_char oc '\n';
     flush oc
   | None -> ());
  Mutex.unlock mutex

let tracing () = Atomic.get active

let close_trace () =
  Mutex.lock mutex;
  Atomic.set active false;
  (match !channel with
   | Some oc ->
     channel := None;
     close_out_noerr oc
   | None -> ());
  Mutex.unlock mutex

let identity_fields () =
  ("pid", Json.Int own_pid)
  :: (match !role_ref with Some r -> [ ("role", Json.String r) ] | None -> [])

let set_trace_file path =
  close_trace ();
  let oc = open_out path in
  Mutex.lock mutex;
  channel := Some oc;
  Atomic.set active true;
  Mutex.unlock mutex;
  write_line
    (Json.Obj
       ([
          ("type", Json.String "meta");
          ("version", Json.Int 2);
          ("ts", Json.Float (Timer.wall_now ()));
        ]
       @ identity_fields ()))

let emit_span span dur_s =
  write_line
    (Json.Obj
       ([
          ("type", Json.String "span");
          ("name", Json.String span.name);
          ("id", Json.Int span.id);
          ("parent", match span.parent with Some p -> Json.Int p | None -> Json.Null);
        ]
       @ (match span.parent_pid with
          | Some p when p <> own_pid -> [ ("parent_pid", Json.Int p) ]
          | _ -> [])
       @ (match span.trace_id with
          | Some tid -> [ ("trace_id", Json.String tid) ]
          | None -> [])
       @ identity_fields ()
       @ [
           ("domain", Json.Int (domain_id ()));
           ("ts", Json.Float span.start_wall);
           ("dur_s", Json.Float dur_s);
           ("fields", Json.Obj (List.rev span.fields));
         ]))

let span ?(fields = []) name f =
  if not (tracing ()) then f ()
  else begin
    let t = get_tls () in
    let ctx = current_context_of t in
    let parent, parent_pid =
      match t.spans with
      | s :: _ -> (Some s.id, None)
      | [] -> (
        match ctx with
        | Some { parent = Some r; _ } -> (Some r.span, Some r.pid)
        | _ -> (None, None))
    in
    let span =
      {
        id = Atomic.fetch_and_add next_id 1;
        name;
        start_mono = Timer.now ();
        start_wall = Timer.wall_now ();
        parent;
        parent_pid;
        trace_id = (match ctx with Some c -> Some c.trace_id | None -> None);
        fields = List.rev fields;
      }
    in
    t.spans <- span :: t.spans;
    let finish ~raised =
      (match t.spans with
       | s :: rest when s.id = span.id -> t.spans <- rest
       | _ -> t.spans <- List.filter (fun s -> s.id <> span.id) t.spans);
      drop_tls_if_empty t;
      if raised then span.fields <- ("raised", Json.Bool true) :: span.fields;
      emit_span span (Timer.now () -. span.start_mono)
    in
    match f () with
    | result ->
      finish ~raised:false;
      result
    | exception e ->
      finish ~raised:true;
      raise e
  end

let add_fields fields =
  if tracing () then begin
    let t = get_tls () in
    (match t.spans with
     | [] -> ()
     | span :: _ -> span.fields <- List.rev_append fields span.fields);
    drop_tls_if_empty t
  end

let event ?(fields = []) name =
  if tracing () then begin
    let t = get_tls () in
    let current = match t.spans with [] -> None | s :: _ -> Some s.id in
    let trace_id =
      match current_context_of t with Some c -> Some c.trace_id | None -> None
    in
    drop_tls_if_empty t;
    write_line
      (Json.Obj
         ([
            ("type", Json.String "event");
            ("name", Json.String name);
            ("span", match current with Some id -> Json.Int id | None -> Json.Null);
          ]
         @ (match trace_id with
            | Some tid -> [ ("trace_id", Json.String tid) ]
            | None -> [])
         @ identity_fields ()
         @ [
             ("domain", Json.Int (domain_id ()));
             ("ts", Json.Float (Timer.wall_now ()));
             ("fields", Json.Obj fields);
           ]))
  end

let with_trace_file path f =
  set_trace_file path;
  Fun.protect ~finally:close_trace f
