module Version = Standby_cells.Version
module Optimizer = Standby_opt.Optimizer

type source = Builtin of string | File of string

type job = {
  id : string;
  source : source;
  mode : Version.mode;
  method_ : Optimizer.method_;
  penalty : float;
  deadline_s : float option;
  process_file : string option;
}

let source_name = function Builtin name -> name | File path -> Filename.basename path

(* Per-job settings accumulated while scanning a section; [None] falls
   back to the defaults section, then to built-in defaults. *)
type settings = {
  circuit : string option;
  file : string option;
  library : Version.mode option;
  method_name : string option;
  time_limit : float option;
  rounds : int option;
  regions : int option;
  penalty : float option;
  deadline : float option;
  process : string option;
}

let empty_settings =
  {
    circuit = None;
    file = None;
    library = None;
    method_name = None;
    time_limit = None;
    rounds = None;
    regions = None;
    penalty = None;
    deadline = None;
    process = None;
  }

let fallback job defaults =
  let pick a b = match a with Some _ -> a | None -> b in
  {
    circuit = job.circuit;
    file = job.file;
    library = pick job.library defaults.library;
    method_name = pick job.method_name defaults.method_name;
    time_limit = pick job.time_limit defaults.time_limit;
    rounds = pick job.rounds defaults.rounds;
    regions = pick job.regions defaults.regions;
    penalty = pick job.penalty defaults.penalty;
    deadline = pick job.deadline defaults.deadline;
    process = pick job.process defaults.process;
  }

let build_method s =
  let d = Optimizer.default_params in
  Optimizer.method_of_token
    (Option.value s.method_name ~default:(Optimizer.method_token Optimizer.Heuristic_1))
    {
      Optimizer.time_limit_s = Option.value s.time_limit ~default:d.Optimizer.time_limit_s;
      rounds = Option.value s.rounds ~default:d.Optimizer.rounds;
      regions = Option.value s.regions ~default:d.Optimizer.regions;
    }

let finish_job ~dir ~line id s defaults =
  let s = fallback s defaults in
  let err fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt in
  let resolve path = if Filename.is_relative path then Filename.concat dir path else path in
  match (s.circuit, s.file) with
  | None, None -> err "job %S needs 'circuit = NAME' or 'file = PATH'" id
  | Some _, Some _ -> err "job %S sets both 'circuit' and 'file'" id
  | circuit, file -> (
    let source =
      match (circuit, file) with
      | Some name, None -> Builtin name
      | None, Some path -> File (resolve path)
      | _ -> assert false
    in
    match build_method s with
    | Error m -> err "job %S: %s" id m
    | Ok method_ -> (
      let penalty = Option.value s.penalty ~default:0.05 in
      if penalty < 0.0 then err "job %S: negative penalty" id
      else
        match s.deadline with
        | Some d when d <= 0.0 -> err "job %S: deadline must be positive" id
        | deadline_s ->
          Ok
            {
              id;
              source;
              mode = Option.value s.library ~default:Version.default_mode;
              method_;
              penalty;
              deadline_s;
              process_file = Option.map resolve s.process;
            }))

let parse_key_value ~line key value s =
  let err fmt = Printf.ksprintf (fun m -> Error (Printf.sprintf "line %d: %s" line m)) fmt in
  let float_value () =
    match float_of_string_opt value with
    | Some f -> Ok f
    | None -> err "malformed number %S for key %S" value key
  in
  let int_value () =
    match int_of_string_opt value with
    | Some i -> Ok i
    | None -> err "malformed integer %S for key %S" value key
  in
  match key with
  | "circuit" -> Ok { s with circuit = Some value }
  | "file" -> Ok { s with file = Some value }
  | "library" -> (
    match Version.mode_of_token value with
    | Ok mode -> Ok { s with library = Some mode }
    | Error m -> err "%s" m)
  | "method" -> (
    match Optimizer.method_of_token value Optimizer.default_params with
    | Ok _ -> Ok { s with method_name = Some value }
    | Error m -> err "%s" m)
  | "time-limit" -> Result.map (fun f -> { s with time_limit = Some f }) (float_value ())
  | "rounds" -> Result.map (fun i -> { s with rounds = Some i }) (int_value ())
  | "regions" -> Result.map (fun i -> { s with regions = Some i }) (int_value ())
  | "penalty" -> Result.map (fun f -> { s with penalty = Some f }) (float_value ())
  | "deadline" -> Result.map (fun f -> { s with deadline = Some f }) (float_value ())
  | "process" -> Ok { s with process = Some value }
  | _ ->
    err "unknown key %S (circuit, file, library, method, time-limit, rounds, regions, \
         penalty, deadline, process)"
      key

(* Scanner state: where keys currently land. *)
type section = Toplevel | Defaults | Job of { id : string; line : int; settings : settings }

let parse ?(dir = ".") source =
  let lines = String.split_on_char '\n' source in
  let strip line =
    let line = match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    String.trim line
  in
  let finish section defaults acc =
    match section with
    | Toplevel | Defaults -> Ok acc
    | Job { id; line; settings } ->
      Result.map (fun job -> job :: acc) (finish_job ~dir ~line id settings defaults)
  in
  let step (section, defaults, seen, acc) (line_no, raw) =
    let line = strip raw in
    if line = "" then Ok (section, defaults, seen, acc)
    else if String.length line > 1 && line.[0] = '[' then begin
      if line.[String.length line - 1] <> ']' then
        Error (Printf.sprintf "line %d: unterminated section header" line_no)
      else
        let header = String.trim (String.sub line 1 (String.length line - 2)) in
        Result.bind (finish section defaults acc) (fun acc ->
            if header = "defaults" then Ok (Defaults, defaults, seen, acc)
            else
              match String.index_opt header ' ' with
              | Some i when String.sub header 0 i = "job" ->
                let id = String.trim (String.sub header i (String.length header - i)) in
                if id = "" then Error (Printf.sprintf "line %d: empty job name" line_no)
                else if List.mem id seen then
                  Error (Printf.sprintf "line %d: duplicate job %S" line_no id)
                else
                  Ok
                    ( Job { id; line = line_no; settings = empty_settings },
                      defaults, id :: seen, acc )
              | _ ->
                Error
                  (Printf.sprintf "line %d: expected [defaults] or [job NAME], got [%s]"
                     line_no header))
    end
    else
      match String.index_opt line '=' with
      | None -> Error (Printf.sprintf "line %d: expected 'key = value'" line_no)
      | Some i ->
        let key = String.trim (String.sub line 0 i) in
        let value = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
        (match section with
         | Toplevel ->
           Error (Printf.sprintf "line %d: key outside a [defaults] or [job] section" line_no)
         | Defaults ->
           if key = "circuit" || key = "file" then
             Error (Printf.sprintf "line %d: %S is not allowed in [defaults]" line_no key)
           else
             Result.map
               (fun defaults -> (Defaults, defaults, seen, acc))
               (parse_key_value ~line:line_no key value defaults)
         | Job j ->
           Result.map
             (fun settings -> (Job { j with settings }, defaults, seen, acc))
             (parse_key_value ~line:line_no key value j.settings))
  in
  let numbered = List.mapi (fun i l -> (i + 1, l)) lines in
  let scan =
    List.fold_left
      (fun acc line -> Result.bind acc (fun state -> step state line))
      (Ok (Toplevel, empty_settings, [], []))
      numbered
  in
  Result.bind scan (fun (section, defaults, _, acc) ->
      Result.bind (finish section defaults acc) (fun acc ->
          match List.rev acc with
          | [] -> Error "manifest defines no jobs"
          | jobs -> Ok jobs))

let load_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | source -> parse ~dir:(Filename.dirname path) source
  | exception Sys_error msg -> Error msg
