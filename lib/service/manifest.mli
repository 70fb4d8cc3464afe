(** Batch job manifests.

    A manifest describes a set of optimization jobs — the shape of the
    paper's evaluation (every circuit x every delay constraint x several
    methods) and of an industrial leakage-recovery flow (many blocks,
    each under a wall-clock budget).  The format is a small INI dialect:

    {v
    # comment lines start with '#'
    [defaults]            # optional; applies to the jobs that follow
    library = 4opt
    method = heu1
    penalty = 0.05
    deadline = 60

    [job c432-tight]
    circuit = c432        # built-in benchmark, or: file = path.bench|.v
    penalty = 0.02
    method = exact
    v}

    Recognized keys: [circuit] or [file] (exactly one per job),
    [library] (a {!Standby_cells.Version.mode_tokens} token), [method] (a
    {!Standby_opt.Optimizer.method_token}), [time-limit] (seconds:
    the heu2/hc limit and the greedy/partition budget), [rounds]
    (hill-climbing rounds), [regions] (partition regions, 0 =
    automatic), [penalty] (delay penalty fraction), [deadline] (wall-clock seconds; jobs that blow it
    return their best incumbent marked degraded), [process] (a
    {!Standby_device.Process_config} override file).  Relative [file]
    and [process] paths resolve against the manifest's directory. *)

type source =
  | Builtin of string  (** A {!Standby_circuits.Benchmarks} name. *)
  | File of string  (** A [.bench] or gate-level [.v] netlist path. *)

type job = {
  id : string;  (** The [job] section name; unique within a manifest. *)
  source : source;
  mode : Standby_cells.Version.mode;
  method_ : Standby_opt.Optimizer.method_;
  penalty : float;
  deadline_s : float option;
  process_file : string option;
}

val source_name : source -> string

val parse : ?dir:string -> string -> (job list, string) result
(** Parse manifest text.  Errors carry a line number.  [dir] anchors
    relative [file]/[process] paths (default ["."]). *)

val load_file : string -> (job list, string) result
(** Parse a manifest file; relative paths resolve against its
    directory. *)
