(** Span-based tracing.

    One process-global tracer writes JSONL records to a trace file.
    {!span} wraps a computation: the record carries the span's name, a
    unique id, its parent span (per-thread stacks, so worker-pool
    domains and server connection threads nest independently), the
    wall-clock start, the monotonic duration and free-form fields.
    {!event} marks an instant — e.g. one incumbent improvement inside a
    search.

    When no trace file is installed (the default) the cost of a [span]
    call is one atomic load, so instrumentation stays on in production
    code paths.

    {2 Cross-process traces}

    Span ids are only unique within one process; every record therefore
    carries the emitting [pid] (and the process {!set_role}, when set),
    and the merged-trace identity of a span is the pair [(pid, id)].
    A {!context} — a fleet-unique {!mint_trace_id} plus an optional
    remote parent {!span_ref} — can be installed with {!with_context}:
    spans opened under it carry the trace id, and the outermost such
    span parents onto the remote [parent_pid]/[parent] pair.
    {!current_context} returns what an outgoing request should carry so
    the next hop's spans join the same trace.  Contexts work even when
    the local tracer is off, so an untraced router still forwards the
    client's context to traced backends.

    Record shapes (one JSON object per line):
    {v
    {"type":"meta","version":2,"ts":…,"pid":…,"role":…}
    {"type":"span","name":…,"id":7,"parent":3,"parent_pid":…,
     "trace_id":…,"pid":…,"role":…,"domain":0,
     "ts":…,"dur_s":0.0123,"fields":{…}}
    {"type":"event","name":…,"span":7,"trace_id":…,"pid":…,"role":…,
     "domain":0,"ts":…,"fields":{…}}
    v}

    [parent_pid], [trace_id] and [role] are omitted when they do not
    apply (local parent, no context, no role); {!Trace} defaults
    [parent_pid] to the record's own [pid].

    Spans are written when they {e close}, so children precede their
    parents in the file; {!Trace} reorders. *)

type field = string * Json.t

type span_ref = { pid : int; span : int }
(** A span in some process: the merged-trace identity of a parent. *)

type context = { trace_id : string; parent : span_ref option }
(** What travels on the wire: the trace id minted at the edge, and the
    caller's innermost span at send time (if any). *)

val mint_trace_id : unit -> string
(** A fresh 16-hex-digit trace id, unique across a fleet without
    coordination (splitmix64 over pid ⊕ wall clock ⊕ a counter). *)

val set_role : string -> unit
(** Tag every subsequent record with a process role ("client",
    "router", "server", "batch", …).  Call once at startup. *)

val with_context : context -> (unit -> 'a) -> 'a
(** [with_context ctx f] runs [f] with [ctx] installed for the calling
    thread: spans opened by [f] (and its callees on the same thread)
    carry [ctx.trace_id], and the outermost one parents onto
    [ctx.parent].  Nests; works whether or not tracing is on. *)

val current_context : unit -> context option
(** The context an outgoing request should carry: the innermost
    installed trace id, with the calling thread's innermost open span
    as parent (falling back to the installed context's own parent).
    [None] when no context is installed. *)

val set_trace_file : string -> unit
(** Open (truncate) a trace file and start recording.  Replaces any
    previous trace file (which is closed first). *)

val close_trace : unit -> unit
(** Flush and close; subsequent spans are no-ops.  Idempotent. *)

val tracing : unit -> bool

val span : ?fields:field list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a span.  The record is emitted when
    [f] returns — also on exception, with a ["raised"] field, and the
    exception is re-raised. *)

val add_fields : field list -> unit
(** Attach fields to the innermost open span of the calling thread —
    for results only known at the end, e.g. search-statistics
    snapshots.  No-op when not tracing or outside any span. *)

val event : ?fields:field list -> string -> unit
(** Emit an instantaneous event tied to the current span (if any). *)

val with_trace_file : string -> (unit -> 'a) -> 'a
(** [set_trace_file], run, [close_trace] — even on exception. *)
