(** Render a parsed trace ({!Standby_telemetry.Trace}) for the terminal:
    the per-span wall/self-time table and the incumbent-improvement
    trajectory behind [standbyopt trace summarize]. *)

val render : Standby_telemetry.Trace.record list -> string
(** Both views plus a one-line record census. *)

val render_merged : Standby_telemetry.Trace.record list -> string
(** The assembled cross-process forest ({!Standby_telemetry.Trace.assemble}:
    one line per span with wall and self time, children indented under
    their possibly remote parents, each hop labelled role/pid, one block
    per trace id), then the aggregate views — the output of
    [standbyopt trace summarize --merge]. *)
