(** Leveled, structured, domain-safe logging.

    One process-global logger: a severity threshold, a list of sinks and
    a mutex serializing emission across domains.  Call sites attach
    machine-readable key/value fields next to the human message, so the
    same line can feed both a terminal and a JSONL file.

    The default configuration writes human-readable lines to [stderr] at
    [Info]. *)

type level = Error | Warn | Info | Debug

val level_name : level -> string

val level_of_string : string -> (level, string) result
(** Case-insensitive; accepts error|warn|warning|info|debug. *)

type field = string * Json.t

(** Field constructors. *)

val str : string -> string -> field

val int : string -> int -> field

val float : string -> float -> field

type sink = level -> ts:float -> msg:string -> fields:field list -> unit
(** A sink receives every record that passes the threshold.  [ts] is
    wall-clock seconds (for display; budgets use the monotonic clock).
    Sinks run under the logger mutex — they need no locking of their
    own, and must not log reentrantly. *)

val stderr_sink : sink
(** ["HH:MM:SS.mmm LEVEL message key=value ..."] on [stderr]. *)

val jsonl_sink : out_channel -> sink
(** One JSON object per line:
    [{"ts":…,"level":"info","msg":…,"fields":{…}}].  Flushes after
    every line; the caller owns the channel. *)

val set_level : level -> unit

val get_level : unit -> level

val set_sinks : sink list -> unit
(** Replace all sinks (the default is [[stderr_sink]]). *)

val err : ?fields:field list -> ('a, unit, string, unit) format4 -> 'a

val warn : ?fields:field list -> ('a, unit, string, unit) format4 -> 'a

val info : ?fields:field list -> ('a, unit, string, unit) format4 -> 'a

val debug : ?fields:field list -> ('a, unit, string, unit) format4 -> 'a

val enabled : level -> bool
(** Would a record at this level currently be emitted?  For guarding
    expensive field construction. *)
