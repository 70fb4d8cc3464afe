(** A minimal JSON value, writer and parser.

    The telemetry formats (JSONL traces, metrics exports) need
    machine-readable output and the [trace summarize] command needs to
    read it back; no JSON library is vendored, so this is the small
    shared dialect.  The writer never emits non-JSON tokens: [nan] and
    infinities become [null], so every produced document reparses. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact single-line rendering (no newlines — JSONL-safe). *)

val of_string : string -> (t, string) result
(** Parse one JSON document; trailing garbage (other than whitespace) is
    an error.  Errors carry a byte offset. *)

(** {2 Accessors} — total functions for picking traces apart. *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] otherwise. *)

val to_int_opt : t -> int option
(** [Int] directly, or a [Float] with integral value. *)

val to_float_opt : t -> float option
(** [Float] or [Int]. *)

val to_string_opt : t -> string option

val to_list_opt : t -> t list option

val to_obj_opt : t -> (string * t) list option
