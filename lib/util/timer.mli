(** Wall-clock budgets.

    Heuristic 2 searches the state tree "for a preset time limit"; this
    module provides the deadline primitive it polls, plus a simple
    stopwatch for reporting runtimes in the benchmark tables. *)

type t
(** A deadline. *)

val now : unit -> float
(** Monotonic seconds ([clock_gettime CLOCK_MONOTONIC] via a C shim).
    The origin is arbitrary — only differences mean anything — but the
    reading never jumps backwards when the wall clock is stepped, so
    deadlines and span durations stay truthful. *)

val wall_now : unit -> float
(** Wall-clock seconds since the epoch ([Unix.gettimeofday]) — for
    human-readable timestamps in logs and traces, never for budgets. *)

val start : limit_s:float -> t
(** [start ~limit_s] begins a budget of [limit_s] seconds from now.  A
    non-positive limit is an already-expired budget. *)

val unlimited : unit -> t
(** A budget that never expires. *)

val expired : t -> bool
(** Has the budget run out? *)

val earliest : t -> t -> t
(** The budget whose absolute deadline comes first — used to combine a
    method's own time limit with an externally imposed job deadline. *)

val elapsed_s : t -> float
(** Seconds since [start]. *)

val time : (unit -> 'a) -> 'a * float
(** [time f] runs [f ()] and also returns its wall-clock duration in
    seconds. *)
