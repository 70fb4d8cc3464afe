(** Small helpers over float arrays.  The benchmark harness takes its
    geometric-mean reduction factors here. *)

val geometric_mean : float array -> float
(** Geometric mean of positive values.  @raise Invalid_argument when empty
    or when any value is non-positive. *)
