(** Running statistics over a stream of floats (Welford's algorithm) and
    small helpers over float arrays.  The benchmark harness takes its
    geometric-mean reduction factors here. *)

type t
(** Accumulator; mutable. *)

val create : unit -> t

val add : t -> float -> unit
(** Fold one observation into the accumulator. *)

val count : t -> int

val mean : t -> float
(** Mean of the observations; 0 when empty. *)

val variance : t -> float
(** Unbiased sample variance; 0 with fewer than two observations. *)

val min_value : t -> float
(** Smallest observation.  @raise Invalid_argument when empty. *)

val max_value : t -> float
(** Largest observation.  @raise Invalid_argument when empty. *)

val mean_of_array : float array -> float
(** Mean of a non-empty array.  @raise Invalid_argument when empty. *)

val geometric_mean : float array -> float
(** Geometric mean of positive values.  @raise Invalid_argument when empty
    or when any value is non-positive. *)
