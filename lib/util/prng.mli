(** Deterministic pseudo-random number generation.

    A small SplitMix64 generator with explicit state.  Every stochastic
    component of the library (workload generators, random-vector leakage
    estimation, search tie-breaking) threads one of these states so that
    experiments are reproducible from a seed alone, independently of the
    global [Random] state. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val nth_bits : seed:int -> int -> int
(** [nth_bits ~seed n] is the low 63 bits of draw [n] (from 0) of
    [create ~seed]: [Int64.to_int] of its [(n + 1)]th {!next_int64}.
    Computed directly, without a generator, and allocates nothing. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  @raise Invalid_argument
    if [bound <= 0]. *)

val bool : t -> bool
(** Uniform boolean. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)
