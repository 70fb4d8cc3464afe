(** Circuit-level standby leakage evaluation.

    Sums the pre-characterized per-cell leakage over all gates for a
    given solution; also provides the baselines' figures of merit — the
    fast-library leakage of a vector and the average over random vectors
    (the paper's "no technique" reference column).

    The random-vector averages run on {!Standby_sim.Bitsim}: one pass
    simulates the vectors 63 per word and keeps exact integer totals,
    from which every gate's lane count per input state follows
    ({!random_state_counts}).  Vectors come in fixed 63-lane blocks,
    each block drawing from its own PRNG stream ([seed + block]); block
    ranges run on worker domains and merge by integer addition, so the
    counts, and every average reduced from them, are bit-identical for
    any [jobs].  A reduction weighs the counts against the library's
    per-state tables once, in gate and state order: the fast tables give
    the reference ({!fast_average}), the all-slow tables the 100 %-penalty
    fallback ({!slowest_average}), from the same counts. *)

type breakdown = {
  total : float;  (** Amperes. *)
  isub : float;
  igate : float;
}

val of_assignment :
  Standby_cells.Library.t -> Standby_netlist.Netlist.t -> Assignment.t -> breakdown
(** Leakage of a complete solution. *)

val fast_vector :
  Standby_cells.Library.t -> Standby_netlist.Netlist.t -> bool array -> breakdown
(** Leakage with the given sleep vector and every gate fast (the
    state-assignment-only figure for that vector). *)

val random_state_counts :
  ?vectors:int -> ?jobs:int -> seed:int -> Standby_netlist.Netlist.t -> Standby_sim.Bitsim.counts
(** Per-(gate, input state) lane counts over random input vectors
    (default 10_000, the paper's setting), on the packed engine.  [jobs]
    > 1 spreads the vector blocks over that many worker domains; the
    counts are identical to [jobs = 1].  Traced as the
    [bitsim.random_average] span.
    @raise Invalid_argument if [vectors <= 0]. *)

val fast_average :
  Standby_cells.Library.t -> Standby_netlist.Netlist.t -> Standby_sim.Bitsim.counts -> breakdown
(** Mean fast-library leakage over the counted vectors. *)

val slowest_average :
  Standby_cells.Library.t -> Standby_netlist.Netlist.t -> Standby_sim.Bitsim.counts -> breakdown
(** Mean leakage over the counted vectors with every gate replaced by
    its all-high-Vt/all-thick fallback (the Figure 5 100 %-penalty
    reference).  The breakdown reports the total only ([isub]/[igate]
    are 0). *)

val random_vector_average :
  ?vectors:int ->
  ?jobs:int ->
  seed:int ->
  Standby_cells.Library.t ->
  Standby_netlist.Netlist.t ->
  breakdown
(** [fast_average] of [random_state_counts]: the mean fast-library
    leakage over random input vectors.
    @raise Invalid_argument if [vectors <= 0]. *)

val random_vector_average_scalar :
  ?vectors:int ->
  seed:int ->
  Standby_cells.Library.t ->
  Standby_netlist.Netlist.t ->
  breakdown
(** The scalar reference path: the exact same vector set as
    {!random_vector_average} for the same [seed], evaluated one vector
    at a time through {!Standby_sim.Simulator.eval}.  Kept as the oracle
    the packed engine is tested and benchmarked against; agreement is
    within float-summation reassociation (≤ 1e-9 relative). *)

val slowest_vector :
  Standby_cells.Library.t -> Standby_netlist.Netlist.t -> bool array -> breakdown
(** Leakage of one vector with every gate replaced by its
    all-high-Vt/all-thick fallback.  The breakdown reports the total
    only ([isub]/[igate] are 0). *)
