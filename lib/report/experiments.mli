(** Reproduction of every table and figure in the paper's evaluation.

    Each renderer in {!artifacts} produces one artifact as text (Figure 5
    also as CSV), using the same machinery end to end: characterized
    libraries per mode, the benchmark suite, the heuristics and the
    baselines.  DESIGN.md carries the experiment index; EXPERIMENTS.md
    records paper-vs-measured values produced by these renderers. *)

type config = {
  vectors : int;  (** Random vectors for the average-leakage reference. *)
  heu2_limit_s : float;  (** Heuristic 2 time budget per run. *)
  suite : string list;  (** Benchmark names (subset of {!Standby_circuits.Benchmarks.names}). *)
  seed : int;  (** Seed for the random-vector reference. *)
  jobs : int;
      (** Worker domains for the packed random-vector baseline (the
          result is identical for any value; see
          {!Standby_power.Evaluate.random_vector_average}). *)
}

val default_config : config
(** 10 000 vectors, 2 s Heuristic-2 budget, the full 11-circuit suite. *)

val quick_config : config
(** Trimmed settings for tests and smoke runs. *)

type t
(** Shared experiment context: process, lazily built libraries for every
    mode, memoized circuits and random-vector references. *)

val create : ?config:config -> unit -> t

val config : t -> config

val library : t -> Standby_cells.Library.t
(** The main 4-option library. *)

val circuit : t -> string -> Standby_netlist.Netlist.t

val artifacts : (string * (t -> string)) list
(** Every artifact in paper order, [(id, renderer)]: the one table behind
    [standbyopt report].
    - [table1]: NAND2 delay/leakage trade-offs per input state;
    - [table2]: library cell counts, 4 vs 2 trade-off points;
    - [table3]: Heuristic 1 vs Heuristic 2 at 5/10/25 % delay penalties;
    - [table4]: the proposed approach vs state-only and Vt+state;
    - [table5]: library options, 4/2 trade-off points, individual/uniform
      stacks;
    - [figure1]: inverter leakage components per input state;
    - [figure2]: minimal Vt/Tox assignments for NOR2/NAND2 states,
      including the pin-reordering case;
    - [figure3]: the generated NAND2 versions and the states sharing them;
    - [figure4]: state-tree x gate-tree search statistics on a small
      circuit, exact vs heuristics;
    - [figure5]: leakage vs delay-penalty sweep for c7552, whose series
      is also written to [figure5.csv] in the working directory;
    - [ablation]: knock-out study of the design choices DESIGN.md calls
      out: bound ordering, pin reordering, gate-tree order. *)
