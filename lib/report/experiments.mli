(** Reproduction of every table and figure in the paper's evaluation.

    Each function renders one artifact as text (and optionally CSV for
    the figures), using the same machinery end to end: characterized
    libraries per mode, the benchmark suite, the heuristics and the
    baselines.  DESIGN.md carries the experiment index; EXPERIMENTS.md
    records paper-vs-measured values produced by these functions. *)

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

val table1 : t -> string
(** NAND2 delay/leakage trade-offs per input state (paper Table 1). *)

val table2 : t -> string
(** Library cell counts, 4 vs 2 trade-off points (paper Table 2). *)

val table3 : t -> string
(** Heuristic 1 vs Heuristic 2 at 5/10/25 % delay penalties (Table 3). *)

val table4 : t -> string
(** Proposed approach vs state-only and Vt+state (Table 4). *)

val table5 : t -> string
(** Library options: 4/2 trade-off points, individual/uniform stacks
    (Table 5). *)

val figure1 : t -> string
(** Inverter leakage components per input state (Figure 1). *)

val figure2 : t -> string
(** Minimal Vt/Tox assignments for NOR2/NAND2 states, including the
    pin-reordering case (Figure 2). *)

val figure3 : t -> string
(** The generated NAND2 cell versions and which states share them
    (Figure 3). *)

val figure4 : t -> string
(** State-tree x gate-tree search statistics on a small circuit, exact
    vs heuristics (Figure 4). *)

val figure5 : ?csv_path:string -> t -> string
(** Leakage vs delay-penalty sweep for c7552 (Figure 5); optionally
    writes the series as CSV. *)

val ablation : t -> string
(** Knock-out study of the design choices DESIGN.md calls out: bound
    ordering, pin reordering, gate-tree order. *)

val artifacts : (string * (t -> string)) list
(** Every artifact in paper order, [(id, renderer)]: the one table behind
    [standbyopt report].  The [figure5] renderer also writes its series
    to [figure5.csv] in the working directory. *)

val all : t -> (string * string) list
(** Every artifact of {!artifacts} rendered: [(id, rendered)]. *)
