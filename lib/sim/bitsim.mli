(** Word-parallel packed two-valued simulation: 63 vectors per pass.

    Classic parallel-pattern logic simulation.  Every netlist node holds
    one native OCaml [int] whose 63 bits are 63 independent input
    vectors ("lanes"); a gate evaluates all lanes at once with the
    bitwise form of its function (NAND is [lnot (a land b)], and so on),
    so one topological pass costs one machine word per gate instead of
    one array walk per gate per vector.

    The intended consumer is the random-vector leakage reference
    ({!Standby_power.Evaluate.random_vector_average}): vectors are
    processed in fixed {e blocks} of {!lanes}, each block drawing its
    input words from its own PRNG stream derived as [seed + block], so
    block [b]'s 63 vectors are a pure function of [(seed, b)], and a
    scalar oracle can re-derive the exact same vector set lane by lane
    ({!lane_vector}).

    Leakage needs each gate's per-state lane counts, and those come from
    exact integer totals kept over the whole vector set.  {!count_blocks}
    adds, per block, the popcount of every node's word and of the AND of
    every fan-in subset of two or more pins of every gate (N(T) for pin
    subset T); {!counts} recovers the per-state counts once, at the end,
    by inclusion–exclusion: [c(P) = Σ_{T ⊇ P} (-1)^{|T \ P|} N(T)] with
    [N(∅)] the vector count.  Workers that count disjoint block ranges
    {!merge} by integer addition, so the counts are identical for any
    split.  Nothing allocates per block. *)

type t

val lanes : int
(** Vectors evaluated per pass: 63, every bit of a native [int]
    (including the sign bit — words are treated purely as bit vectors,
    never compared arithmetically). *)

val create : Standby_netlist.Netlist.t -> t
(** Preallocates the word array and the totals, all zero. *)

(** {1 Block geometry}

    [vectors] total vectors are covered by blocks of {!lanes}; the last
    block may be partial. *)

val block_count : vectors:int -> int
(** [ceil (vectors / lanes)].  @raise Invalid_argument if
    [vectors <= 0]. *)

val lanes_in_block : vectors:int -> block:int -> int
(** Number of valid lanes in [block] (= {!lanes} except possibly for the
    final block). *)

val lane_mask : lanes:int -> int
(** Bit mask selecting the low [lanes] lanes ([-1] when [lanes] ≥ 63). *)

(** {1 Loading and evaluating} *)

val input_word : t -> int -> int
(** Packed word of primary input [position]. *)

val load_block : t -> seed:int -> block:int -> unit
(** Packed PRNG generation: fill every input word from the block's own
    SplitMix64 stream (draw [i] of [Prng.create ~seed:(seed + block)]
    for input [i], via {!Standby_util.Prng.nth_bits}; the low 63 bits
    become the lanes).  Lanes are a pure function of [(seed, block)] —
    independent of which domain runs the block.  Allocation-free.
    @raise Invalid_argument if [block < 0]. *)

val eval : t -> unit
(** One topological pass: compute every gate's packed word from the
    current input words, with the same per-kind word function as
    {!count_blocks}.  Bits above the valid lane count of a partial block
    carry garbage. *)

val words_evaluated : t -> int
(** Cumulative gate words computed by {!eval} and {!count_blocks} over
    this instance's life. *)

(** {1 Extraction} *)

val lane_vector : t -> lane:int -> bool array
(** Input vector of one lane, in primary-input declaration order — the
    scalar oracle's view of the packed inputs.  Allocates (test/oracle
    path only). *)

val lane_values : t -> lane:int -> bool array
(** Per-node values of one lane after {!eval}.  Allocates (test/oracle
    path only). *)

(** {1 State counts} *)

val count_blocks : t -> seed:int -> vectors:int -> first:int -> last:int -> unit
(** Load, evaluate and count blocks [first .. last - 1] of the
    [vectors]-vector set, adding their subset totals to [t]'s (only the
    valid lanes of a partial final block count).  Allocation-free.
    @raise Invalid_argument if the range is not within
    [0 .. block_count ~vectors]. *)

val merge : into:t -> t -> unit
(** Add [t]'s totals to [into]'s.  @raise Invalid_argument if the two
    were created over different netlists. *)

type counts
(** Exact per-(gate, input state) lane counts. *)

val counts : t -> counts
(** The per-state counts of every gate over the lanes counted so far,
    by inclusion–exclusion over the subset totals.  [t] is unchanged. *)

val vectors : counts -> int
(** Number of lanes counted. *)

val count : counts -> int -> int -> int
(** [count c id state] is the number of counted lanes where gate [id]'s
    packed input state (fanin 0 = most significant bit, the
    {!Standby_netlist.Gate_kind} convention) is [state]. *)

val popcount : int -> int
(** Number of set bits in the 63-bit two's-complement representation
    (so [popcount (-1) = 63]).  Allocation-free. *)
