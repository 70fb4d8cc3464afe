(** Word-parallel packed two-valued simulation: 63 vectors per pass.

    Classic parallel-pattern logic simulation.  Every netlist node holds
    one native OCaml [int] whose 63 bits are 63 independent input
    vectors ("lanes"); a gate evaluates all lanes at once with the
    bitwise form of its function (NAND is [lnot (a land b)], and so on),
    so one topological pass costs one machine word per gate instead of
    one array walk per gate per vector.  Nothing allocates in steady
    state: the word array, the state-mask scratch and the popcount table
    are all created once in {!create}.

    The intended consumer is the random-vector leakage baseline
    ({!Standby_power.Evaluate.random_vector_average}): vectors are
    processed in fixed {e blocks} of {!lanes}, each block drawing its
    input words from its own PRNG stream derived as [seed + block], so
    block [b]'s 63 vectors are a pure function of [(seed, b)].  That is
    what makes block-level parallelism deterministic — any scheduling of
    blocks over worker domains reproduces the same lanes, and a
    fixed-order reduction reproduces the same sums — and what lets a
    scalar oracle re-derive the exact same vector set lane by lane
    ({!lane_vector}).

    Leakage accumulation never looks at individual lanes.
    {!iter_state_counts} hands every gate a histogram [counts] with
    [counts.(s)] = number of lanes whose packed input state (fanin 0 =
    most significant bit, the {!Standby_netlist.Gate_kind} convention)
    equals [s]; the caller reduces it against its per-state tables as
    [Σ_s counts.(s) × table.(s)].  The masks for all [2^arity] states of
    a gate are built by binary splitting — [2^(k+1)] bitwise operations
    per gate, not [k·2^k]. *)

type t

val lanes : int
(** Vectors evaluated per pass: 63, every bit of a native [int]
    (including the sign bit — words are treated purely as bit vectors,
    never compared arithmetically). *)

val create : Standby_netlist.Netlist.t -> t
(** Preallocates the word array and all scratch storage. *)

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
    SplitMix64 stream ([Prng.create ~seed:(seed + block)]), one raw
    64-bit draw per input (low 63 bits become the lanes).  Lanes are a
    pure function of [(seed, block)] — independent of which domain runs
    the block.  @raise Invalid_argument if [block < 0]. *)

val eval : t -> unit
(** One topological pass: compute every gate's packed word from the
    current input words.  Bits above the valid lane count of a partial
    block carry garbage; they are masked out at accumulation time, never
    here. *)

val words_evaluated : t -> int
(** Cumulative gate words computed by {!eval} over this instance's life
    — the "sim.bitsim_words" telemetry counter source. *)

(** {1 Extraction} *)

val lane_vector : t -> lane:int -> bool array
(** Input vector of one lane, in primary-input declaration order — the
    scalar oracle's view of the packed inputs.  Allocates (test/oracle
    path only). *)

val lane_values : t -> lane:int -> bool array
(** Per-node values of one lane after {!eval}.  Allocates (test/oracle
    path only). *)

val iter_state_counts :
  t -> lanes:int -> (int -> Standby_netlist.Gate_kind.t -> int array -> unit) -> unit
(** [iter_state_counts t ~lanes f] visits every gate in topological
    order and calls [f id kind counts], where [counts.(s)] is the
    number of the low [lanes] lanes whose packed input state is [s]
    (valid for [s < Gate_kind.state_count kind]).  The [counts] array is
    scratch storage reused across callbacks — read it inside [f], do not
    keep it.  Allocation-free. *)

val popcount : int -> int
(** Number of set bits in the 63-bit two's-complement representation
    (so [popcount (-1) = 63]).  Table-driven, allocation-free. *)
