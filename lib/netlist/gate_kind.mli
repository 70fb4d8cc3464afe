(** The static CMOS cell kinds of the optimization library.

    The paper's library (Table 2) contains inverters and 2/3-input
    NAND/NOR cells; this implementation extends it with the wider
    NAND4/NOR4 and the complex AOI21/OAI21 cells common in industrial
    libraries (whose series-parallel stacks exercise the same
    state-dependent leakage effects).  Richer functions (AND/OR/XOR/
    BUFF, arbitrary-width gates) are decomposed onto these by
    {!Logic_build} when circuits are generated or parsed. *)

type t = Inv | Nand2 | Nand3 | Nand4 | Nor2 | Nor3 | Nor4 | Aoi21 | Oai21

val all : t list
(** Every kind, in a fixed order. *)

val arity : t -> int
(** Number of input pins. *)

val name : t -> string
(** Canonical upper-case name, e.g. ["NAND2"]. *)

val eval : t -> bool array -> bool
(** Boolean function of the cell: AOI21 computes [not (i0*i1 + i2)],
    OAI21 computes [not ((i0+i1) * i2)].  @raise Invalid_argument if the
    input array length differs from [arity]. *)

val state_count : t -> int
(** [2 ^ arity]: number of distinct input states. *)

val state_of_bits : t -> bool array -> int
(** Packs pin values into a state index; pin 0 is the most significant
    bit so that e.g. NAND2 state [10] reads as i1=1, i2=0 like the
    paper's figures. *)

val bits_of_state : t -> int -> bool array
(** Inverse of {!state_of_bits}. *)

val index : t -> int
(** Position of the kind in {!all}; a dense index for per-kind tables. *)
