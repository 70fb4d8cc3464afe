(** Technology mapping helpers and the netlist elaborator.

    Generators and file import produce rich Boolean functions (wide
    AND/OR, XOR, multiplexers); this module lowers them onto the
    {!Gate_kind} library (INV, NAND2/3/4, NOR2/3/4) on top of a
    {!Netlist.Builder}.  Wide gates are decomposed as balanced trees so
    logic depth grows logarithmically, mirroring what a synthesis tool
    would do with the paper's industrial library.

    {!elaborate} is the one elaborator behind both file readers
    ({!Bench_io}, {!Verilog_io}): a reader scans its syntax into
    declared inputs, outputs and (signal, function, arguments)
    definitions, and [elaborate] does the rest, so the two formats
    accept the same statement sets and build the same netlist from
    them. *)

val inv : Netlist.Builder.t -> int -> int
(** Inverter. *)

val nand_of : Netlist.Builder.t -> int list -> int
(** k-input NAND.  k = 1 degenerates to an inverter; k ≤ 4 maps to a
    single cell; wider gates become a NAND of AND subtrees.
    @raise Invalid_argument on an empty list. *)

val and_of : Netlist.Builder.t -> int list -> int
(** k-input AND ([nand_of] plus an inverter; the single-element list is
    the identity). *)

val or_of : Netlist.Builder.t -> int list -> int
(** k-input OR. *)

val xor2 : Netlist.Builder.t -> int -> int -> int
(** Two-input XOR as the standard four-NAND network. *)

val mux2 : Netlist.Builder.t -> sel:int -> int -> int -> int
(** [mux2 b ~sel a0 a1] selects [a0] when [sel] is low, [a1] when high,
    using a three-NAND/one-INV network. *)

val full_adder : Netlist.Builder.t -> int -> int -> int -> int * int
(** [full_adder b a c carry_in] returns [(sum, carry_out)]; the standard
    nine-gate NAND realization. *)

(** {1 Elaboration} *)

type func = And | Nand | Or | Nor | Xor | Xnor | Not | Buf
(** The Boolean functions a netlist file can name. *)

val elaborate :
  name:string ->
  ((string -> func -> string list -> unit) -> string list * string list) ->
  (Netlist.t, string) result
(** [elaborate ~name scan] builds the netlist a reader's statements
    describe.  [scan define] calls [define signal func args] once per
    definition, in source order, and returns the declared inputs and
    outputs; definitions stream in, so a reader holds no statement list.
    Exceptions other than [Invalid_argument] raised by [scan] pass
    through.

    The netlist has the declared inputs first (in order, a repeated name
    once), then every definition in an output's cone in the recursive
    post-order of {!Netlist.postorder} from the outputs in order, then
    the output marks.  NOT, and NAND/NOR of two to four arguments, become
    one named cell; BUFF is two inverters and the rest are lowered with
    the builders above (unnamed cells, except that a cell driving an
    output takes the output's name, see {!Netlist.Builder.mark_output}).
    It refuses, with a message naming the signal: a definition with no
    argument; a signal defined twice; no outputs; a signal that is both
    an input and driven; a combinational cycle; a definition (reached or
    not) reading a signal that is neither an input nor defined; a wrong
    argument count for NOT, BUFF or XNOR on a reached definition; an
    undriven output; an output listed twice. *)
