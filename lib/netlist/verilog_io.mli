(** Gate-level structural Verilog import and export.

    Supports the flat primitive-instantiation subset that gate-level
    benchmark netlists use: one module with scalar ports, [input] /
    [output] / [wire] declarations, and [nand] / [nor] / [and] / [or] /
    [xor] / [xnor] / [not] / [buf] primitive instances (instance names
    optional, multi-input primitives allowed).  The parser hands the
    ports and instances to {!Logic_build.elaborate}, the elaborator the
    [.bench] reader uses, so a statement set reads the same in both
    formats and builds the identical netlist; a net driven twice, or
    declared [input] and driven by an instance, is refused.  Vectors,
    assigns, behavioural constructs and hierarchies are rejected with a
    clear error. *)

val of_string : ?name:string -> string -> (Netlist.t, string) result
(** Parse Verilog source.  The design name comes from the module header
    unless [name] overrides it. *)

val read_file : string -> (Netlist.t, string) result

val to_string : Netlist.t -> string
(** Render as a single flat module using primitives; complex cells
    (AOI21/OAI21) are decomposed through auxiliary wires.  Re-parsing
    yields an equivalent circuit (same Boolean function per output). *)

val write_file : string -> Netlist.t -> unit
