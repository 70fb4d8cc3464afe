(** ISCAS-85 / ISCAS-89 [.bench] netlist import and export.

    The paper evaluates on the ISCAS-85 benchmarks (c432 … c7552); this
    module lets the tool run on the genuine netlists when they are
    available.  The reader scans lines into inputs, outputs and gate
    definitions and hands them to {!Logic_build.elaborate}, the
    elaborator {!Verilog_io} shares: it lowers rich gate functions (wide
    AND/OR, XOR, XNOR, BUFF) onto the library kinds, the way the paper's
    circuits were synthesized onto an industrial cell library, and
    refuses a signal with two drivers — defined twice, or both an
    [INPUT] and defined.  D flip-flops (ISCAS-89) are cut here: the flop
    output becomes a primary input and the flop input a primary output,
    leaving the combinational core the optimizer works on. *)

val of_string : ?name:string -> string -> (Netlist.t, string) result
(** Parse a [.bench] source.  Syntax errors carry a line number and
    reason (unknown function, missing parenthesis, …); elaboration errors
    name the signal (undefined signal, two drivers, combinational
    cycle, …). *)

val read_file : string -> (Netlist.t, string) result
(** Parse a file; the design name is the file basename. *)

val to_string : Netlist.t -> string
(** Render a netlist back to [.bench] text using only INPUT/OUTPUT,
    NAND, NOR and NOT lines.  Re-parsing yields an equivalent circuit
    (same Boolean function per output). *)

val write_file : string -> Netlist.t -> unit
