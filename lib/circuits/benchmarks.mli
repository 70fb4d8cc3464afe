(** The paper's benchmark suite (Table 4), reconstructed.

    Each entry carries the published primary-input and gate counts.  The
    two structured designs are generated structurally (c6288 is a 16x16
    array multiplier; alu64 a 64-bit ALU); the remaining ISCAS-85
    circuits are seeded random logic matched to the published counts —
    see DESIGN.md for the substitution rationale.  Genuine [.bench]
    netlists can always be used instead via
    {!Standby_netlist.Bench_io}. *)

type profile = {
  bench_name : string;
  published_inputs : int;
  published_gates : int;
}

val profiles : profile list
(** The eleven rows of Table 4, in paper order. *)

val circuit : string -> Standby_netlist.Netlist.t
(** Build the stand-in netlist for a benchmark name.
    @raise Not_found for unknown names. *)

val names : string list

val find : string -> (Standby_netlist.Netlist.t, string) result
(** {!circuit}, with an unknown name answered by an error that lists
    {!names}. *)

val small_suite : string list
(** The subset small enough for quick tests and examples. *)
