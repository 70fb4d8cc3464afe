(** Content-addressed cache keys for optimization results.

    A result is reusable exactly when nothing that determines it
    changed: the circuit structure, the process constants, the library
    mode, the delay constraint and the algorithm (with its own
    parameters).  The key is an MD5 digest over canonical renderings of
    all five.

    The netlist is canonicalized first, so the key is invariant under
    gate insertion order, node renumbering and net renaming: gates are
    renumbered by a depth-first walk of the output cones
    ({!Standby_netlist.Netlist.postorder}: outputs in declaration order,
    fan-ins in pin order), and only the primary
    inputs keep their declaration positions — those define the sleep
    vector, so they are semantically ordered.  Logic not reachable from
    any output does not affect the key (it does not affect the result
    either). *)

val canonical : Standby_netlist.Netlist.t -> string
(** The canonical structural rendering described above.  Two netlists
    get equal renderings iff they are the same DAG up to gate
    numbering/naming. *)

val digest :
  net:Standby_netlist.Netlist.t ->
  process:Standby_device.Process.t ->
  mode:Standby_cells.Version.mode ->
  penalty:float ->
  method_:Standby_opt.Optimizer.method_ ->
  string
(** 32-character lowercase hex key. *)

val method_descriptor : Standby_opt.Optimizer.method_ -> string
(** Method name plus its parameters (time limits, round counts) —
    anything that changes the answer must change the descriptor. *)

val mode_descriptor : Standby_cells.Version.mode -> string
