(** Manifest jobs resolved to runnable inputs.

    Resolution loads the netlist (built-in generator or [.bench]/[.v]
    file) and the process overrides; it is kept separate from execution
    so the engine can fail fast on bad manifests before spawning any
    domain, and so cache keys can be computed without running anything.

    Characterized libraries are the expensive shared input (the stack
    solver enumerates every cell version), so they are deduplicated by
    (mode, process) in a {!Library_cache}; a built [Library.t] is
    immutable and safely shared across domains. *)

type resolved = {
  job : Manifest.job;
  net : Standby_netlist.Netlist.t;
  process : Standby_device.Process.t;
}

val load_netlist : Manifest.source -> (Standby_netlist.Netlist.t, string) result
(** A built-in benchmark, or a [.v] (gate-level Verilog) or [.bench]
    file chosen by suffix. *)

val resolve : Manifest.job -> (resolved, string) result

val key : resolved -> string
(** The job's {!Cache_key.digest}. *)

module Library_cache : sig
  type t

  val create : unit -> t

  val get :
    t ->
    mode:Standby_cells.Version.mode ->
    process:Standby_device.Process.t ->
    Standby_cells.Library.t
  (** Build-once lookup; safe to call from any domain. *)
end
