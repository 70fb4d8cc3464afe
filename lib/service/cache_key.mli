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
(** 32-character lowercase hex key:
    [digest_of_canonical ~canonical:(canonical net)]. *)

val digest_of_canonical :
  canonical:string ->
  process:Standby_device.Process.t ->
  mode:Standby_cells.Version.mode ->
  penalty:float ->
  method_:Standby_opt.Optimizer.method_ ->
  string
(** {!digest} from a netlist's {!canonical} rendering, for callers that
    already hold it. *)

val method_descriptor : Standby_opt.Optimizer.method_ -> string
(** Method name plus its parameters (time limits, round counts) —
    anything that changes the answer must change the descriptor. *)

val mode_descriptor : Standby_cells.Version.mode -> string

(** Inline netlist texts mapped to their {!canonical} renderings, so a
    caller that sees the same [.bench] bytes again skips the parse.

    The key is the text itself, hashed and compared in full: two texts
    share an entry only when they are byte-equal, never by a digest
    collision.  Only successful parses are stored, so a malformed text
    fails the same way every time.  Entries cost the bytes of the text
    plus its rendering; the memo evicts oldest-first to stay within
    [cap_bytes] and never stores an entry larger than the cap, and a
    text not (or no longer) stored is simply parsed again.  Safe to
    share between threads: lookups and stores take a mutex, parsing
    does not. *)
module Source_memo : sig
  type t

  val create :
    hits:Standby_telemetry.Metrics.counter ->
    misses:Standby_telemetry.Metrics.counter ->
    evictions:Standby_telemetry.Metrics.counter ->
    bytes:Standby_telemetry.Metrics.gauge ->
    cap_bytes:int ->
    t
  (** An empty memo.  It counts lookups answered from the memo ([hits])
      or by a parse ([misses]) and entries evicted, and keeps [bytes] at
      the bytes it holds: text plus rendering, summed over the
      entries. *)

  val canonical :
    t ->
    string ->
    parse:(string -> (Standby_netlist.Netlist.t, string) result) ->
    (string, string) result
  (** [canonical memo text ~parse] is the stored rendering of [text], or
      [parse text] rendered (and stored); a parse error is returned
      as is. *)
end
