(** Persistent, content-addressed store of optimization results.

    One file per {!Cache_key.digest} under a cache directory, written
    atomically (temp file + rename).  A file is one line holding one
    JSON object: {!entry_members}, the same members the server's
    [cache-put]/[cache-found] frames carry.  Re-running a manifest
    therefore only recomputes jobs whose circuit, process, constraint or
    algorithm changed.  Unreadable or malformed entries are treated as
    misses, never as errors — a corrupted cache degrades to
    recomputation.  A file left in the older line-per-field format is
    such an entry: counted corrupt once, recomputed, and overwritten by
    the next {!store}.

    Degraded (deadline-cut) results are the caller's responsibility to
    keep out of the store; only full-quality answers should be
    persisted. *)

type t

type entry = {
  method_name : string;
  penalty : float;
  budget : float;
  delay : float;
  delay_fast : float;
  delay_slow : float;
  total : float;  (** Leakage, A. *)
  isub : float;
  igate : float;
  runtime_s : float;  (** Original compute time — what a hit saves. *)
  assignment : string;  (** {!Standby_power.Assignment.to_string} payload. *)
}

val entry_members : entry -> (string * Standby_telemetry.Json.t) list
(** The entry's JSON members, in a fixed order, floats at [%.17g] — the
    one codec of an entry, for store files and cache frames alike. *)

val entry_of_json : Standby_telemetry.Json.t -> (entry, string) result
(** Inverse of {!entry_members}: reads the members from an object,
    ignoring any others (a frame's [v], [type] and [key]).  Decoding an
    encoded entry with finite floats returns it bit-identical (JSON has
    no infinities or NaN).  The error names the first missing or
    mistyped member. *)

(** The shared tier, as injected closures (the peer client lives in a
    higher layer).  [fetch] answers a digest lookup from a peer store or
    [None] — it must swallow its own transport failures; exceptions are
    treated as misses.  [publish] offers a freshly computed entry to
    peers, best-effort; its exceptions are swallowed. *)
type remote = {
  fetch : key:string -> entry option;
  publish : key:string -> entry -> unit;
}

val create : ?max_entries:int -> dir:string -> unit -> t
(** Creates [dir] (and parents) if needed.  [max_entries] caps the
    number of entries on disk: every {!store} that pushes the directory
    over the cap evicts least-recently-used entries (by file mtime,
    which {!find} freshens on a hit) until it fits again, counting each
    removal on the [cache.evictions] counter.  Omitted, the store grows
    without bound — fine for one-shot batch runs, not for a long-lived
    daemon.
    @raise Sys_error if the directory cannot be created.
    @raise Invalid_argument if [max_entries < 1]. *)

val dir : t -> string

val max_entries : t -> int option

val default_dir : unit -> string
(** [$STANDBYOPT_CACHE_DIR], else [$XDG_CACHE_HOME/standbyopt], else
    [~/.cache/standbyopt], else [_standbyopt_cache] in the working
    directory. *)

val set_remote : t -> remote option -> unit
(** Attach (or detach) the shared tier.  Install before serving starts;
    worker domains only ever read the hook. *)

val find : t -> key:string -> entry option
(** Read-through lookup: local store first, then the shared tier on a
    local miss — a remote hit is written back locally (and counted on
    [cache.remote_hits]) so it is a local hit next time.  Feeds the
    [result_store.hits] / [result_store.misses] / [result_store.corrupt]
    counters in {!Standby_telemetry.Metrics}: a present-but-undecodable
    file counts as corrupt, not a miss. *)

val find_local : t -> key:string -> entry option
(** {!find} without the shared-tier consult.  This is what a daemon
    serves a peer's [cache-get] from — peers never chain through each
    other's remote tiers, so two daemons peered at each other cannot
    loop. *)

val note_corrupt : unit -> unit
(** Count a corruption the caller detected after {!find} — e.g. an
    entry whose re-evaluated leakage contradicts its stored total. *)

val store : t -> key:string -> entry -> unit
(** Persist locally, then, when a shared tier is set, offer the entry to
    its [publish] hook (best-effort, counted on [cache.publishes]). *)

val store_local : t -> key:string -> entry -> unit
(** {!store} without the publish — what a daemon applies on a peer's
    [cache-put]. *)

val clear : t -> int
(** Remove all entries; returns how many were removed. *)
