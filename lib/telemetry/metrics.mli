(** A metrics registry: counters, gauges and fixed-bucket histograms.

    Instruments register themselves once (typically at module
    initialization, before any domain spawns) and are then updated
    lock-free (counters, gauges) or under a per-histogram mutex, so the
    hot paths — STA recomputes, cache probes, pool bookkeeping — pay an
    atomic increment, not a hashtable lookup.

    Registration is idempotent: asking for an existing name returns the
    existing instrument.  Exports render the whole registry as JSON or
    Prometheus text exposition format. *)

type t
(** A registry. *)

val create : unit -> t

val default : t
(** The process-global registry every subsystem feeds. *)

(** {2 Counters} — monotonically increasing integers. *)

type counter

val counter : ?help:string -> t -> string -> counter
(** @raise Invalid_argument if the name is registered as another kind. *)

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** {2 Gauges} — instantaneous values that go both ways. *)

type gauge

val gauge : ?help:string -> t -> string -> gauge

val set_gauge : gauge -> float -> unit

(** {2 Histograms} — cumulative fixed-bucket distributions. *)

type histogram

val histogram : ?help:string -> ?buckets:float list -> t -> string -> histogram
(** [buckets] are the finite upper bounds (strictly increasing; an
    implicit [+Inf] bucket catches the rest).  Default: 1 ms … 120 s,
    roughly logarithmic — wall times of optimizer runs and batch jobs.
    @raise Invalid_argument on an empty or non-increasing bucket list,
    or a kind clash. *)

val observe : histogram -> float -> unit

type histogram_snapshot = {
  upper_bounds : float array;  (** Finite bounds, ascending. *)
  cumulative : int array;
      (** [cumulative.(i)] = observations [<= upper_bounds.(i)]; one
          extra final entry counts everything ([+Inf]). *)
  count : int;
  sum : float;
}

val snapshot : histogram -> histogram_snapshot

val percentile : histogram_snapshot -> float -> float option
(** [percentile s q] estimates the [q]-quantile ([q] clamped to
    [0..1]) from the bucket counts, interpolating linearly inside the
    selected bucket (lower edge of the first bucket is 0).  Ranks that
    land in the [+Inf] bucket clamp to the largest finite bound.
    [None] when the histogram is empty.  This is the estimator behind
    [standbyopt top]'s p50/p90/p99 and [trace summarize]. *)

(** {2 Registry snapshots} — the aggregation/wire view. *)

type registry_snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * histogram_snapshot) list;
}
(** Every instrument of a registry by name — what the [stats] wire verb
    carries and what the router sums across backends. *)

val registry_snapshot : t -> registry_snapshot
(** Sorted by name (deterministic). *)

val merge_snapshots : registry_snapshot list -> registry_snapshot
(** Fleet sum: counters add, gauges add (queue depths, in-flight — the
    fleet-wide reading), histograms add bucket-wise when their bounds
    agree (on disagreement the first snapshot's distribution is kept).
    Result is sorted by name. *)

val find_counter : registry_snapshot -> string -> int option

val find_gauge : registry_snapshot -> string -> float option

val find_histogram : registry_snapshot -> string -> histogram_snapshot option

(** {2 Export} *)

val to_json : t -> Json.t
(** [{"counters":[…],"gauges":[…],"histograms":[…]}], each instrument
    with its name, help and current value(s); deterministic (sorted by
    name). *)

val to_prometheus : t -> string
(** Text exposition format; dots and dashes in names map to
    underscores.  HELP text and label values are escaped per the
    exposition grammar (backslash, newline, and quotes in labels), and
    every histogram's cumulative buckets are asserted monotone with the
    [+Inf] bucket equal to [_count] before the text is returned. *)

val prom_help : string -> string
(** Escape free text for a [# HELP] line ([\ ] and newline). *)

val prom_label_value : string -> string
(** Escape a label value (backslash, double quote, newline). *)

val write_file : t -> string -> unit
(** JSON by default; a [.prom] suffix selects Prometheus text. *)
