(** Process-wide metrics registry.

    Named metrics in one global table: atomic counters, gauges, and
    log2-bucketed histograms with p50/p90/p99. Handles are created (or
    found) once per name at producer initialization; the hot operations
    ({!incr}, {!add}, {!observe}) touch only the handle's atomics, so
    any domain may record concurrently.

    Names are dot-separated [component.event[_unit]] (e.g.
    [plan_cache.hit], [tapeopt.licm.ns]); rendering and JSON dumps are
    sorted by name. Requesting an existing name with a different metric
    kind raises [Invalid_argument]. *)

type counter
type gauge
type histogram

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Recording} *)

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int
val set : gauge -> float -> unit
val get : gauge -> float

val observe : histogram -> int -> unit
(** Record one value. Non-positive values land in bucket 0; value [v >
    0] lands in the bucket covering [[2^(b-1), 2^b)] where [b] is the
    bit length of [v]. *)

val now_ns : unit -> int
(** Monotonic nanoseconds (same clock as [Trace.now]). *)

val time : histogram -> (unit -> 'a) -> 'a
(** [time h f] runs [f ()] and observes its wall time in nanoseconds,
    including when [f] raises. *)

(** {1 Reading} *)

type hstat = {
  count : int;
  sum : int;
  p50 : int;  (** bucket lower bound at the 50th percentile *)
  p90 : int;
  p99 : int;
  max_v : int;  (** exact largest observed value *)
}

val percentile : histogram -> float -> int
(** Lower bound of the bucket containing the given quantile (in [0,1]);
    0 for an empty histogram. *)

val hstats : histogram -> hstat

type stat = Counter_v of int | Gauge_v of float | Hist_v of hstat

val snapshot : unit -> (string * stat) list
(** All registered metrics, sorted by name. *)

val render : unit -> string
(** Human-readable dump, one line per metric, sorted by name. *)

val to_json : unit -> string
(** The whole registry as a JSON object keyed by metric name. *)

val reset : unit -> unit
(** Zero every registered metric of every kind (tests). *)
