(** Metrics registry: named counters, gauges and fixed-bucket latency
    histograms over virtual-time samples.

    All state is plain mutable OCaml updated synchronously from simulator
    code, so metrics are as deterministic as the runs they observe: the
    same seed yields the same snapshot, byte for byte.  Quantiles come
    from fixed bucket bounds (no sample retention), which keeps recording
    O(#buckets) and snapshots stable regardless of run length. *)

module Histogram : sig
  type t

  val default_buckets : int64 array
  (** Exponential 1–2–5 ladder from 10 µs to 10 s of virtual time. *)

  val create : ?buckets:int64 array -> unit -> t
  (** [buckets] are strictly increasing upper bounds; samples above the
      last bound land in an implicit overflow bucket.  Raises
      [Invalid_argument] on an empty or non-increasing array. *)

  val record : t -> int64 -> unit
  val count : t -> int
  val sum : t -> int64
  val min : t -> int64 option
  val max : t -> int64 option

  val quantile : t -> float -> int64 option
  (** [quantile h q] (0 < q <= 1) is [None] on an empty histogram.
      Otherwise it is the upper bound of the bucket holding the sample of
      rank [ceil (q * count)] — an overestimate by at most one bucket
      width — clamped to the recorded maximum; ranks falling in the
      overflow bucket also report the exact recorded maximum. *)

  val p50 : t -> int64 option
  val p90 : t -> int64 option
  val p99 : t -> int64 option

  val p999 : t -> int64 option
  (** Tail quantile for the latency tables; same clamping as {!quantile}. *)

  val mean : t -> float option
  (** [sum / count] as a float; [None] on an empty histogram.  Exact (the
      sum tracks raw samples), unlike the bucketed quantiles. *)
end

type t
(** A registry: a namespace of metrics queried by name.  Asking for an
    existing name returns the existing metric; asking for a name already
    registered as a different kind raises [Invalid_argument]. *)

type counter
type gauge

val create : unit -> t

val counter : t -> string -> counter
val incr : counter -> unit
val add : counter -> int -> unit
val counter_value : counter -> int

val gauge : t -> string -> gauge
(** Gauges remember both the last set value and the high-water mark. *)

val set_gauge : gauge -> int -> unit
val gauge_hwm : gauge -> int

val histogram : ?buckets:int64 array -> t -> string -> Histogram.t

(** {2 Snapshots} *)

type value =
  | Count of int
  | Level of { last : int; hwm : int }
  | Summary of {
      count : int;
      sum : int64;
      p50 : int64 option;
      p90 : int64 option;
      p99 : int64 option;
      max : int64 option;
    }

type snapshot = (string * value) list

val snapshot : t -> snapshot
(** All metrics, sorted by name (deterministic). *)

val value_to_json : value -> Json.t
val snapshot_to_json : snapshot -> Json.t
val pp_snapshot : Format.formatter -> snapshot -> unit
