(** Parallel execution over OCaml domains.

    A pool maps a job function over a list of keys, fanning the work out
    to domains of this process.  The merge is {e deterministic}: results
    come back in key order no matter which domain finishes first, and the
    optional [on_result] hook fires in key order too, from the calling
    domain, so a caller that prints progress or counts failures produces
    byte-identical output at every [jobs] value.  That property is what
    lets the sweep drivers expose [--jobs N] without giving up the
    repository's reproducibility invariant.

    Jobs share one heap.  A job must not mutate state that another key's
    job can reach: everything it writes is built from its own key (every
    sweep driver in this repository already works this way), and
    per-domain scratch lives in [Domain.DLS].  Results are handed back as
    they are, so a result may carry any value, closures included.

    A job that raises reports [Error (Printexc.to_string exn)]; the pool
    always returns one result per key.  A job that ends the process
    ([exit], a fatal signal) ends the sweep with it. *)

type stats = {
  requested_jobs : int;  (** The [jobs] argument, clamped to ≥ 1. *)
  workers : int;
      (** Domains the keys were spread over, the calling one included;
          0 when the calling domain ran every key alone. *)
  keys : int;
  failed : int;  (** Keys whose result is [Error _]. *)
  wall_us : int64;  (** Real (not virtual) elapsed time for the map. *)
  busy_us : int64 array;  (** Per-worker time spent inside jobs. *)
  keys_per_worker : int array;  (** Per-worker completed-key counts. *)
}

val utilization : stats -> float
(** Aggregate worker busy time over [workers * wall] (0 when
    sequential) — how well the fan-out kept its workers fed. *)

val pp_stats : Format.formatter -> stats -> unit
(** One human line: keys, workers, wall clock, utilization.  Wall-clock
    values are real time — print this to stderr, never into an export. *)

val record : Thc_obsv.Metrics.t -> name:string -> stats -> unit
(** Report the run into a metrics registry under [name]: counters
    [<name>.keys] / [<name>.failed], gauges [<name>.workers] /
    [<name>.wall_us] / [<name>.utilization_pct], and per-worker
    [<name>.worker<i>.keys] / [<name>.worker<i>.busy_us]. *)

val map :
  ?jobs:int ->
  ?on_result:(int -> ('r, string) result -> unit) ->
  ('k -> 'r) ->
  'k list ->
  ('r, string) result list
(** [map ~jobs f keys] is [f] applied to every key, in key order.  The
    work runs on [min jobs (length keys) (Domain.recommended_domain_count ())]
    domains, the calling one among them, each taking the next unclaimed
    key; at one domain no other is spawned.  [on_result i r] is invoked
    exactly once per key, from the calling domain, in ascending key order
    (result [i] is delivered only after results [0..i-1]), whatever order
    the domains finish in. *)

val map_stats :
  ?jobs:int ->
  ?on_result:(int -> ('r, string) result -> unit) ->
  ('k -> 'r) ->
  'k list ->
  ('r, string) result list * stats
(** [map] plus the wall-clock/utilization accounting of the run. *)
