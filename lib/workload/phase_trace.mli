(** Multi-seed request-span campaigns — the engine behind [thc trace].

    One campaign runs the same {!Thc_replication.Harness.setup} at several
    seeds with a live {!Thc_obsv.Span} recorder
    ({!Thc_replication.Harness.run_spans}), then merges the per-request
    causal views into one per-phase latency breakdown with trusted-op
    attribution.  Runs fan out over the exec pool in the repository-wide
    {!Thc_exec.Runner} shape: outcomes merge in seed order, so the report
    — and its export — is byte-identical at every [--jobs] value. *)

type campaign = {
  setup : Thc_replication.Harness.setup;
      (** Template configuration; its [seed] field is replaced per run
          (and only names the export envelope's seed). *)
  seeds : int64 list;  (** One full simulation per seed. *)
}

type run_data = {
  rd_seed : int64;
  rd_views : Thc_obsv.Span.view list;  (** Ascending rid. *)
  rd_ops : (string * (string * int) list) list;
      (** {!Thc_obsv.Span.ops_rows} — per-phase trusted-op attribution. *)
  rd_completed : int;
  rd_commits : int;
}
(** One seed's results, as plain data. *)

type report = {
  runs : run_data list;  (** Seed order. *)
  summary : Thc_obsv.Span.summary;
      (** Merged over every run's views and attribution rows. *)
}

val runner :
  campaign -> (int64, run_data, report) Thc_exec.Runner.t
(** The campaign as the repository-wide runner shape: keys are the seeds,
    [run_one] is one traced simulation. *)

val run :
  ?jobs:int -> ?stats:(Thc_exec.Pool.stats -> unit) -> campaign -> report
(** Run every seed (fanned out over [jobs] workers) and merge.  Raises
    [Invalid_argument] on an empty seed list. *)

val slowest :
  ?top:int -> report -> (int64 * Thc_obsv.Span.view) list
(** The [top] (default 5) completed requests across the whole campaign by
    total latency, slowest first, as [(seed, view)].  Ties break toward
    the lower (seed, rid), so the list is deterministic at any [--jobs]. *)

(** {1 JSONL export} *)

val schema : string
(** ["thc-span/v1"]. *)

val export : campaign -> report -> string
(** Envelope header ({!Thc_obsv.Envelope}: type ["spans"], schema, seed,
    jobs = seed count, git revision, protocol, seeds, spans), then one
    [span] line per request (seed order, ascending rid, each with its
    run's [seed] field), then the merged [phase] rows.  Byte-deterministic
    within a checkout and across [--jobs] values. *)

val parse :
  string -> ((int64 * Thc_obsv.Span.view) list, string) Stdlib.result
(** Read back an {!export}ed document's span lines as [(seed, view)].
    Rejects missing or mismatched schema headers; skips [phase] rows and
    unknown line types; a malformed line is an [Error] naming the line. *)

val pp_report : ?top:int -> Format.formatter -> report -> unit
(** The phase-breakdown table ({!Thc_obsv.Span.pp_summary}) followed by
    the [top] (default 3) slowest requests with their critical paths. *)
