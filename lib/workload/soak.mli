(** The long-lived-service soak: does memory actually stop growing?

    Checkpoint certificates and log truncation ({!Thc_replication.Durability})
    only earn their complexity if a service that runs forever holds bounded
    state.  This workload runs the same MinBFT cluster over doubling
    horizons, twice — checkpointing on and off — and compares the log
    high-water-marks: with truncation the hwm must {e stabilise} (stay
    within {!Thc_replication.Durability.bound} at every doubling, however
    long the run); without it the hwm grows with the horizon, because the
    log is the memory.  Deterministic per seed; driven by [thc soak] and
    the smoke check in CI. *)

type sample = {
  s_ops : int;  (** Requests offered this round. *)
  s_completed : int;
  s_commits : int;
  s_duration_us : int64;  (** Virtual time to quiescence. *)
  s_log_live : int;  (** Live log entries at the end (worst replica). *)
  s_log_hwm : int;  (** Log high-water-mark over the run (worst replica). *)
  s_stable_upto : int;  (** Lowest stable checkpoint across replicas. *)
  s_truncations : int;  (** Total compactions across replicas. *)
  s_safety : int;  (** Safety violations (must stay 0). *)
}

type report = {
  interval : int;  (** Checkpoint cadence the soak ran with. *)
  bound : int;  (** [Durability.bound ~checkpoint_interval:interval]. *)
  samples : sample list;  (** Checkpointed runs, doubling ops. *)
  baseline : sample list;  (** Same runs with checkpointing disabled. *)
  stabilised : bool;
      (** [bound_held] {e and} a positive [baseline_growth]: the
          checkpointed hwm stayed within the bound at every doubling while
          the uncheckpointed one grew — the soak's pass verdict.  The
          checkpointed hwm may move inside the bound between doublings; a
          step inside the bound is not growth. *)
  bound_held : bool;  (** Every checkpointed round within {!bound}, safe. *)
  baseline_growth : int;
      (** Baseline hwm at the longest horizon minus at the shortest —
          expected positive (the contrast that makes [stabilised]
          meaningful). *)
}

val run :
  ?f:int ->
  ?interval:int ->
  ?rounds:int ->
  ?base_ops:int ->
  seed:int64 ->
  unit ->
  report
(** Defaults: [f = 1], checkpoint [interval = 4], [rounds = 3] doubling
    horizons starting at [base_ops = 50] requests.  Runs [2 * rounds]
    harness runs ({!Thc_replication.Harness.run}, MinBFT, otherwise-default
    setup) and reduces them to the report.  Raises [Invalid_argument] on a
    non-positive interval, fewer than two rounds or a non-positive
    [base_ops]. *)

val report :
  interval:int -> samples:sample list -> baseline:sample list -> report
(** Reduce the checkpointed rounds and their baseline (both in horizon
    order) to the verdict {!run} returns.  Raises [Invalid_argument] when
    either list is empty. *)

val pp_report : Format.formatter -> report -> unit
