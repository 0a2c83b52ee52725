(** Seed-sweep driver: run a protocol harness against thousands of
    [(seed, Adversary.random script)] pairs and tabulate the verdicts.

    Everything is a pure function of [(harness, base seed, run count,
    budget overrides)] — two sweeps with equal arguments produce equal
    summaries, byte for byte once rendered, which is what makes a sweep
    failure a one-line repro. *)

type outcome = {
  seed : int64;
  script : Thc_sim.Adversary.t;
  report : Harness.report;
}

type summary = {
  protocol : string;
  runs : int;
  passes : int;
  failures : outcome list;  (** Failing runs, ascending seed. *)
  by_monitor : (string * int) list;
      (** Failing runs per monitor name, descending count then name. *)
  total_messages : int;
  total_events : int;  (** Adversary events drawn across all scripts. *)
}

val script_for :
  Harness.t -> ?crashes:int -> ?partitions:int -> seed:int64 -> unit ->
  Thc_sim.Adversary.t
(** The admissible random script this sweep pairs with [seed]: drawn by
    {!Thc_sim.Adversary.random} from the harness profile (with optional
    budget overrides) using a generator derived from [seed] alone. *)

val run_one :
  Harness.t ->
  ?crashes:int -> ?partitions:int -> ?network:Thc_network.Model.t ->
  seed:int64 -> unit -> outcome

val summarize : Harness.t -> runs:int -> outcome list -> summary
(** Tally a seed-ordered outcome list (exactly what {!sweep} returns). *)

val runner :
  Harness.t -> ?crashes:int -> ?partitions:int ->
  ?network:Thc_network.Model.t ->
  base_seed:int64 -> runs:int -> unit ->
  (int64, outcome, summary) Thc_exec.Runner.t
(** The sweep as the repository-wide runner shape: keys are the seeds
    [base_seed .. base_seed + runs - 1], [run_one] is {!run_one}, and
    [summarize] is {!summarize}. *)

val sweep :
  Harness.t -> ?crashes:int -> ?partitions:int ->
  ?network:Thc_network.Model.t ->
  ?progress:(completed:int -> failures:int -> unit) ->
  ?jobs:int -> ?stats:(Thc_exec.Pool.stats -> unit) ->
  base_seed:int64 -> runs:int -> unit -> summary
(** Seeds [base_seed, base_seed + 1, ..., base_seed + runs - 1].
    [progress] is invoked after every run with the number of seeds finished
    and failures seen so far — callers decide how often to surface it; it
    never affects the summary.  [jobs] fans the runs out over up to that
    many domains ({!Thc_exec.Pool}); outcomes are merged in seed order,
    so the summary — and the [progress] call sequence — is identical at
    every [jobs] value.  [stats] receives the pool's wall-clock
    accounting. *)

val pp_summary : Format.formatter -> summary -> unit
