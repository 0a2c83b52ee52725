(** Persistent repro files: the minimal [(protocol, seed, script)] triple
    plus the documented verdict, as an S-expression on disk.

    Format (see [test/corpus/] for live examples):
    {v
    (repro
      (protocol minbft-unattested)
      (seed 3)
      (expect (fail smr-safety))      ; or (pass)
      (script (adversary ...)))
    v}

    A repro {e matches} on replay when a passing expectation replays to
    [Pass], and a failing expectation replays to a failure whose monitors
    include the first expected monitor — the same rule the shrinker uses
    ({!Monitor.reproduces}), so shrunk counterexamples stay replayable. *)

type t = {
  protocol : string;  (** A {!Harness.all} registry name. *)
  seed : int64;
  expect : [ `Pass | `Fail of string list ];
      (** Failing monitor names, primary first. *)
  script : Thc_sim.Adversary.t;
}

val of_outcome : protocol:string -> Sweep.outcome -> t
(** Capture a sweep outcome (typically post-shrink) verbatim. *)

val to_sexp : t -> Thc_util.Sexp.t
val of_sexp : Thc_util.Sexp.t -> t
(** Raises [Failure] on malformed input. *)

val save : string -> t -> unit
(** Write the repro to a file, human-indented, trailing newline. *)

val load : string -> (t, string) result
(** Parse a repro file; [Error] carries a description including the path. *)

type replay = {
  repro : t;
  report : Harness.report;
  matched : bool;  (** Did the replay reproduce the documented verdict? *)
}

val replay : t -> (replay, string) result
(** Re-run the repro deterministically against the registry harness.
    [Error] for an unknown protocol name or a script the explorer could
    never draw: one that fails {!Thc_sim.Adversary.admissible} over the
    harness's replicas [0 .. profile.n - 1] (with crash and corruption
    budgets of [n]), or whose horizon lies outside [0 .. profile.horizon].
    A verdict mismatch is [Ok { matched = false; _ }]. *)

val pp_replay : Format.formatter -> replay -> unit
