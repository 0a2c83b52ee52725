(** Attack-sweep matrix: every attack fanned across seeds and corruption
    timings, against every target whose catalog holds it
    ({!Attack.applies}), with a pass/fail verdict per cell.

    A cell {e passes} when {!Attack.holds} — the paper's prediction for
    that (attack, target) pair came true.  The whole matrix passing is the
    strongest statement this repository makes about the systems payoff:
    it is not one lucky schedule; across every sampled seed and timing the
    attested protocol shrugs the attack off with an auditable hardware
    rejection while the unattested world forks under equivocation.

    Exports as thc-attack/v1 JSONL: one header object
    [{"type":"attack-sweep","schema":"thc-attack/v1",...}] followed by one
    [{"type":"cell",...}] object per run.  The rendering is canonical and
    runs are deterministic, so the same sweep always produces
    byte-identical files (checked in CI). *)

type cell = { result : Attack.result; holds : bool }

type t = {
  f : int;
  seeds : int64 list;
  timings : int64 list;  (** Corruption times (virtual µs). *)
  attacks : Attack.kind list;
  targets : Attack.target list;
  network : Thc_network.Model.t option;
      (** Network model every cell ran under; [None] for the legacy
          uniform clique.  Recorded in the export envelope when set. *)
  cells : cell list;  (** Ordered: target, then attack, seed, timing. *)
}

val runner :
  ?f:int ->
  ?seeds:int64 list ->
  ?timings:int64 list ->
  ?attacks:Attack.kind list ->
  ?targets:Attack.target list ->
  ?network:Thc_network.Model.t ->
  unit ->
  (Attack.target * Attack.kind * int64 * int64, cell, t) Thc_exec.Runner.t
(** The matrix as the repository-wide runner shape: keys are the cross
    product in documented cell order — filtered through {!Attack.applies},
    so catalog-foreign (attack, target) pairs produce no cell — and
    [run_one] is one {!Attack.run}. *)

val sweep :
  ?jobs:int ->
  ?stats:(Thc_exec.Pool.stats -> unit) ->
  ?f:int ->
  ?seeds:int64 list ->
  ?timings:int64 list ->
  ?attacks:Attack.kind list ->
  ?targets:Attack.target list ->
  ?network:Thc_network.Model.t ->
  unit ->
  t
(** Run the full cross product ({!Attack.run} per cell).  Defaults: seeds
    1-3, corruption at 2ms/5ms/20ms, all attacks, both targets.  [jobs]
    fans cells out over pool domains; cells merge in key order, so
    the matrix — and its export — is byte-identical at every value. *)

val all_hold : t -> bool

val pp : Format.formatter -> t -> unit
(** The pass/fail matrix as a markdown-style table. *)

val to_jsonl : t -> string list
(** Header line plus one line per cell (thc-attack/v1). *)

val export : t -> string -> unit
(** Write {!to_jsonl} to a file. *)
