(** The protocol registry: every protocol stack the fault explorer can
    drive, behind one [(seed, script) -> report] interface.

    A harness bundles a deterministic runner (build the cluster, install
    the adversary script, run past the horizon, judge the invariant
    monitors) with the {e script profile} the sweep driver should draw from
    (how many processes the adversary may target, its crash/partition
    budgets, the horizon) and the documented expectation, so sweep output
    can distinguish "found a bug" from "confirmed the known weakness". *)

type report = {
  verdict : Monitor.verdict;
  messages : int;  (** Messages sent during the run (per-run metric). *)
  duration_us : int64;  (** Virtual end time (per-run metric). *)
}

type profile = {
  n : int;  (** Processes the adversary may crash or partition. *)
  crash_budget : int;
  partition_budget : int;
  horizon : int64;  (** Script horizon; runs extend beyond it to drain. *)
}

type expectation =
  | Clean  (** Every admissible script must pass — failures are bugs. *)
  | Broken  (** Known-bad (ablated): fails under (almost) any schedule. *)
  | Vulnerable
      (** The profile steps outside the protocol's model assumptions;
          counterexamples are expected to exist but not on every seed. *)

type t = {
  name : string;
  summary : string;
  profile : profile;
  expect : expectation;
  run :
    ?network:Thc_network.Model.t ->
    seed:int64 ->
    script:Thc_sim.Adversary.t ->
    unit ->
    report;
      (** Deterministic in [(network, seed, script)].  [network] lowers a
          named {!Thc_network.Model} onto the run's links (re-lowered
          after every scripted heal); omitted, the harness's legacy
          uniform clique is kept and runs are byte-identical to pre-S7
          sweeps. *)
}

val all : t list
(** [minbft], [pbft] (scripted faults against the replicated KV, SMR
    safety + KV replay + liveness-by-horizon monitors); [minbft-unattested]
    (the ablation of {!Thc_replication.Ablation} — MinBFT on a TrInc world
    without monotonicity, equivocating leader baked in, expected to fork);
    [srb-trinc] and [srb-uni] (both SRB implementations under the full
    four-property spec); [agreement] (strong validity, crash-only profile)
    and [agreement-partition] (same protocol with partitions that violate
    its synchrony assumption — the explorer finds the separation).

    The Byzantine attack catalog ({!Thc_byz.Attack}) contributes one
    harness per in-catalog (attack, target) cell
    ({!Thc_byz.Attack.applies}): [minbft-<attack>] and [ubft-<attack>]
    ([Clean] — safety holds and the hardware ledger records a refused
    operation under every admissible script, monitors [byz-safety] /
    [byz-rejection]) and [unattested-equivocation] ([Broken] — the same
    behavior forks MinBFT on the unattested world, monitor
    [byz-divergence]). *)

val find : string -> t option
val names : unit -> string list

val pp_expectation : Format.formatter -> expectation -> unit
