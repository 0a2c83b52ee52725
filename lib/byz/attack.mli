(** The Byzantine attack catalog.

    Three attack families over three targets.  The original six scripted
    active-adversary behaviors and the three checkpoint kinds run against
    real MinBFT on trusted counters ([Minbft]).  [Unattested] is the same
    MinBFT rig on {!Thc_hardware.Trinc.create_unattested_world}, which
    keeps authentication and drops only monotonicity: every MinBFT attack
    opens by asking its trinket to re-attest at a used counter, TrInc
    refuses (the ledger records it) and the unattested world grants it.
    Equivocation then forks the unattested world into a concrete
    divergent commit — the paper's central claim, non-equivocation is what
    the trusted-log class buys, demonstrated rather than asserted.  The
    other kinds are stopped there by mechanisms that are not hardware
    (release watermarks, view numbers, f+1 certificates, the NVRAM floor,
    the f+1-donor suffix rule), so they stay out of its catalog.

    The register catalog ([ubft_all]) targets [Ubft], the SWMR-register
    protocol one level {e up} Figure 1's order: equivocation there is not
    detected-and-rejected by a counter discipline, it has no interface at
    all — writing into another replica's history is an ACL violation
    before it touches memory.  Its attacks are therefore forgery probes
    (refused, landing in the ledger as [swmr.append_denied]) paired with
    the omission behaviors that {e are} in the adversary's power
    (freezing reads, withholding appends), which cost availability until
    a view change, never safety.

    Against MinBFT and uBFT-sim the attacker corrupts a running honest
    replica in place (via {!Wrap} and an adversary-script [Corrupt]
    event), inheriting its state, its signing secret and its claimed
    trinket or register — everything except the ability to make the
    hardware lie. *)

type kind =
  | Equivocate  (** Two proposals, one slot, different audiences. *)
  | Replay_stale  (** Re-send an old attested message (counter rewind). *)
  | Reuse_attestation  (** Relabel one slot's attestation for another. *)
  | Mismatched_vc  (** Fabricated sent-log in a view-change certificate. *)
  | Selective_send  (** Serve a bare quorum, starve the last replica. *)
  | Silent_then_lie  (** Crash-silent phase, then stale-view equivocation. *)
  | Register_forge
      (** Append conflicting forged slots into the leader's register. *)
  | Ack_forge
      (** Plant a forged ack in a peer's register, then lie about coverage. *)
  | Stale_read
      (** Freeze a follower: stop reading the leader's register (mute). *)
  | Withheld_append
      (** A leader that stops appending — starving every follower's read. *)
  | Forged_checkpoint
      (** Serve a joiner a snapshot under a counterfeit checkpoint
          certificate. *)
  | Stale_transfer
      (** Replay a superseded stable checkpoint (genuine certificate) to
          roll a joiner behind its NVRAM floor. *)
  | Join_equivocation
      (** Genuine certificate, lying committed suffix — tell the joiner a
          different history than the one the honest donors vouch for. *)

val all : kind list
(** The trusted-log catalog (the original six), in order — what runs
    against [Minbft] ([Unattested] takes only [Equivocate]).  Stable: sweep cell counts in the
    thc-attack/v1 export depend on its length. *)

val ubft_all : kind list
(** The register catalog — what runs against [Ubft]. *)

val ckpt_all : kind list
(** The checkpoint/state-transfer catalog — what the MinBFT rig runs
    against [Minbft] with a scripted restart.  Kept separate from {!all} so the
    sweep cell counts pinned to its length stay valid. *)

val name : kind -> string
(** Stable CLI/JSONL identifier (e.g. ["equivocation"], ["mismatched-vc"]).
    Persisted in thc-attack/v1 exports — do not rename. *)

val of_name : string -> kind option

val describe : kind -> string
(** One-sentence threat model, for [--list] and the docs. *)

val paper_claim : kind -> string
(** Which claim of the paper the attack exercises. *)

type target = Minbft | Unattested | Ubft

val target_name : target -> string

val target_of_name : string -> target option

val applies : target:target -> attack:kind -> bool
(** Whether the attack belongs to the target's catalog ({!all} and
    {!ckpt_all} for [Minbft], [Equivocate] alone for [Unattested] — the
    one kind that forks it at every sweep cell — and {!ubft_all} for
    [Ubft]).  {!Matrix} sweeps
    filter their cell grid through this. *)

type result = {
  attack : kind;
  target : target;
  seed : int64;
  corrupt_at : int64;  (** Virtual µs at which the corruption fired. *)
  safety_violations : int;
      (** {!Thc_replication.Smr_spec.check_safety} violations among correct
          replicas. *)
  distinct_ops_at_seq1 : int;
      (** > 1 is the divergent commit made concrete. *)
  commits : int;
  rejections : int;
      (** {!Thc_obsv.Ledger.rejections} of the run's hardware ledger —
          refused attest/check/link operations under [Minbft], refused
          register writes/appends ([swmr.append_denied]) under [Ubft];
          under [Unattested] only the non-hardware refusals ([link.*],
          [ckpt.*]), since its world charges no [trinc.*] op. *)
  trusted_ops : (string * int) list;  (** Full ledger rows. *)
  messages : int;  (** Messages sent, from the engine's link counter. *)
  duration_us : int64;  (** Virtual end time of the run. *)
  client_finished : bool;
      (** Did the honest client get all its replies? *)
  detail : string;  (** What mechanically happened, for the report. *)
  stalled_spans : Thc_obsv.Span.view list;
      (** Request spans that never reached their reply — the attacker's injected conflicting
          writes and any honest request the attack starved.  Each view's
          last mark names the phase where the hardware discipline stopped
          the request; rendered by [thc attack]'s span drill-down.  Not
          part of the JSONL export, whose bytes are unchanged. *)
}

val holds : result -> bool
(** The paper's prediction for this (attack, target) pair: under [Minbft],
    no safety violation {e and} a nonzero hardware-rejection count; under
    [Unattested], a safety violation; under [Ubft], no safety violation
    {e and} nonzero register-op rejections ([swmr.append_denied] from the
    forgery probe), with the honest client additionally finishing for the
    omission kinds ([Stale_read]/[Withheld_append] — availability
    recovered by quorum slack or view change). *)

val run :
  ?f:int ->
  ?seed:int64 ->
  ?corrupt_at:int64 ->
  ?script:Thc_sim.Adversary.t ->
  ?network:Thc_network.Model.t ->
  target:target ->
  attack:kind ->
  unit ->
  result
(** One attack run, deterministic in [(f, seed, corrupt_at, script)].
    Defaults: [f = 1], [seed = 1], [corrupt_at = 5000]µs.  [script]
    composes an additional network-fault schedule (crashes, partitions —
    e.g. drawn by {!Thc_sim.Adversary.random}) on top of the corruption;
    the run horizon is extended past the script's horizon so held traffic
    drains before verdicts are read.  [network] lowers a named topology
    onto the rig's links ({!Thc_network.Model.install}; re-lowered after
    every scripted heal); rational client strategies are ignored — the
    rigs' scripted clients are attack fixtures, not a workload.

    The rig's engine records outputs and crashes only
    ({!Thc_sim.Engine.Outputs_only}): that is all the verdict reads, and
    the explorer runs thousands of these.  [messages] is therefore counted
    by the engine's link counter ({!Thc_obsv.Link_stats.sends}), which
    equals {!Thc_sim.Trace.messages_sent} of the full trace. *)

val run_export :
  ?f:int ->
  ?seed:int64 ->
  ?corrupt_at:int64 ->
  ?script:Thc_sim.Adversary.t ->
  ?network:Thc_network.Model.t ->
  attack:kind ->
  unit ->
  result * string
(** Like {!run} against the [Minbft] target, but recording the full
    engine trace ({!Thc_sim.Engine.Full}) and also returning it as JSONL
    ({!Thc_sim.Trace.to_jsonl} with {!Thc_util.Codec.encode}d messages).
    The result equals {!run}'s field for field.  Byte-deterministic per
    [(f, seed, corrupt_at, script)] — the attack driver's contribution to
    the golden-trace equivalence corpus. *)

val pp_result : Format.formatter -> result -> unit
