(** Ablation: what breaks when the trusted hardware is removed.

    The classification's systems-level payoff is that non-equivocation lets
    BFT replication run f+1-of-2f+1 quorums.  This module removes exactly
    that ingredient and keeps everything else fixed {e by construction}:
    both experiments run the same {!Minbft} replicas, {!Attested_link}s and
    attack, and differ only in the world their trinkets come from.  The
    unattested world ({!Thc_hardware.Trinc.create_unattested_world}) keeps
    authentication (tags still verify) but attests any counter, including
    one already used — so a Byzantine leader can once again send different
    proposals to different halves under one counter.

    The attack: the leader seals proposal A for slot 1 and re-attests a
    conflicting proposal B at the same counter (a rewind), showing A to
    replicas [1..f] and B to replicas [f+1..2f].

    - {!equivocation_splits_unattested} — the unattested world grants the
      rewind: correct replicas execute different operations at one
      sequence number, and the safety monitor reports it.
    - {!equivocation_fails_against_minbft} — TrInc refuses the rewind
      ([trinc.attest_denied]); B can only take the next counter, a gap that
      receivers hold back, so at most one proposal can ever commit.

    Together they certify that the hardware — not the quorum arithmetic —
    carries the safety argument. *)

type result = {
  violations : Smr_spec.violation list;
      (** Safety violations among correct replicas. *)
  distinct_ops_at_seq1 : int;
      (** How many different operations correct replicas executed at seq 1. *)
  messages : int;  (** Messages sent during the run. *)
  duration_us : int64;  (** Virtual end time. *)
  commits : int;  (** Distinct committed sequence numbers ({!Smr_spec.commits}). *)
  trusted_ops : (string * int) list;
      (** Hardware-op ledger rows; [[]] on the unattested world, which
          charges nothing. *)
  detail : string;
}

val equivocation_splits_unattested : ?f:int -> ?seed:int64 -> unit -> result
(** Expected: [violations <> []] and [distinct_ops_at_seq1 = 2].  Like
    every entry point here, raises [Invalid_argument] if [f < 1]: the
    equivocating leader is one of the f faults. *)

val equivocation_fails_against_minbft : ?f:int -> ?seed:int64 -> unit -> result
(** Expected: [violations = []] and [distinct_ops_at_seq1 <= 1]. *)

val unattested_under_script :
  ?f:int ->
  ?network:Thc_network.Model.t ->
  seed:int64 -> script:Thc_sim.Adversary.t -> unit -> result
(** The unattested split attack under an additional scripted fault schedule
    — the known-bad target of the {!Thc_check} fault explorer.  The split
    succeeds under (almost) any admissible schedule; schedules that crash a
    victim replica before it adopts a proposal mask the violation, which is
    exactly what script shrinking strips away. *)

val pp_result : Format.formatter -> result -> unit
