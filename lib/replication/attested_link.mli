(** TrInc-attested ordered channels: the MinBFT transport discipline.

    MinBFT's central idea (Veronese et al., after Chun et al.'s A2M-PBFT)
    is that if every protocol message a replica sends carries the next
    {e dense} counter value of its trusted incrementer, then a Byzantine
    replica can neither equivocate (two messages with one counter are
    impossible) nor selectively hide messages (a gap in the counter chain
    is visible to every receiver) — each replica's outbound stream becomes
    a sequenced reliable broadcast, exactly the paper's trusted-log class.
    That is what lets commit quorums shrink from 2f+1-of-3f+1 to
    f+1-of-2f+1.

    [Out] seals outgoing payloads; [In] verifies and releases each peer's
    stream strictly in counter order.  The sealed attestation's [message]
    field is the payload itself, so a replica's full sent-log (used by the
    view change) is just the list of its attestations, checkable for
    density by anyone. *)

module Out : sig
  type t

  val create : Thc_hardware.Trinc.t -> t
  (** Wrap this replica's claimed trinket. *)

  val seal : t -> string -> Thc_hardware.Trinc.attestation
  (** Attest the payload with the next dense counter. *)

  val sent_log : t -> Thc_hardware.Trinc.attestation list
  (** Everything sealed so far, counter-ascending — the view-change
      evidence.  A correct replica ships this; a Byzantine one cannot forge
      an alternative (see {!check_log}). *)

  val rewind : t -> string -> Thc_hardware.Trinc.attestation option
  (** Re-attest a payload at the counter sealed last — a rewind of the
      stream.  TrInc refuses ([None], charging [trinc.attest_denied]); the
      unattested world ({!Thc_hardware.Trinc.create_unattested_world})
      grants it.  The result is not added to {!sent_log}. *)
end

module In : sig
  type t

  val create : world:Thc_hardware.Trinc.world -> n:int -> t

  val accept :
    t ->
    Thc_hardware.Trinc.attestation ->
    Thc_hardware.Trinc.attestation list
  (** Verify an attestation and absorb it into its owner's stream.  Returns
      the attestations newly released {e in counter order} from that stream
      (empty while a gap remains); their [message] fields are the payloads.
      Forwarded attestations are accepted from any transport source —
      attestations are self-certifying.

      Rejections are charged to the owning world's trusted-op ledger:
      ["link.reject_malformed"] (owner out of range or broken [prev] link),
      ["link.reject_forged"] (tag check failed — also visible as
      ["trinc.check_fail"]) and ["link.reject_replay"] (counter at or below
      the released watermark, or a duplicate of a pending counter).
      Out-of-order but fresh attestations are held silently — reordering is
      the network's doing, not an attack. *)

  val delivered_upto : t -> owner:int -> int
end

val check_log :
  world:Thc_hardware.Trinc.world ->
  owner:int ->
  Thc_hardware.Trinc.attestation list ->
  string list option
(** Validate a complete sent-log: counters 1, 2, ... with matching [prev]
    links and verifying tags, all from [owner].  Returns the payload
    sequence, or [None] on any gap/forgery — the view-change acceptance
    test. *)
