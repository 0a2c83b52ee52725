(** TrInc — trusted incrementer (Levin et al., NSDI 2009).

    Faithful to the interface in the paper's Figure "TrInc Interface": each
    process owns a {e trinket} with a monotonically consumed sequence-number
    space.  [attest ~counter ~message] returns an attestation binding
    [(prev, counter, message)] — where [prev] is the previously attested
    sequence number — if and only if [counter] is strictly higher than every
    sequence number attested so far; otherwise it returns [None].  Hence no
    two distinct messages can ever carry the same (owner, counter) pair:
    equivocation on a sequence number is impossible.

    Trust model: the trinket's attestation key lives inside the abstract
    {!world}; a process (Byzantine included) holds only its own {!t}
    capability, obtained exactly once via {!trinket}, so it can neither
    forge other trinkets' attestations nor rewind its own counter. *)

type world
(** The manufacturer/verification side: attestation keys for all trinkets
    plus public checking data.  Created once per experiment. *)

type t
(** A trinket capability bound to one owner process. *)

type attestation = {
  owner : int;  (** Which trinket produced it. *)
  prev : int;  (** Sequence number of the previous attestation (0 at start). *)
  counter : int;  (** The attested sequence number. *)
  message : string;  (** The attested message bytes. *)
  tag : int64;  (** Unforgeable binding over all fields. *)
}

val create_world : Thc_util.Rng.t -> n:int -> world
(** Provision trinkets for processes [0 .. n-1]. *)

val create_unattested_world : Thc_util.Rng.t -> n:int -> world
(** The same world with monotonicity removed — the ablation's hardware.
    Draws exactly the RNG values {!create_world} draws.  Its trinkets
    attest {e any} counter, including one already used, with
    [prev = counter - 1]; {!check} still verifies the tag, so
    authentication stays and only non-equivocation goes.  It charges no
    [trinc.*] ledger ops, so runs on it report 0 trusted ops.  On a dense
    counter stream (every correct replica's) the attestations are
    byte-identical to {!create_world}'s. *)

val ledger : world -> Thc_obsv.Ledger.t
(** Trusted-op accounting shared by the world and every trinket claimed
    from it: ["trinc.attest"], ["trinc.attest_denied"] (stale counter),
    ["trinc.check"], ["trinc.check_fail"]. *)

val ledger_of : t -> Thc_obsv.Ledger.t
(** The claiming world's ledger (for wrappers built over a bare trinket,
    e.g. {!A2m_from_trinc}). *)

val trinket : world -> owner:int -> t
(** Claim the trinket of [owner].  Callable exactly once per owner (the
    harness wires it to the process); a second call raises [Invalid_argument]
    — this is what stops Byzantine code from obtaining a victim's trinket. *)

val attest : t -> counter:int -> message:string -> attestation option
(** The paper's [Attest(c, m)]: [Some a] iff [counter] is strictly greater
    than any previously attested sequence number on this trinket. *)

val check : world -> attestation -> id:int -> bool
(** The paper's [CheckAttestation(a, q)]: true iff [a] was produced by
    trinket [id] (owner matches and the tag verifies).

    The world remembers, by tag, every attestation its trinkets produced
    and every one [check] accepted; an attestation equal field for field
    to the remembered one is accepted without hashing its tag again.  The
    memo caches host work only, never a verdict or a charge: the result
    is the hash path's, and every call charges ["trinc.check"] (and
    ["trinc.check_fail"] when it returns false) exactly as before. *)

val last_counter : t -> int
(** Highest sequence number attested so far (0 if none). *)

val counterfeit :
  owner:int -> prev:int -> counter:int -> message:string -> tag:int64 ->
  attestation
(** Build an attestation record with arbitrary fields — the forgery a
    Byzantine process can attempt.  Tests confirm {!check} rejects it. *)
