(** Key distribution for the simulated public-key infrastructure.

    A [Keyring.t] is created once per experiment by the harness; it plays the
    role of a PKI in which every process knows every public key.  Each
    process — including Byzantine ones — is handed only its own [secret], so
    unforgeability holds by construction: producing a tag that verifies as
    process [p] requires [p]'s secret, whose entropy never leaves this
    module.

    {b Signature memo.}  Every process of a simulated cluster verifies the
    same signed values, so each keyring remembers the values it signed or
    verified, with signer and tag, in a {!Thc_util.Identity_table} (64
    fixed slots).  {!check_value_tag} accepts without hashing only the very
    value ([==]) remembered with that signer and tag.  The memo holds host work only: a
    tag is a function of signer and value, so for an immutable value the
    hash would give the same answer, and every verdict equals
    {!check_tag}'s.  Values signed with {!attach_value_tag} must therefore
    be immutable: one changed in place after signing could still be
    accepted from the memo.  Only signing and a verification that passes
    fill a slot. *)

type t
(** The public registry: verification data for all [n] processes. *)

type secret
(** A signing capability bound to one process identity.  Also serves as the
    identity token checked by shared-memory ACLs and trusted hardware. *)

val create : Thc_util.Rng.t -> n:int -> t
(** Generate keys for processes [0 .. n-1]. *)

val n : t -> int
(** Number of registered identities. *)

val secret : t -> pid:int -> secret
(** The signing capability of [pid].  The harness calls this when wiring up
    processes; protocol code never does.  Raises [Invalid_argument] for an
    unknown pid. *)

val pid_of_secret : secret -> int
(** The identity a secret signs as. *)

val attach_tag : secret -> Digest.t -> int64
(** Compute the authentication tag of a digest under a secret.  Building
    block for {!Signature}; binding is to (identity, digest). *)

val check_tag : t -> signer:int -> digest:Digest.t -> tag:int64 -> bool
(** Registry-side verification of a tag.  False for unknown signers rather
    than raising, so attacker-supplied signer ids are handled uniformly. *)

val attach_value_tag : secret -> 'a -> int64
(** [attach_tag] over [Digest.of_value v], remembering [v] in the memo as
    signed by this secret's pid under the returned tag. *)

val check_value_tag : t -> signer:int -> tag:int64 -> 'a -> bool
(** [check_tag] over [Digest.of_value v]; always the same verdict.  True
    without hashing when the memo holds this very value ([==]) under
    [signer] and [tag]; a value that verifies by hashing is remembered. *)
