(** Unforgeable transferable signatures (simulated).

    The paper's preliminaries assume "unforgeable transferable signatures":
    any process can verify any signature it receives, and signatures can be
    forwarded inside other messages without losing verifiability.  Both
    properties hold here: a signature is plain data (transferable), and
    producing a verifying tag requires the signer's {!Keyring.secret}
    (unforgeable, see {!Keyring}). *)

type t = { signer : int; tag : int64 }
(** A detached signature.  The record is exposed so signatures can be
    embedded in wire messages, serialized, and inspected by validators; the
    [tag] cannot be produced without the signer's secret. *)

val sign : Keyring.secret -> string -> t
(** Sign a byte string. *)

val sign_value : Keyring.secret -> 'a -> t
(** Sign a value's canonical serialization.  The value must be immutable:
    the keyring's memo remembers it, so that {!verify_value} of this very
    value skips the hash (see {!Keyring}). *)

val verify : Keyring.t -> t -> string -> bool
(** Does [t] verify over these bytes under the registry? *)

val verify_value : Keyring.t -> t -> 'a -> bool
(** [verify] over the value's canonical serialization.  Answers from the
    keyring's memo when it holds this very value ([==]) under the same
    signer and tag, and hashes otherwise; the memo holds host work only,
    so the verdict is always the hash's. *)

val counterfeit : signer:int -> tag:int64 -> t
(** Construct a signature record with an arbitrary tag — what a Byzantine
    process "forging" a signature can do.  Tests use it to demonstrate that
    verification rejects such records (except with negligible probability of
    guessing the 64-bit tag). *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit

type 'a signed = { value : 'a; signature : t }
(** A value travelling with a signature over it. *)

val seal : Keyring.secret -> 'a -> 'a signed
(** Sign and attach. *)

val sealed_ok : Keyring.t -> 'a signed -> bool
(** Check that the attached signature covers the attached value. *)

val sealed_by : Keyring.t -> 'a signed -> expect:int -> bool
(** [sealed_ok] and the signer is [expect]. *)
