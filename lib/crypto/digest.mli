(** 64-bit message digests.

    Simulated stand-in for a cryptographic hash: FNV-1a over bytes, mixed
    through SplitMix64's finalizer.  Collision-resistance is probabilistic at
    64 bits, which is ample for simulation-scale message volumes; the
    security argument in the reproduced paper needs only that distinct
    messages are distinguishable. *)

type t
(** An immutable digest value. *)

val of_string : string -> t
(** Digest of raw bytes. *)

val of_value : 'a -> t
(** Digest of a serialized value: equal, bit for bit, to
    [of_string (Codec.encode v)].  It hashes the encoding where
    {!Thc_util.Codec.encode_into} wrote it, in a scratch buffer reused per
    domain, so no string is allocated for it. *)

val combine : t -> t -> t
(** Order-sensitive combination (for chains and certificates). *)

val to_int64 : t -> int64
(** Raw 64-bit value (for embedding digests in tags and counters). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val to_hex : t -> string
val pp : Format.formatter -> t -> unit
