(** Byte-string serialization of protocol values.

    Signatures and trusted-hardware attestations bind to byte strings, so
    protocol payloads are serialized before signing and on the wire between
    layered protocols.  Uses [Marshal]; within one simulation binary this is
    deterministic and round-trips all immutable values we exchange. *)

val encode : 'a -> string
(** Serialize any value to a byte string. *)

val encode_into : bytes ref -> 'a -> int
(** [encode_into buf v] writes [encode v]'s bytes at the start of [!buf]
    and returns their length [len]: [Bytes.sub_string !buf 0 len] equals
    [encode v].  When they do not fit, [!buf] is replaced by one twice as
    long, as often as needed, so a caller that keeps [buf] allocates only
    while it grows. *)

val decode : string -> 'a
(** Deserialize.  The caller fixes the type; decoding at a wrong type on
    attacker-supplied bytes is outside the simulation's threat model (real
    systems use tagged wire formats). *)
