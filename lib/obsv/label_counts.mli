(** Counters keyed by label string, found by identity before hashing.

    Trusted-op labels are string literals at their call sites, so every
    charge of one label passes the same physical string.  The first few
    labels a table meets are remembered by identity ([==]) in a small
    array that is scanned before the hash table, so a charge under one of
    them hashes nothing.  Any other string — a fresh copy of an equal
    label, or a label past the front — falls back to the hash table and
    reaches the same counter, so no count depends on which copy of a label
    arrived. *)

type t

val create : unit -> t

val add : t -> string -> int -> unit
(** Add to the label's counter, creating it at the first charge (a first
    charge of 0 still creates a row). *)

val find : t -> string -> int
(** 0 for labels never charged. *)

val fold : (string -> int -> 'a -> 'a) -> t -> 'a -> 'a
(** Over every charged label, in unspecified order. *)

val length : t -> int
(** Distinct labels charged. *)
