(** Hash tables over the simulator's small typed keys.

    Every table here compares keys with a typed equality, so a lookup
    never calls the polymorphic [compare] that [Stdlib.Hashtbl] uses.  They
    differ in how they hash, and that decides where each may be used.

    {b The order rule.}  [fold], [iter] and [to_seq] visit a table in an
    order fixed by its hash function and by the history of its adds,
    removals and resizes.

    - The top-level tables ({!Int}, {!Pair}, {!Triple}, {!Tag}) hash with a
      few integer operations and no C call.  Their iteration order is not
      [Stdlib.Hashtbl]'s.  Use one only for a table that is never walked,
      or whose walks do not depend on the order: a count, a test, removals,
      or a list that is sorted by a unique key before use.
    - The {!Hash_order} tables hash exactly as [Hashtbl.hash] does, so a
      table fed the same operations iterates in the same order as a
      polymorphic [Stdlib.Hashtbl].  Use them where a walk reaches a
      message, an output or a report in hash order: moving such a table to
      a cheap hash would move simulated bytes. *)

module Int : Hashtbl.S with type key = int
(** Keyed by an [int] (request id, sequence number, counter), hashed as
    itself. *)

module Pair : Hashtbl.S with type key = int * int
(** Keyed by [(client, rid)] or [(view, seq)]. *)

module Triple : Hashtbl.S with type key = int * int * int64
(** Keyed by [(view, seq, batch digest)]. *)

module Tag : Hashtbl.S with type key = int64
(** Keyed by a digest-derived tag, hashed by its low bits: the key must
    already be well mixed. *)

(** The same keys, and string keys, hashed by [Hashtbl.hash]. *)
module Hash_order : sig
  module Int : Hashtbl.S with type key = int

  module Pair : Hashtbl.S with type key = int * int

  module String : Hashtbl.S with type key = string
end
