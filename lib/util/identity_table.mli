(** A small fixed table that remembers one value per key object.

    Keys are found by an [int64] tag and by identity ([==]), never by
    structure, so a lookup costs two comparisons per slot and no hashing.
    The table has 64 slots taken as 32 pairs: a tag's low bits pick the
    pair, whose first slot holds the newer entry, and adding to a full pair
    drops the older one.  Slots live in parallel arrays written in place,
    so adding allocates nothing.  Every slot keeps its key and value alive,
    which is why the table stays this small. *)

type ('k, 'v) t

val create : vacant:'k -> 'v -> ('k, 'v) t
(** An empty table whose slots hold [vacant] and the given value.  [vacant]
    must be a block no caller can look up (one private to the creator), so
    that no lookup matches an empty slot. *)

val find : ('k, 'v) t -> tag:int64 -> 'k -> int
(** The slot holding this very key ([==]) under [tag], or [-1]. *)

val value : ('k, 'v) t -> int -> 'v
(** The value stored in a slot {!find} returned. *)

val add : ('k, 'v) t -> tag:int64 -> 'k -> 'v -> unit
(** Remember [v] for this key under [tag], in the first slot of the tag's
    pair. *)
