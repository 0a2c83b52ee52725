(** Binary min-heap priority queue — test code.

    The reference model that [test_util]'s calendar-queue property test
    checks [Thc_util.Calendar_queue] against, with [test_util]'s own heap
    cases; nothing under [lib/] uses it.  Callers that need a
    deterministic order embed a tie-breaking sequence number in their
    keys. *)

type ('k, 'v) t
(** Mutable heap of values ['v] keyed by ['k]. *)

val create : compare:('k -> 'k -> int) -> ('k, 'v) t
(** [create ~compare] returns an empty heap ordered by [compare]. *)

val length : ('k, 'v) t -> int
(** Number of stored entries. *)

val is_empty : ('k, 'v) t -> bool

val push : ('k, 'v) t -> 'k -> 'v -> unit
(** Insert an entry.  O(log n). *)

val peek : ('k, 'v) t -> ('k * 'v) option
(** Smallest entry without removing it. *)

val pop : ('k, 'v) t -> ('k * 'v) option
(** Remove and return the smallest entry.  O(log n). *)

val clear : ('k, 'v) t -> unit
(** Remove all entries. *)

val to_sorted_list : ('k, 'v) t -> ('k * 'v) list
(** Non-destructive ascending listing (copies; O(n log n)).  For tests and
    trace dumps. *)
