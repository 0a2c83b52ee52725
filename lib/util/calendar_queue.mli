(** Int-keyed calendar queue with a binary-heap fallback.

    The discrete-event simulator's event queue: entries are keyed by an
    integer [time] plus an integer [tie] that the caller keeps strictly
    monotone, so pop order — ascending [(time, tie)] — is a total order
    equal to insertion order at equal times.

    The near future (one "year" of [nbuckets * width] time units) is an
    array of fixed-width bucket slices for the dense in-flight window a
    simulation generates.  Each bucket keeps its entries sorted by
    [(time, tie)] behind a head index: a push inserts from the tail, O(1)
    for the in-order pushes of a broadcast wave, and a pop takes the head,
    so a burst of k events at one instant drains in O(k).  Events past the
    year fall back to a binary min-heap and migrate into the calendar when
    it re-anchors, so sparse horizons (e.g. a lone timer far beyond the
    in-flight traffic) cost O(log n) instead of a walk over empty buckets.
    Both sides store keys in flat parallel [int] arrays rather than boxed
    tuples.

    Not thread-safe; all operations are single-domain, like the engine
    that owns it. *)

type 'v t

val create : ?nbuckets:int -> ?width:int -> null:'v -> unit -> 'v t
(** Empty queue.  [width] is the bucket slice in time units (default 32),
    [nbuckets] the slices per year (default 256).  [null] is a sentinel
    value written into vacated slots so the queue never pins a popped
    value against the GC.  Raises [Invalid_argument] if either parameter
    is < 1. *)

val length : 'v t -> int
(** Live entries (pushed, not yet popped or cancelled). *)

val is_empty : 'v t -> bool

val push : 'v t -> time:int -> tie:int -> 'v -> unit
(** Insert an entry.  [time] must be non-negative ([Invalid_argument]
    otherwise); [tie] values must be unique across the queue's lifetime
    — the engine's per-push counter.  A [time] earlier than the current
    extraction point is admitted (it lands in the cursor bucket and is
    still popped in correct [(time, tie)] order); the simulator clamps
    such pushes to [now] before they get here.  O(1) unless the entry
    sorts before others already in its bucket, which it then walks past
    from the tail. *)

val peek : 'v t -> (int * int * 'v) option
(** Minimum entry as [(time, tie, v)] without removing it.  May advance
    internal cursors and purge cancelled entries. *)

val pop : 'v t -> (int * int * 'v) option
(** Remove and return the minimum entry. *)

val take : 'v t -> 'v
(** Remove the minimum entry and return its value, allocating nothing;
    {!taken_time} and {!taken_tie} then read its key.  On an empty queue
    it returns the [null] given to {!create} and changes nothing, so a
    caller whose [null] can also be a pushed value tests {!is_empty}
    first. *)

val taken_time : 'v t -> int
(** The [time] of the entry {!take} last removed. *)

val taken_tie : 'v t -> int
(** The [tie] of the entry {!take} last removed. *)

val cancel : 'v t -> tie:int -> unit
(** Cancel the pending entry pushed with [tie].  The entry is dropped
    lazily on a later [pop]/[peek] sweep; [length] reflects the
    cancellation immediately; cancelled entries leave their bucket in
    order, as they reach its head.  The tie {e must} identify an entry
    currently in the queue (pushed, not yet popped or cancelled) —
    cancelling anything else corrupts the length accounting. *)

val clear : 'v t -> unit
(** Drop every entry and reset the year to time 0. *)
