(** Network instrumentation for the simulation engine.

    Tracks, per engine: messages sent (in total and per source) /
    delivered / dropped, the number of messages currently in flight
    (enqueued for delivery but not yet dispatched) with its high-water
    mark, and the per-link queues of messages held on blocked links —
    current depth, deepest single-link queue ever, the total ever held,
    and how many of those never reached a live destination.  The engine
    drives the [on_*] transitions; everything here is passive
    bookkeeping, so enabling it never perturbs a run. *)

type t

val create : n:int -> t

(** {2 Transitions (called by {!Thc_sim.Engine})} *)

val on_send : t -> src:int -> unit

val on_enqueue : t -> unit
(** Message scheduled for delivery. *)

val on_dequeue : t -> unit
(** Delivery event dispatched (leaves the in-flight set even when the
    destination has crashed). *)

val on_deliver : t -> unit
(** Message actually handed to a live destination. *)

val on_held : t -> src:int -> dst:int -> unit

val on_release : t -> src:int -> dst:int -> unit
(** One message leaves the link's held queue (re-routed or dropped). *)

val on_drop : t -> unit

val on_settle : t -> unit
(** A message that was once held reached a live destination or was
    dropped. *)

(** {2 Queries} *)

val sends : t -> int

val delivered : t -> int

val dropped : t -> int

val in_flight : t -> int

val in_flight_hwm : t -> int

val held_now : t -> int
(** Messages currently held across all links. *)

val held_total : t -> int
(** Messages ever held. *)

val held_hwm : t -> int
(** Deepest single-link held queue ever seen. *)

val held_depth : t -> src:int -> dst:int -> int

val held_unsettled : t -> int
(** Messages ever held that were neither delivered to a live destination
    nor dropped: the held-at-end count of a [Full] trace's delivery
    report ([Thc_sim.Metrics.delivery_report]).  It exceeds {!held_now}
    by the released messages that met a crashed destination or were
    still in flight when the run ended. *)

val sends_by_source : t -> (int * int) list
(** [(pid, messages sent)] for every pid that sent anything, ascending
    pid. *)

val rows : t -> (string * int) list
(** Summary as [(metric, value)] rows, fixed order. *)

val to_json : t -> Json.t
