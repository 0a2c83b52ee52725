(** Trace-level metrics for the benchmark tables.

    Message-kind breakdowns and rate summaries computed from finished
    traces; protocol libraries provide the classifier (a function from
    their wire type to a short label). *)

val kind_counts :
  'm Trace.t -> classify:('m -> string) -> (string * int) list
(** Sent messages grouped by classifier label, descending by count.
    Equal counts come in a fixed order that depends only on the labels
    and the order in which they first appear. *)

type 'm kind_tally
(** {!kind_counts} kept live: fed one message per send (for example from
    {!Engine.on_send}) instead of folded over a finished trace.  An
    [Outputs_only] run has no [Sent] entries to fold. *)

val kind_tally : classify:('m -> string) -> 'm kind_tally

val tally_send : 'm kind_tally -> 'm -> unit
(** Count one sent message.  [classify] must be a pure function: a
    message physically equal to the previous one reuses its label. *)

val tally_counts : 'm kind_tally -> (string * int) list
(** What {!kind_counts} returns for a trace whose [Sent] entries carry
    the tallied messages in the same order, equal counts included. *)

val sends_by_source : 'm Trace.t -> (int * int) list
(** [(pid, messages sent)] for every pid that sent anything, ascending pid. *)

type delivery_report = {
  latencies : float list;
      (** Per-message µs between [Sent] and its [Delivered] (matched by
          engine sequence number), in delivery order. *)
  delivered : int;  (** Sends that were eventually delivered. *)
  held_at_end : int;
      (** Sends still sitting in a blocked link's queue when the trace
          ended — previously silently excluded from every metric. *)
  dropped : int;  (** Sends dropped by link policy. *)
  in_flight_at_end : int;
      (** Sends scheduled for delivery that the run's horizon cut off. *)
}

val delivery_report : 'm Trace.t -> delivery_report
(** Full delivery accounting: every [Sent] is attributed to exactly one of
    [delivered] / [dropped] / [held_at_end] / [in_flight_at_end]. *)

val delivery_latencies : 'm Trace.t -> float list
(** [(delivery_report trace).latencies] — kept for existing callers. *)

val events_per_virtual_ms : 'm Trace.t -> float
(** Trace entries per virtual millisecond — a load measure. *)
