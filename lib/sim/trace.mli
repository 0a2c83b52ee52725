(** Execution traces.

    The engine records every externally meaningful event; property monitors
    (the executable forms of the paper's definitions) and the
    indistinguishability checks of the separation arguments are all queries
    over these traces. *)

type 'm entry =
  | Sent of { time : int64; src : int; dst : int; seq : int; msg : 'm }
  | Delivered of { time : int64; src : int; dst : int; seq : int; msg : 'm }
  | Held of { time : int64; src : int; dst : int; seq : int }
      (** Message queued on a blocked link. *)
  | Dropped of { time : int64; src : int; dst : int; seq : int }
  | Timer_fired of { time : int64; pid : int; tag : int }
  | Crashed of { time : int64; pid : int }
  | Output of { time : int64; pid : int; obs : Obs.t }

type 'm t = {
  n : int;
  byzantine : int list;  (** Processes marked faulty by the harness. *)
  entries : 'm entry list;  (** In execution order. *)
  end_time : int64;
}

val correct : 'm t -> int -> bool
(** Not marked Byzantine and never crashed.  Walks the whole trace on every
    call, so a loop over pids or outputs should call {!correct_pids} once
    instead. *)

val correct_pids : 'm t -> int list
(** The pids [0 .. n-1] that are {!correct}, ascending, from one walk of
    the trace. *)

val outputs : 'm t -> (int64 * int * Obs.t) list
(** All [(time, pid, obs)] outputs in order. *)

val outputs_of : 'm t -> int -> Obs.t list
(** Outputs of one process, in order. *)

val outputs_matching : 'm t -> (int -> Obs.t -> 'a option) -> (int64 * 'a) list
(** Project outputs through a partial function (pid, obs). *)

val decision_of : 'm t -> int -> string option option
(** First [Decided] output of a process: [None] if it never decided,
    [Some d] with [d] the (possibly ⊥ = [None]) decision. *)

val reception_transcript : 'm t -> int -> (int * string) list
(** The local receive history of a process: [(src, canonical msg bytes)] in
    delivery order.  Two runs are indistinguishable to [pid] up to a point
    iff their transcripts (plus timer firings) coincide; the separation
    scenarios compare these. *)

val count : 'm t -> ('m entry -> bool) -> int

val messages_sent : 'm t -> int
(** Total [Sent] entries (message-complexity metric). *)

val pp : (Format.formatter -> 'm -> unit) -> Format.formatter -> 'm t -> unit
(** Full dump (for debugging small runs). *)

val map_msg : ('m -> 'n) -> 'm t -> 'n t
(** Rewrite the message payloads (e.g. encode for export). *)

val entry_to_json : encode_msg:('m -> string) -> 'm entry -> Thc_obsv.Json.t

val to_jsonl : encode_msg:('m -> string) -> 'm t -> string
(** One-line header (n, byzantine pids, end time) followed by one JSON
    object per entry, in execution order.  [encode_msg] may return
    arbitrary bytes ({!Thc_util.Codec.encode} included): the JSON layer
    escapes them losslessly.  Deterministic — identical traces export to
    identical bytes. *)

val of_jsonl : string -> (string t, string) result
(** Parse a {!to_jsonl} export back into a trace whose messages are the
    encoded strings; lines of unknown [type] (metrics snapshots appended
    to the same file) are skipped.  Round trip:
    [of_jsonl (to_jsonl ~encode_msg t) = Ok (map_msg encode_msg t)].
    A malformed entry, including an output whose ["obs"] is not codec
    bytes, is an [Error] naming its line number. *)
