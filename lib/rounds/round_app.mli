(** The interface between round drivers and round-based protocols.

    The paper's definitions (bidirectional / unidirectional /
    zero-directional communication) all quantify over systems that
    "implement rounds".  A {e round driver} (one per communication
    substrate: {!Swmr_rounds}, {!Async_rounds}, {!Sync_rounds},
    {!Delta_rounds}, {!Rb_rounds_f1}) turns a substrate into rounds; a
    {e round app} is a protocol written against rounds only, so the same
    app runs unchanged over every driver — which is exactly how the paper
    transfers algorithms between models ("replace all write operations with
    send-to-all, and all read operations with receiving a message").

    Driver trace contract (what the {!Directionality} monitors consume):
    - [Obs.Round_sent {round; payload}] — emitted when the process sends its
      round-[round] message;
    - [Obs.Round_received {round; from; payload}] — emitted when the process
      obtains [from]'s round-[round] message {e while its own current round
      is still [round]} (i.e., before it advances past [round]);
    - [Obs.Round_ended {round}] — emitted when the process advances past
      round [round] (or stops).

    Messages from other rounds are still handed to the app through
    [on_receive] (protocols like the paper's Algorithm 1 need stragglers
    and proofs from any round); they are just not round-[r] receptions. *)

type handle = {
  self : int;
  n : int;
  round : unit -> int;  (** Current round number (1-based). *)
  output : Thc_sim.Obs.t -> unit;  (** Record protocol-level observations. *)
  now : unit -> int64;
  rng : Thc_util.Rng.t;
}

type verdict =
  | Advance of string option
      (** Advance to the next round, sending the given payload in it
          ([None] = participate without sending). *)
  | Hold
      (** Stay in the current round and keep collecting messages; the
          driver will call [on_round_check] again when more arrive.  This
          is the paper's "until (unidirectional round is finished and
          ...)" pattern: the mechanical round has finished but the
          protocol's condition has not been met yet. *)
  | Stop  (** Leave the round system; no further callbacks. *)

type app = {
  first_payload : handle -> string option;
      (** Payload for round 1 ([None] = participate silently). *)
  on_receive : handle -> round:int -> from:int -> string -> unit;
      (** Any message obtained from the substrate, tagged with the round
          its sender sent it in. *)
  on_round_check : handle -> round:int -> verdict;
      (** Called when the mechanical round has finished, and again after
          each subsequent reception while the app [Hold]s.  Its verdict
          must be a function of what the process has received so far
          (and of inputs fixed before the run): it must not read [now] or
          [rng].  The shared-memory drivers rely on this to end a run at
          quiescence ({!Scan_rounds}): once a sweep reads nothing new, the
          next check must [Hold] again as the last one did. *)
}

val silent_app : app
(** Participates forever, never sends, never stops.  Base for tests. *)

val chatter : rounds:int -> app
(** Sends ["r<r>-p<self>"] in each round [r] and stops after round
    [rounds].  The round drivers' demonstration and benchmark app. *)
