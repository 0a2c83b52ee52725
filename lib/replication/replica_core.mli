(** The replica front end that MinBFT, PBFT and uBFT share.

    Each protocol embeds one ['m t] as its [core] field, where ['m] is its
    wire type.  The core owns request intake, the leader's batch queue, the
    execution of committed slots against {!Kv_store}, and the escalation
    clock that turns a stuck request into a view-change attempt.  The
    ordering protocol stays in the protocol's own file, which passes in
    what differs: its [propose] function (with its own state, so no closure
    is allocated per flush) and what it sends to escalate.

    The order of every send, output and timer call here is part of the
    contract: the golden traces and the PBFT/uBFT export pins fix it. *)

type status = Normal | Changing of int  (** [Changing v]: moving to view [v]. *)

val check_timer_tag : int
(** The periodic stuck-request check. *)

val batch_timer_tag : int
(** The leader's partial-batch flush. *)

type 'm t = {
  self : int;
  n : int;  (** Replicas; view [v]'s leader is [v mod n]. *)
  keyring : Thc_crypto.Keyring.t;
  request_timeout : int64;  (** µs before a pending request is stuck. *)
  check_interval : int64;  (** µs between stuck-request checks. *)
  batch_size : int;
  batch_delay : int64;  (** µs a partial batch waits before a flush. *)
  reply : Command.reply -> 'm;  (** The protocol's [Reply] constructor. *)
  store : Kv_store.t;
  mutable view : int;
  mutable status : status;
  mutable next_seq : int;  (** Leader: next sequence number to assign. *)
  mutable exec_upto : int;  (** Highest executed slot. *)
  mutable exec_count : int;  (** Dense per-request execution index. *)
  queue : Command.signed_request Queue.t;
      (** Leader: requests accumulating into the next batch. *)
  queued : unit Thc_util.Keyed.Pair.t;  (** Request keys now queued. *)
  mutable batch_armed : bool;  (** A batch timer is outstanding. *)
  pending : (Command.signed_request * int64) Thc_util.Keyed.Pair.t;
      (** Request key -> (request, arrival time or last clock restart). *)
  proposed_keys : int Thc_util.Keyed.Pair.t;
      (** Request key -> seq, until the request executes: from then on
          [executed] answers every question this table would. *)
  executed : string Thc_util.Keyed.Pair.t;  (** Request key -> result. *)
  mutable max_vc_sent : int;  (** Highest view this replica asked for. *)
  mutable last_vc_at : int64;  (** When it last escalated. *)
}

val create :
  self:int ->
  n:int ->
  keyring:Thc_crypto.Keyring.t ->
  request_timeout:int64 ->
  check_interval:int64 ->
  batch_size:int ->
  batch_delay:int64 ->
  reply:(Command.reply -> 'm) ->
  'm t
(** View 0, [Normal], next sequence number 1, nothing executed. *)

val leader_of : 'm t -> int -> int

val batch_rids : Command.batch -> int list

val table :
  ('k, ('a, 'b) Hashtbl.t) Hashtbl.t -> 'k -> int -> ('a, 'b) Hashtbl.t
(** [table tbl key size]: the inner table at [key], added as
    [Hashtbl.create size] if absent (the view-change and checkpoint vote
    and supporter sets; the per-slot vote sets are {!Thc_util.Keyed}
    tables). *)

val mark_proposed : 'm t -> int -> Command.batch -> unit
(** [mark_proposed c seq batch] records every request of [batch] as
    proposed at [seq]. *)

val next_slot : 'm t -> Command.batch -> int
(** Leader: assign [batch] the next sequence number, marked proposed. *)

val output_committed :
  'm Thc_sim.Engine.ctx -> view:int -> seq:int -> Command.batch -> unit
(** The [Committed] span mark and [Obs.Committed] output for a slot; a
    batch of several requests outputs their ops {!Thc_util.Codec}-encoded. *)

val execute_slot : 'm t -> 'm Thc_sim.Engine.ctx -> Command.batch -> unit
(** Execute slot [exec_upto + 1]: apply every request of the batch in
    order, emit [Obs.Executed] with the dense [exec_count] index, and reply
    to its client.  A request executed before is answered from [executed],
    not applied again.  Each request leaves [pending] and
    [proposed_keys]. *)

val intake : 'm t -> 'm Thc_sim.Engine.ctx -> Command.signed_request -> bool
(** A client request arrives.  An invalid one is dropped; an executed one
    is answered again from [executed] (a client retransmission); anything
    else is tracked in [pending].  At the leader of a [Normal] view an
    unproposed request also joins the batch queue, and [true] asks the
    caller to flush the queue and then {!arm_batch_timer}. *)

val flush :
  'm t ->
  'm Thc_sim.Engine.ctx ->
  force:bool ->
  ('s -> 'm Thc_sim.Engine.ctx -> Command.batch -> unit) ->
  's ->
  unit
(** [flush c ctx ~force propose st] hands every full batch to [propose st]
    in queue order; with [~force] also the partial rest (batch-delay expiry
    or view adoption).  Requests proposed or executed since they were
    queued are dropped, and an empty batch is never proposed. *)

val arm_batch_timer : 'm t -> 'm Thc_sim.Engine.ctx -> unit
(** Set the batch timer unless one is outstanding or the queue is empty. *)

val batch_timer_fired : 'm t -> bool
(** The batch timer fired: [true] if this replica leads a [Normal] view and
    should force a flush. *)

val arm_check_timer : 'm t -> 'm Thc_sim.Engine.ctx -> unit
(** Schedule the next stuck-request check, [check_interval] from now: an
    idle timer ({!Thc_sim.Engine.ctx}'s [set_idle_timer]) while no request
    is pending, a plain one otherwise.  A protocol's check handler must do
    nothing but {!escalation} and this re-arm, and nothing at all while
    [escalation] returns [0], so that the idle tick keeps the idle
    contract. *)

val escalation : 'm t -> now:int64 -> int
(** The view to ask for at [now], or [0] for none.  A replica escalates
    while some pending request has waited more than [request_timeout], at
    most once per [request_timeout] unless its last attempt is already
    behind its view; the target is one past the highest view it is in or
    asked for, and the attempt is recorded in [max_vc_sent]/[last_vc_at]. *)

val start_change : 'm t -> int -> bool
(** [start_change c v] moves to [Changing v] unless already changing to [v]
    or beyond; [true] if it moved. *)

val enter_view : 'm t -> 'm Thc_sim.Engine.ctx -> view:int -> unit
(** Adopt [view] in [Normal] status.  Every pending request's clock
    restarts now, so the new view gets a full timeout before anyone
    escalates again. *)

val requeue_pending : 'm t -> unit
(** New leader: queue every pending, unproposed request, in key order. *)

val reset : 'm t -> unit
(** A crash wipes the front end: store, execution indexes, queue, pending,
    proposed and executed requests; status back to [Normal].  The view,
    [next_seq] and the escalation clock survive. *)
