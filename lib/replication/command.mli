(** Client requests and replies shared by both replication protocols. *)

type request = {
  client : int;  (** Client pid (also the signer). *)
  rid : int;  (** Client-local request id. *)
  op : string;  (** Encoded {!Kv_store.op}. *)
}

type signed_request = request Thc_crypto.Signature.signed

val make :
  ident:Thc_crypto.Keyring.secret -> rid:int -> Kv_store.op -> signed_request

val valid : Thc_crypto.Keyring.t -> signed_request -> bool
(** Signature verifies and the signer is the request's client. *)

val digest : request -> int64
(** Binding digest used in votes/certificates. *)

val key : request -> int * int
(** Dedup key [(client, rid)]. *)

val pp : Format.formatter -> request -> unit

type batch = signed_request list
(** One consensus slot's worth of requests: the leader accumulates pending
    signed requests and proposes them as a single batch, amortizing one
    proposal (and, on MinBFT, one trusted-counter attestation) across every
    request in it.  Order within a batch is the committed execution order. *)

val batch_digest : batch -> int64
(** Binding digest over the member-request digests, in order.  Independent
    of the signatures, so any party that knows the request values (e.g. the
    deterministic no-op filler during a PBFT view change) can predict it. *)

val batch_digest_of_requests : request list -> int64
(** {!batch_digest} over bare (unsigned) request values. *)

val batch_valid : Thc_crypto.Keyring.t -> batch -> bool
(** Non-empty and every member request is {!valid}. *)

val batch_keys : batch -> (int * int) list
(** Dedup keys of the member requests, in batch order. *)

val pp_batch : Format.formatter -> batch -> unit

type reply = { replica : int; rid : int; result : string }
(** A replica's response; clients wait for matching replies from a quorum. *)

module Collector : sig
  type t
  (** Client-side reply matching: a request is complete when [quorum]
      replicas returned the same result for its [rid].  Each request's
      replies and send time are kept until it completes; after that only
      its completion mark is. *)

  val create : quorum:int -> t

  val sent : t -> rid:int -> at:int64 -> unit
  (** [rid] was sent at [at] (a resend replaces the time).  Ignored once
      [rid] has completed. *)

  type completion = {
    result : string;
    sent_at : int64 option;  (** From {!sent}; [None] if never sent. *)
  }

  val add : t -> reply -> completion option
  (** [Some] the first time [rid] reaches a quorum of matching results;
      [None] otherwise, and for every reply after that. *)

  val completed : t -> rid:int -> bool

  val outstanding : t -> rid:int -> bool
  (** [rid] has a send time or replies held: it was sent or answered and
      has not completed. *)
end
