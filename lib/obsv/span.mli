(** Request-span tracing: causal phase breakdown per client request.

    Each request (identified by its globally unique [rid]) becomes a root
    span whose life is a fixed sequence of virtual-time {e marks}:

    {v submit → ingress → propose → commit_send → committed → executed → done v}

    The six {e phases} are the gaps between consecutive marks (submit,
    batching, prepare, commit, execute, reply).  Marks are stamped with the
    engine's virtual clock, so span data is deterministic per seed and
    byte-identical at any [--jobs] value.  A recorder travels on the engine
    context ({!Thc_sim.Engine.ctx} — but this module has no sim dependency);
    every entry point is guarded by {!enabled}, and the {!nop} recorder
    makes the whole layer one boolean test on the hot path. *)

type mark =
  | Submit  (** Client handed the request to the network. *)
  | Ingress  (** Leader accepted it into the pending queue. *)
  | Propose  (** Leader sealed it into a batch (Prepare / Pre-prepare). *)
  | Commit_send  (** A replica's commit vote for its slot went out. *)
  | Committed  (** Commit quorum reached. *)
  | Executed  (** Applied to the state machine. *)
  | Reply_done  (** Client collected its reply quorum. *)

type phase =
  | Submit_phase  (** submit → ingress *)
  | Batching_phase  (** ingress → propose *)
  | Prepare_phase  (** propose → commit_send *)
  | Commit_phase  (** commit_send → committed *)
  | Execute_phase  (** committed → executed *)
  | Reply_phase  (** executed → done *)
  | Other_phase  (** Attribution-only: trusted ops outside any request. *)

val phase_name : phase -> string

type t
(** A mutable span recorder. *)

val create : unit -> t
(** A live recorder. *)

val nop : t
(** The disabled singleton: every operation is a no-op ([enabled nop] is
    [false]).  Engines created with tracing [Off] force this recorder. *)

val enabled : t -> bool

val mark : t -> ?client:int -> ?seq:int -> rid:int -> mark -> at:int64 -> unit
(** Stamp a mark on request [rid] at virtual time [at].  First write wins —
    re-deliveries and duplicate quorums never move a mark.  [client]/[seq]
    are recorded once known (first write wins there too). *)

val mark_all : t -> ?seq:int -> rids:int list -> mark -> at:int64 -> unit
(** {!mark} for every request of a batch. *)

val in_phase : t -> phase -> rids:int list -> (unit -> 'a) -> 'a
(** [in_phase t p ~rids f] runs [f] with trusted-op attribution scoped to
    phase [p] on behalf of [rids]: any {!attribute} call during [f] charges
    [p] (aggregate) and each rid in scope (per-span).  Scopes nest; the
    outer scope is restored on exit, exceptions included.  Identity when
    disabled. *)

val attribute : t -> string -> int -> unit
(** Ledger-observer hook ({!Ledger.set_observer}): charge [n] ops labelled
    [label] to the ambient phase (or [Other_phase] when outside any
    {!in_phase} scope). *)

(** {1 Frozen views} *)

type view = {
  v_rid : int;
  v_client : int;  (** -1 when never learned. *)
  v_seq : int;  (** -1 when the protocol never assigned a slot. *)
  v_marks : int64 array;  (** Per mark, virtual µs; -1 = never reached. *)
  v_ops : int array;  (** Per phase, trusted ops charged to this span. *)
}
(** Plain immutable snapshot, detached from the recorder, so exec pool
    results can carry it and merge in key order. *)

val views : t -> view list
(** All spans, ascending rid. *)

val total_latency : view -> int64 option
(** [done - submit]; [None] for spans that never completed (e.g. requests
    a Byzantine replica injected that correct replicas refused). *)

val complete : view -> bool

val last_mark : view -> (string * int64) option
(** The furthest mark the request reached, as [(mark name, µs)]; [None]
    for a span that never recorded any mark.  For an incomplete span this
    names the phase where the pipeline stopped — e.g. an attacker-injected
    request whose prepare every correct replica refused dies at
    ["propose"]. *)

val critical_path : view -> (string * int64 * float) list
(** Per-phase durations of one span, largest first, as
    [(phase, µs, share-of-total)]. *)

val slowest : ?top:int -> view list -> view list
(** The [top] (default 5) completed spans by total latency, slowest first;
    ties break toward the lower rid. *)

(** {1 Aggregates} *)

val ops_rows : t -> (string * (string * int) list) list
(** [(phase name, [(ledger label, count)])] for phases that charged trusted
    ops, causal phase order, labels sorted.  Plain data, mergeable. *)

val merge_ops :
  (string * (string * int) list) list list ->
  (string * (string * int) list) list
(** Pointwise sum of {!ops_rows} from several runs; deterministic order. *)

type phase_row = {
  p_name : string;
  p_count : int;
  p_p50 : int64 option;
  p_p99 : int64 option;
  p_p999 : int64 option;
  p_mean : float option;
  p_max : int64 option;
  p_ops : (string * int) list;
}

type summary = {
  spans_total : int;
  spans_complete : int;
  rows : phase_row list;  (** Causal order; untraversed phases omitted. *)
  other_ops : (string * int) list;
}

val summarize : ?ops:(string * (string * int) list) list -> view list -> summary
(** Per-phase latency histograms ({!Metrics.Histogram}) over the given
    views, with aggregate trusted-op rows ([ops], typically {!merge_ops}
    output) attached per phase. *)

(** {1 JSON (thc-span/v1 lines)} *)

val view_to_json : view -> Json.t
(** [{"type":"span","rid":..,"client":..,"seq":..,"marks":{..},"ops":{..},
    "total_us":..}] — unset marks and zero op phases are omitted. *)

val view_of_json : Json.t -> view option
(** Inverse of {!view_to_json} (derived fields ignored):
    [view_of_json (view_to_json v) = Some v]. *)

val phase_row_to_json : phase_row -> Json.t
(** [{"type":"phase","phase":..,"count":..,"p50_us":..,...,"ops":{..}}]. *)

(** {1 Rendering} *)

val pp_summary : Format.formatter -> summary -> unit
val pp_critical_path : Format.formatter -> view -> unit
