(** MinBFT-style replicated state machine on trusted counters
    (n = 2f+1; Veronese et al., "Efficient Byzantine fault tolerance").

    The motivating application of the whole trusted-hardware line the paper
    classifies: with every replica's outbound stream sealed by a trusted
    incrementer ({!Attested_link}), Byzantine replicas cannot equivocate or
    hide sent messages, so agreement needs only f+1-of-2f+1 quorums and two
    message phases — against PBFT's 2f+1-of-3f+1 and three phases
    ({!Pbft} is the baseline; bench group [smr/*] compares them).

    Normal case: the view's leader packs pending requests into batches (up
    to [batch_size] per slot, partial batches flushed after [batch_delay])
    and seals [Prepare(view, seq, batch)]; every replica that accepts it (in
    the leader's stream order) seals [Commit(view, seq, batch)]; a batch
    commits at a replica once f+1 distinct replicas' messages for it are in
    (the leader's Prepare counting as its commit).  One attestation covers
    the whole batch, so trusted ops per committed request fall as batches
    grow.  Execution applies batch members in order against {!Kv_store};
    replicas reply directly to each request's client, which waits for f+1
    matching replies.

    View change (the audited part that makes f+1 quorums safe): on request
    timeout a replica seals [Rvc(v+1)]; on f+1 matching Rvcs it seals
    [View_change(v+1, L)] where [L] is its {e complete} attested sent-log.
    Logs are dense and unforgeable, so a Byzantine replica cannot present a
    history omitting a Commit it sent: any f+1 valid view-change logs
    necessarily expose every possibly-committed request (commit quorum ∩
    view-change quorum ≥ 1, and even a Byzantine member's log is honest).
    The new leader re-proposes the recovered requests in the new view;
    every replica recomputes the recovery from the same evidence and votes
    only for matching re-proposals. *)

type msg

type config = {
  n : int;  (** Replicas (pids 0..n-1); clients live at pids ≥ n. *)
  f : int;  (** Fault bound; requires [n = 2f+1] (checked). *)
  request_timeout : int64;  (** µs before a pending request triggers Rvc. *)
  check_interval : int64;  (** µs between timeout scans. *)
  batch_size : int;
      (** Max requests the leader packs into one Prepare; each batch costs a
          single trusted-counter attestation, so larger batches amortize
          trusted ops across requests. *)
  batch_delay : int64;  (** µs a partial batch waits before being flushed. *)
  checkpoint_interval : int;
      (** Slots between attested checkpoints; [0] (the default) disables
          durability entirely — no Checkpoint traffic, no truncation — so
          pre-existing runs keep their traces byte-for-byte.  When positive,
          every replica seals a [Checkpoint(upto, digest, exec_count)] after
          executing each multiple of this many slots; f+1 matching
          attestations from distinct trinkets form a {e stable checkpoint
          certificate}, after which the consensus log up to that slot is
          truncated and state transfer can serve joiners from the snapshot
          (see {!Durability}). *)
}

val default_config : f:int -> config

type t
(** Replica state, kept by the harness for post-run inspection. *)

val create_replica :
  config:config ->
  keyring:Thc_crypto.Keyring.t ->
  world:Thc_hardware.Trinc.world ->
  trinket:Thc_hardware.Trinc.t ->
  self:int ->
  t

val replica : ?restart_at:int64 -> t -> msg Thc_sim.Engine.behavior
(** Emits [Obs.Committed] and [Obs.Executed] per operation.

    [restart_at] (µs of simulation time) models a crash-and-restart at that
    instant: the replica loses all volatile state — consensus log, store,
    execution indexes — keeping only its trusted hardware (trinket and
    attested links) and the latest stable checkpoint's {e metadata} (a tiny
    NVRAM record that makes stale state transfer detectable).  It then
    broadcasts [Fetch] until a donor's [Snapshot] passes certificate,
    digest and staleness verification, installs it, emits
    [Obs.Recovered], and resumes normal participation. *)

val client :
  rid_base:int ->
  config:config ->
  keyring:Thc_crypto.Keyring.t ->
  ident:Thc_crypto.Keyring.secret ->
  plan:(int64 * Kv_store.op) list ->
  msg Thc_sim.Engine.behavior
(** Sends each planned request to all replicas at its time, waits for f+1
    matching replies, and emits [Obs.Client_done] with the end-to-end
    latency.  [rid_base] offsets request ids so concurrent
    clients keep disjoint rid ranges (see {!Client_core.behavior}). *)

val wrap_request : Command.signed_request -> msg
(** Wire-wrap a client request — lets external traffic generators (e.g.
    {!Thc_workload.Traffic}) drive the cluster without access to the
    concrete message type. *)

val unwrap_reply : msg -> Command.reply option
(** Inverse filter for client-side reply collection. *)

val view_of : t -> int
val executed_upto : t -> int
val store_digest : t -> int64

val durability : t -> Durability.stats
(** Live log size, its high-water-mark, the stable checkpoint boundary and
    the truncation count — all zero while [checkpoint_interval = 0]. *)

val stable_upto : t -> int
(** Highest slot covered by a stable checkpoint certificate (0 if none). *)

val adversarial_prepare :
  out:Attested_link.Out.t ->
  view:int ->
  seq:int ->
  request:Command.signed_request ->
  msg
(** Seal a Prepare on an arbitrary attested link and return the wire message
    — the strongest equivocation attempt a Byzantine leader can mount.  Used
    by the ablation experiments: even with this power, selective delivery
    only creates counter gaps that receivers refuse to process, so safety
    holds (see {!Ablation}). *)

val rewound_prepare :
  out:Attested_link.Out.t ->
  view:int ->
  seq:int ->
  request:Command.signed_request ->
  msg option
(** A Prepare re-attested at the counter [out] sealed last
    ({!Attested_link.Out.rewind}) — a second message on a used counter.
    [None] when the hardware refuses, which TrInc always does; on the
    unattested world it is the equivocation the ablation is about. *)

val rewound_checkpoint :
  out:Attested_link.Out.t ->
  upto:int ->
  digest:int64 ->
  exec_count:int ->
  Thc_hardware.Trinc.attestation option
(** A Checkpoint vote over an arbitrary claim, re-attested at the counter
    [out] sealed last — on the unattested world, the one genuine share a
    forged certificate can carry.  [None] under TrInc. *)

val adversarial_wire : Thc_hardware.Trinc.attestation -> msg
(** Wrap any attestation as a wire message — lets tests inject replays,
    counterfeits and garbage payloads at the transport level. *)

val adversarial_view_change :
  out:Attested_link.Out.t ->
  new_view:int ->
  log:Thc_hardware.Trinc.attestation list ->
  msg
(** Seal a View_change carrying an arbitrary (e.g. counterfeit or
    truncated) sent-log — the mismatched-certificate attack.  The sealing
    itself is honest (the trinket will attest anything once), so receivers
    accept the envelope and the defense is {!Attested_link.check_log}
    rejecting the evidence inside. *)

val attack_out : t -> Attested_link.Out.t
(** The replica's own attested outbound link.  Handing it to attack code
    models full corruption of a replica that still cannot subvert its
    trinket: everything it seals stays on the one dense counter chain. *)

val attestation_of : msg -> Thc_hardware.Trinc.attestation option
(** The attestation inside a sealed wire message, if any — lets attack
    code lift a message it previously sent (or observed) back into material
    for replay and reuse attempts. *)

val stable_snapshot : ?suffix:(int * Command.batch) list -> t -> msg option
(** The replica's latest stable checkpoint packaged as a [Snapshot] wire
    message (suffix-free by default) — [None] until one is certified
    locally.  Attack rigs use it as the honest baseline and, with a
    fabricated [suffix], as the join-time-equivocation payload: a genuine
    certificate carrying a lying committed suffix.  The joiner's f+1
    distinct-donor suffix quorum is the defense. *)

val stale_snapshot : t -> msg option
(** The {e previous} stable checkpoint with its genuine — but superseded —
    certificate: exactly what a stale-state-transfer attacker replays at a
    joiner to roll the service back.  [None] until two checkpoints have
    stabilized. *)

val adversarial_snapshot :
  upto:int ->
  digest:int64 ->
  exec_count:int ->
  cert:Thc_hardware.Trinc.attestation list ->
  state:(string * string) list ->
  suffix:(int * Command.batch) list ->
  msg
(** Assemble an arbitrary [Snapshot] claim — forged certificates (e.g. from
    {!Thc_hardware.Trinc.counterfeit}), mismatched state, fabricated
    suffixes.  The joiner's verification is the only defense, which is the
    point of the forged-checkpoint attack family. *)

val snapshot_cert : msg -> Thc_hardware.Trinc.attestation list option
(** The certificate inside a [Snapshot] message, if any — lets attack rigs
    splice genuine certificates into forged payloads. *)

type proto
(** A sealed protocol payload: the [message] of every attestation a replica
    seals (Prepare, Commit, view-change and checkpoint messages). *)

val decode_proto : string -> proto
(** Decode a sealed payload afresh.  Raises on bytes that are not one. *)

val decode_sealed : Thc_hardware.Trinc.attestation -> proto option
(** [decode_proto a.message] ([None] where it raises), through the domain's
    table of decoded payloads (a {!Thc_util.Identity_table} keyed by
    attestation tag and message), which every seal fills with the sealer's
    own proto and every miss with a fresh decode.  A hit needs [a.message]
    to be the very string stored ([==]) with [a.tag], so it returns a value
    equal to a fresh decode.  Replicas read sealed payloads through a
    table of their cluster's own (by attestation owner and counter, filled
    by every seal, with each Prepare's and Commit's batch digest), which
    falls back on this one; so a payload is decoded and digested about
    once per cluster, not once per receiver or per View_change log that
    repeats it, and receivers share the sealer's values.  {!classify_msg}
    reads through this table alone. *)

val classify_msg : msg -> string
(** Short label per wire-message kind (request/prepare/commit/...), for
    {!Thc_sim.Metrics.kind_counts} breakdowns. *)

val pp_msg : Format.formatter -> msg -> unit
