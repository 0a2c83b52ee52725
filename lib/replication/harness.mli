(** One-call experiment runner for the replication comparison (experiment
    S1): same workload, same network, same fault bound — MinBFT (2f+1
    replicas on trusted counters) vs PBFT (3f+1 replicas, pure crypto) vs
    uBFT-sim (2f+1 replicas on SWMR shared-memory registers; its
    trusted-op ledger counts [swmr.*] register operations instead of
    seals/verifies). *)

type protocol = Protocol.t = Minbft | Pbft | Ubft
(** Re-export of {!Protocol.t} — the one protocol identity in the tree.
    Codecs ([to_string]/[of_string]), the catalogue ([all]) and the
    cmdliner converter all live on {!Protocol}. *)

type scenario =
  | Fault_free  (** All replicas correct. *)
  | Crash_leader of int64
      (** The view-0 leader crashes at the given time; measures view-change
          recovery. *)
  | Silent_replicas
      (** f replicas are silent from the start (crash-at-0) — the maximum
          tolerated fault load. *)
  | Scripted of Thc_sim.Adversary.t
      (** Arbitrary timed fault schedule ({!Thc_sim.Adversary.install}).
          Crash victims must be replica pids (the client stays up); the run
          horizon is extended past the script's so the post-heal network has
          room to drain.  Liveness is demanded only when the script crashes
          at most [f] replicas. *)
  | Restart_replica of { pid : int; at : int64 }
      (** Replica [pid] crashes at [at] (µs) and restarts immediately with
          all volatile state lost, rejoining via verified state transfer
          (MinBFT only; see {!Minbft.replica}).  Pick a non-leader pid —
          liveness is still demanded (the other replicas form f+1
          quorums). *)

type setup = {
  protocol : protocol;
  f : int;
  ops : int;  (** Requests per client. *)
  clients : int;  (** Concurrent clients (pids n..n+clients-1; min 1). *)
  batch : int;  (** Leader batch size (requests per consensus slot; min 1). *)
  interval : int64;  (** µs between each client's requests (open loop). *)
  delay : Thc_sim.Delay.t;  (** Link delay distribution. *)
  scenario : scenario;
  seed : int64;
  network : Thc_network.Model.t option;
      (** Named network model ({!Thc_network.Topology} × rational
          strategies) compiled onto the links after the cluster is wired;
          [None] keeps the legacy uniform clique built from [delay], so
          existing runs stay byte-identical.  Under a [Scripted] scenario
          the model is re-lowered after every scripted heal. *)
  checkpoint_interval : int;
      (** Attested-checkpoint cadence in executed slots; [0] disables
          durability (the legacy behavior — traces stay byte-identical).
          Positive values turn on checkpoint certificates, log truncation
          and state transfer for MinBFT, and override uBFT's register
          truncation cadence (uBFT always truncates; PBFT ignores this). *)
}

(** The one construction path for setups.  Optional arguments default to
    the historical literals (ops 25, 1 client, batch 1, 5ms interval,
    uniform 50–500µs links, fault-free, no network model, checkpointing
    off), so [Setup.make ~protocol ~f ~seed ()] reproduces yesterday's
    record literals byte-for-byte — the golden corpus locks this. *)
module Setup : sig
  type t = setup

  val make :
    ?ops:int ->
    ?clients:int ->
    ?batch:int ->
    ?interval:int64 ->
    ?delay:Thc_sim.Delay.t ->
    ?scenario:scenario ->
    ?network:Thc_network.Model.t ->
    ?checkpoint_interval:int ->
    protocol:protocol ->
    f:int ->
    seed:int64 ->
    unit ->
    setup
end

type delivery = {
  delivered : int;  (** Sends handed to a live destination. *)
  held_at_end : int;
      (** Sends that were held on a blocked link and have not settled:
          never delivered to a live destination nor dropped since. *)
  dropped : int;  (** Sends dropped by link policy. *)
  in_flight_at_end : int;
      (** The rest: sends scheduled for delivery that the horizon cut
          off or that reached a crashed destination. *)
}
(** Where every send ended up: the four counts of
    {!Thc_sim.Metrics.delivery_report} on a [Full] trace of the same run,
    read off the engine's counters ({!Thc_obsv.Link_stats}). *)

type outcome = {
  replicas : int;
  completed : int;  (** Requests with a client quorum of replies. *)
  commits : int;  (** Distinct sequence numbers committed ({!Smr_spec.commits}). *)
  latency : Thc_util.Stats.summary;  (** Client-observed, µs of virtual time. *)
  lat_hist : Thc_obsv.Metrics.Histogram.t;
      (** Same latencies bucketed for p50/p90/p99 (virtual-time µs). *)
  messages : int;  (** Total messages sent (protocol + client). *)
  messages_per_op : float;
  duration_us : int64;
      (** Virtual time of the last event dispatched.  The replicas' 10 ms
          check timers keep every run going to its horizon (the workload's
          span plus 2 s, later under a script or a restart), so this lies
          within 10 ms of it: every scripted explorer run ends at
          2,200,000 µs. *)
  safety_violations : Smr_spec.violation list;
  liveness_violations : Smr_spec.violation list;
  final_view : int;  (** Maximum view among correct replicas at the end. *)
  breakdown : (string * int) list;
      (** Sent messages by kind (prepare/commit/...), descending. *)
  sends_by_replica : (int * int) list;  (** [(pid, sends)], ascending pid. *)
  delivery : delivery;
  net : (string * int) list;  (** {!Thc_obsv.Link_stats.rows} of the engine. *)
  trusted_ops : (string * int) list;
      (** Hardware-op ledger rows; empty for PBFT (no trusted component). *)
  trusted_per_commit : float;  (** Total trusted ops / {!commits}; 0 if none. *)
  trusted_per_request : float;
      (** Total trusted ops / {!completed} — the amortization batching buys:
          with batch size b one attestation covers b requests. *)
  latency_by_client : (int * Thc_util.Stats.summary) list;
      (** Per-client-pid latency quantiles, ascending pid. *)
  metrics : Thc_obsv.Metrics.t;
      (** Everything above as one registry — the export's snapshot line. *)
  events : int;
      (** Engine events dispatched ({!Thc_sim.Engine.events_processed}) —
          the numerator of the events/sec throughput metric.  Not folded
          into {!metrics} so existing export bytes are unchanged. *)
  durability : Durability.stats;
      (** Cluster-wide log/checkpoint stats ({!Durability.merge} across
          replicas): max live log, max high-water-mark, min stable
          boundary, total truncations.  All zero for PBFT and for runs
          with [checkpoint_interval = 0] (uBFT reports its register
          discipline regardless).  Folded into {!metrics} as [ckpt.*]
          gauges only when [checkpoint_interval > 0], so legacy exports
          keep their bytes. *)
}

val run : setup -> outcome
(** Build the cluster, run it to its horizon (see [duration_us]), and
    collect metrics.  The client workload is a deterministic mix of
    puts/gets/incrs.  The engine records only outputs and crashes
    ({!Thc_sim.Engine.Outputs_only}), which is all the monitors read;
    message counts, kinds, per-process sends and {!delivery} come from
    the engine's counters and send observer, and equal what the [Full]
    trace of {!run_export} yields. *)

val run_export : setup -> outcome * string
(** Like {!run} — the same outcome, from the same counters — but the
    engine records the [Full] trace, returned as the run's JSONL export:
    {!Thc_sim.Trace.to_jsonl} with {!Thc_util.Codec.encode}d messages,
    followed by a [{"type":"metrics",...}] snapshot line and a
    [{"type":"ledger",...}] trusted-op line.  Deterministic per seed.
    The only entry point here that records [Full]. *)

val run_spans :
  setup -> outcome * Thc_obsv.Span.view list * (string * (string * int) list) list
(** Like {!run}, with a {!Thc_obsv.Span} recorder installed on the engine:
    every request becomes a causal span (submit → leader ingress →
    propose → commit round → execute → reply) stamped in virtual time,
    and — for MinBFT — every trusted-hardware ledger bump is attributed
    to the phase it happened in ({!Thc_obsv.Ledger.set_observer}).

    Returns the ordinary outcome, the per-request span views (rid order),
    and the per-phase trusted-op attribution rows
    ({!Thc_obsv.Span.ops_rows}; [[]] for PBFT, which spends no trusted
    ops).  Recording is virtual-time-only, and the engine records
    outputs only as in {!run}: the outcome is equal to {!run}'s on the
    same setup. *)

type lite = {
  l_completed : int;
  l_commits : int;
  l_messages : int;
  l_events : int;
  l_duration_us : int64;
}
(** The throughput-mode reduction: just the counts that define
    events/sec and ops/sec, none of the full metric registry. *)

val run_lite : setup -> lite
(** Same cluster, schedule, RNG draws and outputs-only engine as {!run},
    but without the kind tally, and the reduction stops at these five
    counts: no safety, liveness or latency folds, no metric registry.
    The difference from {!run} is therefore the cost of those folds.
    The measurement mode of [bench/perf]'s [replication.run_lite_s.<p>]
    and [sim.lite_ev_per_s.<p>] metrics. *)

val default_workload : ops:int -> seed:int64 -> Kv_store.op list

val pp_outcome : Format.formatter -> outcome -> unit
