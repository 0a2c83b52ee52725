(** Throughput–latency sweeps over the replication protocols.

    A {!point} pins one experiment configuration (protocol, fault bound,
    workload spec, batch size, seed, link delays); {!run_point} assembles
    the cluster in the deterministic simulator, drives the workload's
    clients against it, and reduces the trace to one {!result} of
    throughput, latency quantiles and trusted-operation rates.  {!sweep}
    runs the (arrival × batch) grid that backs the paper-style
    throughput–latency curves and the batching ablation (one trusted
    attestation per {e batch} in MinBFT, so trusted ops per committed
    request fall as batches grow).

    Results export to a JSONL document ([{!schema}] header line plus one
    [point] object per result) that {!parse} reads back for the
    [thc report loadtest] view. *)

type protocol = Thc_replication.Protocol.t = Minbft | Pbft | Ubft
(** Re-export of {!Thc_replication.Protocol.t} — one protocol identity
    tree-wide. *)

val protocol_name : protocol -> string
(** [= Thc_replication.Protocol.to_string]. *)

type point = {
  protocol : protocol;
  f : int;
  spec : Workload.spec;
  batch : int;  (** Leader batch size (clamped to ≥ 1). *)
  seed : int64;
  delay : Thc_sim.Delay.t;
  network : Thc_network.Model.t option;
      (** Named network model compiled onto the links after the cluster is
          wired ({!Thc_network.Model.install}); rational client strategies
          wrap the workload's client behaviors.  [None] keeps the legacy
          uniform clique built from [delay] — pre-S7 points stay
          byte-identical. *)
}

type result = {
  point : point;
  replicas : int;
  offered : int;  (** Requests the workload generated. *)
  completed : int;  (** Requests that reached a client quorum. *)
  commits : int;  (** Consensus slots (batches) committed. *)
  duration_us : int64;  (** Trace end time (includes idle drain). *)
  makespan_us : int64;  (** Time of the last client completion. *)
  throughput_rps : float;  (** [completed / makespan]. *)
  latency : Thc_util.Stats.summary;  (** End-to-end request latencies, µs. *)
  trusted_total : int;
  trusted_per_commit : float;
  trusted_per_request : float;
  messages : int;
  safety_violations : int;
  phase_p50_us : (string * float) list;
      (** Per-phase p50 latencies from the run's request-span recorder
          ([(phase, µs)], causal order, traversed phases only) — where
          time went inside the pipeline at this operating point.  See
          {!Thc_obsv.Span}. *)
}

val run_point : point -> result
(** Deterministic: a given point always yields the same result.  Raises
    [Invalid_argument] on a malformed workload spec.  The engine records
    only outputs and crashes ({!Thc_sim.Engine.Outputs_only}); [messages]
    is its send counter. *)

val run_point_export : point -> result * string
(** Like {!run_point} — the same result — but the engine records the
    [Full] trace, returned as JSONL ({!Thc_sim.Trace.to_jsonl} with
    {!Thc_util.Codec.encode}d messages).  Byte-deterministic per point —
    the loadtest driver's contribution to the golden-trace equivalence
    corpus. *)

val runner :
  point ->
  arrivals:Workload.arrival list ->
  batches:int list ->
  (Workload.arrival * int, result, result list) Thc_exec.Runner.t
(** The sweep as the repository-wide runner shape: keys are the
    (arrival × batch) grid, arrival-major; [run_one] is one
    {!run_point}. *)

val sweep :
  ?jobs:int ->
  ?stats:(Thc_exec.Pool.stats -> unit) ->
  point ->
  arrivals:Workload.arrival list ->
  batches:int list ->
  result list
(** [run_point] over the full (arrival × batch) grid, arrival-major, with
    every other field taken from the template point.  [jobs] fans points
    out over pool domains; results merge in grid order, so the list —
    and its export — is byte-identical at every value. *)

(** {1 JSONL export} *)

val schema : string
(** ["thc-loadtest/v1"]. *)

val export :
  ?network:Thc_network.Model.t -> seed:int64 -> result list -> string
(** Envelope header line ({!Thc_obsv.Envelope}: type, schema, seed, jobs =
    point count, git revision, points, and — when [network] is given — the
    model's {!Thc_network.Model.tag}) then one canonical-JSON [point]
    line per result.  Byte-deterministic within a checkout; omitting
    [network] reproduces pre-S7 exports exactly. *)

type row = {
  r_protocol : string;
  r_arrival : string;
  r_rate_rps : float;
  r_window : int;
  r_batch : int;
  r_clients : int;
  r_offered : int;
  r_completed : int;
  r_commits : int;
  r_throughput_rps : float;
  r_mean_us : float;
  r_p50_us : float;
  r_p99_us : float;
  r_trusted_total : int;
  r_trusted_per_commit : float;
  r_trusted_per_request : float;
  r_messages : int;
  r_safety : int;
  r_phase_p50 : (string * float) list;
      (** Parsed [phase_p50_us] object; [[]] for pre-span exports. *)
}
(** One parsed [point] line — what the report view renders. *)

val parse : string -> (row list, string) Stdlib.result
(** Read an {!export}ed document back; rejects missing or mismatched
    schema headers and skips unknown line types.  A headerless document
    whose first line is a [point] row (pre-envelope v1 streams) is
    accepted and read as all rows.  A line that fails to
    parse — e.g. a write truncated mid-file — is an [Error] naming the
    line number, so a report over a partial export fails loudly instead
    of silently under-counting points. *)

val result_to_json : result -> Thc_obsv.Json.t
