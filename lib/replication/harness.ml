type protocol = Protocol.t = Minbft | Pbft | Ubft

type scenario =
  | Fault_free
  | Crash_leader of int64
  | Silent_replicas
  | Scripted of Thc_sim.Adversary.t
  | Restart_replica of { pid : int; at : int64 }

type setup = {
  protocol : protocol;
  f : int;
  ops : int;
  clients : int;
  batch : int;
  interval : int64;
  delay : Thc_sim.Delay.t;
  scenario : scenario;
  seed : int64;
  network : Thc_network.Model.t option;
  checkpoint_interval : int;
}

module Setup = struct
  type t = setup

  (* The one construction path for setups: every in-tree record literal
     migrated here, so defaults live in exactly one place and adding a
     field never fans out across the callers again.  The defaults are the
     historical literals byte-for-byte (golden corpus locks this). *)
  let make ?(ops = 25) ?(clients = 1) ?(batch = 1) ?(interval = 5_000L)
      ?(delay = Thc_sim.Delay.Uniform (50L, 500L)) ?(scenario = Fault_free)
      ?network ?(checkpoint_interval = 0) ~protocol ~f ~seed () =
    {
      protocol;
      f;
      ops;
      clients;
      batch;
      interval;
      delay;
      scenario;
      seed;
      network;
      checkpoint_interval;
    }
end

type delivery = {
  delivered : int;
  held_at_end : int;
  dropped : int;
  in_flight_at_end : int;
}

type outcome = {
  replicas : int;
  completed : int;
  commits : int;
  latency : Thc_util.Stats.summary;
  lat_hist : Thc_obsv.Metrics.Histogram.t;
  messages : int;
  messages_per_op : float;
  duration_us : int64;
  safety_violations : Smr_spec.violation list;
  liveness_violations : Smr_spec.violation list;
  final_view : int;
  breakdown : (string * int) list;
  sends_by_replica : (int * int) list;
  delivery : delivery;
  net : (string * int) list;
  trusted_ops : (string * int) list;
  trusted_per_commit : float;
  trusted_per_request : float;
  latency_by_client : (int * Thc_util.Stats.summary) list;
  metrics : Thc_obsv.Metrics.t;
  events : int;
  durability : Durability.stats;
}

let default_workload ~ops ~seed =
  let rng = Thc_util.Rng.create seed in
  List.init ops (fun i ->
      let key = Printf.sprintf "k%d" (Thc_util.Rng.int rng 16) in
      match Thc_util.Rng.int rng 4 with
      | 0 -> Kv_store.Get key
      | 1 -> Kv_store.Put (key, Printf.sprintf "v%d" i)
      | 2 -> Kv_store.Incr key
      | _ -> Kv_store.Put (key, Printf.sprintf "w%d" i))

let n_clients setup = max 1 setup.clients

(* Per-client seeds stay deterministic while giving each client its own
   operation stream; client 0 keeps the single-client stream of old runs. *)
let client_seed setup c = Int64.add setup.seed (Int64.of_int (7919 * c))

let plan_for setup c =
  List.mapi
    (fun i op -> (Int64.mul (Int64.of_int (i + 1)) setup.interval, op))
    (default_workload ~ops:setup.ops ~seed:(client_seed setup c))

(* Virtual-time horizon: leave room for timeouts and view changes; a
   scripted adversary extends it so the run continues well past the final
   heal and "eventually" clauses can be judged. *)
let horizon setup =
  let workload =
    Int64.add
      (Int64.mul (Int64.of_int (setup.ops + 2)) setup.interval)
      2_000_000L
  in
  match setup.scenario with
  | Scripted script -> max workload (Int64.add script.Thc_sim.Adversary.horizon 2_000_000L)
  | Restart_replica { at; _ } -> max workload (Int64.add at 2_000_000L)
  | Fault_free | Crash_leader _ | Silent_replicas -> workload

(* Liveness is owed, and the monitors check that every request completed,
   iff the scenario crashes at most f replicas.  A crashed leader and a
   restarting replica count one crash each (the f+1 quorums among the
   others keep serving while it rejoins), silent replicas f, a script the
   distinct replicas it crashes. *)
let expected_liveness setup =
  let crashed =
    match setup.scenario with
    | Fault_free -> 0
    | Crash_leader _ | Restart_replica _ -> 1
    | Silent_replicas -> setup.f
    | Scripted script ->
      List.length
        (List.sort_uniq Int.compare (Thc_sim.Adversary.crashed script))
  in
  crashed <= setup.f

(* Fold everything the dashboard needs into one registry so a single
   snapshot line in the export carries the whole numeric state of the run. *)
let registry_of ~latencies ~completed ~commits ~messages ~breakdown
    ~sends_by_replica ~delivery ~net_rows
    ~trusted_ops =
  let m = Thc_obsv.Metrics.create () in
  let count name v = Thc_obsv.Metrics.add (Thc_obsv.Metrics.counter m name) v in
  let lat = Thc_obsv.Metrics.histogram m "commit.latency_us" in
  List.iter (fun l -> Thc_obsv.Metrics.Histogram.record lat (Int64.of_float l))
    latencies;
  count "client.completed" completed;
  count "commit.count" commits;
  count "net.sent" messages;
  count "net.held_at_end" delivery.held_at_end;
  count "net.in_flight_at_end" delivery.in_flight_at_end;
  List.iter (fun (kind, c) -> count ("msg.kind." ^ kind) c) breakdown;
  List.iter
    (fun (pid, c) -> count (Printf.sprintf "net.sends.p%d" pid) c)
    sends_by_replica;
  List.iter
    (fun (k, v) ->
      match k with
      | "in-flight at end" | "in-flight high-water" | "held at end"
      | "held queue high-water" ->
        (* levels, not monotone counts; hwm folded in by the rows below *)
        ignore v
      | _ -> count ("link." ^ String.map (function ' ' -> '_' | c -> c) k) v)
    net_rows;
  let level name ~last ~hwm =
    let g = Thc_obsv.Metrics.gauge m name in
    Thc_obsv.Metrics.set_gauge g hwm;
    Thc_obsv.Metrics.set_gauge g last
  in
  (match
     ( List.assoc_opt "in-flight at end" net_rows,
       List.assoc_opt "in-flight high-water" net_rows )
   with
  | Some last, Some hwm -> level "link.in_flight" ~last ~hwm
  | _ -> ());
  (match
     ( List.assoc_opt "held at end" net_rows,
       List.assoc_opt "held queue high-water" net_rows )
   with
  | Some last, Some hwm -> level "link.held" ~last ~hwm
  | _ -> ());
  List.iter (fun (op, c) -> count ("hw." ^ op) c) trusted_ops;
  (m, lat)

(* Every [Sent] of a [Full] trace ends up in exactly one bucket, by the
   rule of [Thc_sim.Metrics.delivery_report]: delivered to a live
   destination, dropped, still held (a released message counts as held
   until it settles), or else in flight. *)
let delivery_of net_stats =
  let module L = Thc_obsv.Link_stats in
  let delivered = L.delivered net_stats
  and dropped = L.dropped net_stats
  and held_at_end = L.held_unsettled net_stats in
  {
    delivered;
    held_at_end;
    dropped;
    in_flight_at_end = L.sends net_stats - delivered - dropped - held_at_end;
  }

(* The trace holds only what the monitors read (outputs and crashes);
   every network number comes from the engine's counters and the kind
   tally fed by its send observer, so the reduction is the same whatever
   the engine recorded. *)
let finish (type m) setup ~(trace : m Thc_sim.Trace.t) (c : m Cluster.t)
    ~breakdown =
  let replicas = c.replicas and hw = c.hw in
  let net_stats = Thc_sim.Engine.stats c.engine in
  let durability = c.durability () in
  let latencies = Smr_spec.client_latencies trace in
  let completed = List.length latencies in
  let commits = Smr_spec.commits trace ~replicas in
  let messages = Thc_obsv.Link_stats.sends net_stats in
  let sends_by_replica = Thc_obsv.Link_stats.sends_by_source net_stats in
  let delivery = delivery_of net_stats in
  let net = Thc_obsv.Link_stats.rows net_stats in
  let trusted_ops = Thc_obsv.Ledger.rows hw in
  let metrics, lat_hist =
    registry_of ~latencies ~completed ~commits ~messages ~breakdown
      ~sends_by_replica ~delivery ~net_rows:net ~trusted_ops
  in
  (* Durability gauges appear only when checkpointing was requested, so
     legacy runs' metric snapshots (golden corpus) keep their bytes. *)
  if setup.checkpoint_interval > 0 then
    List.iter
      (fun (k, v) ->
        Thc_obsv.Metrics.set_gauge (Thc_obsv.Metrics.gauge metrics k) v)
      (Durability.rows ~prefix:"ckpt" durability);
  {
    replicas;
    completed;
    commits;
    latency = Thc_util.Stats.summarize latencies;
    lat_hist;
    messages;
    messages_per_op =
      (if completed = 0 then 0.0 else float_of_int messages /. float_of_int completed);
    duration_us = trace.Thc_sim.Trace.end_time;
    safety_violations =
      Smr_spec.check_safety trace ~replicas
      @ Smr_spec.check_state_determinism trace ~replicas;
    liveness_violations =
      (if expected_liveness setup then
         Smr_spec.check_liveness trace
           ~expected:
             (Smr_spec.expect_range ~clients:(n_clients setup)
                ~per_client:setup.ops ~first_client_pid:replicas)
       else []);
    final_view = c.final_view ();
    breakdown;
    sends_by_replica;
    delivery;
    net;
    trusted_ops;
    trusted_per_commit =
      (if commits = 0 then 0.0
       else float_of_int (Thc_obsv.Ledger.total hw) /. float_of_int commits);
    trusted_per_request =
      (if completed = 0 then 0.0
       else
         float_of_int (Thc_obsv.Ledger.total hw) /. float_of_int completed);
    latency_by_client =
      List.map
        (fun (pid, ls) -> (pid, Thc_util.Stats.summarize ls))
        (Smr_spec.latencies_by_client trace);
    metrics;
    events = Thc_sim.Engine.events_processed c.engine;
    durability;
  }

let export_of (type m) ~(trace : m Thc_sim.Trace.t) ~outcome =
  let module J = Thc_obsv.Json in
  let b = Buffer.create 65536 in
  Buffer.add_string b
    (Thc_sim.Trace.to_jsonl ~encode_msg:Thc_util.Codec.encode trace);
  let line j =
    Buffer.add_string b (J.to_string j);
    Buffer.add_char b '\n'
  in
  line
    (J.Obj
       [
         ("type", J.Str "metrics");
         ( "snapshot",
           Thc_obsv.Metrics.snapshot_to_json
             (Thc_obsv.Metrics.snapshot outcome.metrics) );
       ]);
  line
    (J.Obj
       [
         ("type", J.Str "ledger");
         ("ops", J.Obj (List.map (fun (k, v) -> (k, J.Int v)) outcome.trusted_ops));
         ("commits", J.Int outcome.commits);
       ]);
  Buffer.contents b

let apply_scenario (type m) setup ~(engine : m Thc_sim.Engine.t) ~replicas =
  match setup.scenario with
  | Fault_free | Restart_replica _ ->
    (* the restart wipe is wired into the replica by [Cluster.create] *)
    ()
  | Crash_leader at -> Thc_sim.Engine.schedule_crash engine ~pid:0 ~at
  | Silent_replicas ->
    for i = 0 to setup.f - 1 do
      Thc_sim.Engine.schedule_crash engine ~pid:(replicas - 1 - i) ~at:0L
    done
  | Scripted script ->
    List.iter
      (fun pid ->
        if pid >= replicas then
          invalid_arg "Harness: scripted adversary may only crash replicas")
      (Thc_sim.Adversary.crashed script);
    Thc_sim.Adversary.install script engine

(* Lower the named network model (if any) onto the engine.  Must run after
   [apply_scenario]: the model schedules re-lowerings at the script's heal
   times, and the engine breaks same-time ties by installation order. *)
let install_network setup ~engine ~replicas =
  match setup.network with
  | None -> ()
  | Some m ->
    let script =
      match setup.scenario with
      | Scripted s -> Some s
      | Fault_free | Crash_leader _ | Silent_replicas | Restart_replica _ ->
        None
    in
    Thc_network.Model.install m engine ~replicas ?script ()

(* The setup's cluster with what a harness run adds to it: the clients in
   index order (rational strategies, such as racing duplicates, ride on
   their behaviors), the scenario's faults, then the network model. *)
let cluster ?spans setup ~tracing =
  let clients = n_clients setup in
  let restart =
    match setup.scenario with
    | Restart_replica { pid; at } -> Some (pid, at)
    | Fault_free | Crash_leader _ | Silent_replicas | Scripted _ -> None
  in
  let packed =
    Cluster.create ?spans ?restart setup.protocol ~f:setup.f ~batch:setup.batch
      ~checkpoint_interval:setup.checkpoint_interval ~clients ~seed:setup.seed
      ~delay:setup.delay ~tracing
  in
  let (Cluster.Cluster { engine; replicas; keyring; client; _ }) = packed in
  for c = 0 to clients - 1 do
    let pid = replicas + c in
    let behavior =
      client ~rid_base:(c * setup.ops)
        ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
        ~plan:(plan_for setup c)
    in
    Thc_sim.Engine.set_behavior engine pid
      (match setup.network with
      | None -> behavior
      | Some m ->
        Thc_network.Model.wrap_client m ~replicas ~f:setup.f ~clients
          ~client_index:c ~pid behavior)
  done;
  apply_scenario setup ~engine ~replicas;
  install_network setup ~engine ~replicas;
  packed

(* The export thunk is meaningful only under [Full]: the other callers
   drop it unread. *)
let run_with ?spans setup ~tracing =
  let (Cluster.Cluster c) = cluster ?spans setup ~tracing in
  let kinds = Thc_sim.Metrics.kind_tally ~classify:c.classify in
  Thc_sim.Engine.on_send c.engine (fun ~src:_ ~dst:_ msg ->
      Thc_sim.Metrics.tally_send kinds msg);
  let trace =
    Thc_sim.Engine.run ~until:(horizon setup) ~max_events:20_000_000 c.engine
  in
  let outcome =
    finish setup ~trace c ~breakdown:(Thc_sim.Metrics.tally_counts kinds)
  in
  (outcome, fun () -> export_of ~trace ~outcome)

let run setup = fst (run_with setup ~tracing:Thc_sim.Engine.Outputs_only)

let run_export setup =
  let outcome, export = run_with setup ~tracing:Thc_sim.Engine.Full in
  (outcome, export ())

(* Span-collecting run: the outcome run with a live recorder installed,
   so the caller gets both the ordinary outcome and the per-request causal
   views.  The recorder stamps virtual time only — the outcome and RNG
   draws are byte-identical to [run] on the same setup. *)
let run_spans setup =
  let spans = Thc_obsv.Span.create () in
  let outcome =
    fst (run_with ~spans setup ~tracing:Thc_sim.Engine.Outputs_only)
  in
  (outcome, Thc_obsv.Span.views spans, Thc_obsv.Span.ops_rows spans)

type lite = {
  l_completed : int;
  l_commits : int;
  l_messages : int;
  l_events : int;
  l_duration_us : int64;
}

(* Counts-only run: same cluster, same schedule, same RNG draws, and the
   same outputs-only engine as [run] — but no kind tally, and the
   reduction stops at the five counts below, skipping the safety,
   liveness and latency folds and the metric registry.  Used by
   bench/perf's run_lite metrics. *)
let run_lite setup =
  let (Cluster.Cluster { engine; replicas; _ }) =
    cluster setup ~tracing:Thc_sim.Engine.Outputs_only
  in
  let trace =
    Thc_sim.Engine.run ~until:(horizon setup) ~max_events:20_000_000 engine
  in
  {
    l_completed = List.length (Smr_spec.client_latencies trace);
    l_commits = Smr_spec.commits trace ~replicas;
    l_messages = Thc_obsv.Link_stats.sends (Thc_sim.Engine.stats engine);
    l_events = Thc_sim.Engine.events_processed engine;
    l_duration_us = trace.Thc_sim.Trace.end_time;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>replicas=%d completed=%d commits=%d msgs=%d (%.1f/op) dur=%Ldµs \
     view=%d@,latency: %a@,safety: %d violation(s), liveness: %d violation(s)@,\
     trusted ops: %d (%.1f/commit, %.2f/req)@]"
    o.replicas o.completed o.commits o.messages o.messages_per_op o.duration_us
    o.final_view Thc_util.Stats.pp_summary o.latency
    (List.length o.safety_violations)
    (List.length o.liveness_violations)
    (List.fold_left (fun acc (_, c) -> acc + c) 0 o.trusted_ops)
    o.trusted_per_commit o.trusted_per_request;
  (* Durability line only when the discipline is on (something stabilized
     or was truncated): legacy output stays byte-identical at
     checkpoint_interval = 0 (and for PBFT). *)
  if
    o.durability.Durability.stable_upto > 0
    || o.durability.Durability.truncations > 0
  then
    Format.fprintf ppf
      "@.durability: log live %d, hwm %d, stable upto %d, %d truncation(s)"
      o.durability.Durability.live o.durability.Durability.hwm
      o.durability.Durability.stable_upto o.durability.Durability.truncations
