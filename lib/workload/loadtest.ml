module W = Workload
module Smr_spec = Thc_replication.Smr_spec
module J = Thc_obsv.Json

let schema = "thc-loadtest/v1"

type protocol = Thc_replication.Protocol.t = Minbft | Pbft | Ubft

let protocol_name = Thc_replication.Protocol.to_string

type point = {
  protocol : protocol;
  f : int;
  spec : W.spec;
  batch : int;
  seed : int64;
  delay : Thc_sim.Delay.t;
  network : Thc_network.Model.t option;
}

type result = {
  point : point;
  replicas : int;
  offered : int;
  completed : int;
  commits : int;
  duration_us : int64;
  makespan_us : int64;
  throughput_rps : float;
  latency : Thc_util.Stats.summary;
  trusted_total : int;
  trusted_per_commit : float;
  trusted_per_request : float;
  messages : int;
  safety_violations : int;
  phase_p50_us : (string * float) list;
}

(* Same layout as Harness: replicas at pids 0..n-1, clients at n..; client c
   owns the contiguous rid block starting at [c * requests_per_client]. *)
let client_behaviors (type m) p (c : m Thc_replication.Cluster.t) =
  let n = c.replicas in
  List.init p.spec.W.clients (fun i ->
      let pid = n + i in
      let ident = Thc_crypto.Keyring.secret c.keyring ~pid in
      let rid_base = i * p.spec.W.requests_per_client in
      let behavior =
        match W.plan p.spec ~seed:p.seed ~client:i with
        | Some plan -> c.client ~rid_base ~ident ~plan
        | None ->
          let window, think_us =
            match p.spec.W.arrival with
            | W.Closed { window; think_us } -> (window, think_us)
            | W.Open_uniform _ | W.Open_poisson _ -> assert false
          in
          Traffic.closed_loop ~rid_base ~n_replicas:n ~quorum:(p.f + 1) ~ident
            ~window ~think_us
            ~ops:(W.ops p.spec ~seed:p.seed ~client:i)
            ~wrap:c.wrap_request ~unwrap:c.unwrap_reply
      in
      let behavior =
        match p.network with
        | None -> behavior
        | Some m ->
          Thc_network.Model.wrap_client m ~replicas:n ~f:p.f
            ~clients:p.spec.W.clients ~client_index:i ~pid behavior
      in
      (pid, behavior))

(* Per-phase p50s from the run's span recorder: [(phase, µs)] in causal
   order, traversed phases only. *)
let phase_p50s spans =
  List.filter_map
    (fun (r : Thc_obsv.Span.phase_row) ->
      Option.map (fun p50 -> (r.p_name, Int64.to_float p50)) r.p_p50)
    (Thc_obsv.Span.summarize (Thc_obsv.Span.views spans)).rows

(* The trace needs only outputs; [messages] comes from the engine's send
   counter, which equals [Trace.messages_sent] of a [Full] trace. *)
let finish (type m) p ~(trace : m Thc_sim.Trace.t)
    (c : m Thc_replication.Cluster.t) ~phase_p50_us =
  let replicas = c.replicas in
  let latencies = Smr_spec.client_latencies trace in
  let completed = List.length latencies in
  let offered = W.total_requests p.spec in
  let commits = Smr_spec.commits trace ~replicas in
  (* Throughput over the makespan (time of the last completion), not the
     trace end: replicas keep timeout-scan timers ticking until the horizon,
     which would otherwise dilute the rate by idle drain time. *)
  let makespan_us =
    List.fold_left
      (fun acc (t, ()) -> if Int64.compare t acc > 0 then t else acc)
      0L
      (Thc_sim.Trace.outputs_matching trace (fun _pid obs ->
           match obs with Thc_sim.Obs.Client_done _ -> Some () | _ -> None))
  in
  let throughput_rps =
    if completed = 0 || Int64.compare makespan_us 0L <= 0 then 0.0
    else float_of_int completed /. (Int64.to_float makespan_us /. 1e6)
  in
  let trusted_total = Thc_obsv.Ledger.total c.hw in
  {
    point = p;
    replicas;
    offered;
    completed;
    commits;
    duration_us = trace.Thc_sim.Trace.end_time;
    makespan_us;
    throughput_rps;
    latency = Thc_util.Stats.summarize latencies;
    trusted_total;
    trusted_per_commit =
      (if commits = 0 then 0.0
       else float_of_int trusted_total /. float_of_int commits);
    trusted_per_request =
      (if completed = 0 then 0.0
       else float_of_int trusted_total /. float_of_int completed);
    messages = Thc_obsv.Link_stats.sends (Thc_sim.Engine.stats c.engine);
    safety_violations =
      List.length
        (Smr_spec.check_safety trace ~replicas
        @ Smr_spec.check_state_determinism trace ~replicas);
    phase_p50_us;
  }

(* The reduced result plus a thunk for the raw engine trace as JSONL.  The
   sweep path records outputs only and never calls the thunk; the export
   path records [Full], so the golden-trace corpus still captures the
   loadtest driver byte-for-byte.  The span recorder feeds the per-phase
   p50s. *)
let run_with p ~tracing =
  W.validate p.spec;
  let spans = Thc_obsv.Span.create () in
  let (Thc_replication.Cluster.Cluster c) =
    Thc_replication.Cluster.create ~spans p.protocol ~f:p.f ~batch:p.batch
      ~checkpoint_interval:0 ~clients:p.spec.W.clients ~seed:p.seed
      ~delay:p.delay ~tracing
  in
  List.iter
    (fun (pid, b) -> Thc_sim.Engine.set_behavior c.engine pid b)
    (client_behaviors p c);
  Option.iter
    (fun m -> Thc_network.Model.install m c.engine ~replicas:c.replicas ())
    p.network;
  let trace =
    Thc_sim.Engine.run ~until:(W.horizon_us p.spec) ~max_events:20_000_000
      c.engine
  in
  ( finish p ~trace c ~phase_p50_us:(phase_p50s spans),
    fun () -> Thc_sim.Trace.to_jsonl ~encode_msg:Thc_util.Codec.encode trace )

let run_point_export p =
  let result, export = run_with p ~tracing:Thc_sim.Engine.Full in
  (result, export ())

let run_point p = fst (run_with p ~tracing:Thc_sim.Engine.Outputs_only)

let runner p ~arrivals ~batches =
  {
    Thc_exec.Runner.name = "loadtest";
    keys =
      List.concat_map
        (fun arrival -> List.map (fun batch -> (arrival, batch)) batches)
        arrivals;
    run_one =
      (fun (arrival, batch) ->
        run_point { p with batch; spec = { p.spec with W.arrival } });
    summarize = Fun.id;
  }

let sweep ?jobs ?stats p ~arrivals ~batches =
  Thc_exec.Runner.run ?jobs ?stats (runner p ~arrivals ~batches)

(* --- JSONL export / parse ---------------------------------------------- *)

let arrival_fields = function
  | W.Open_uniform { rate_rps } -> ("open-uniform", rate_rps, 0, 0L)
  | W.Open_poisson { rate_rps } -> ("open-poisson", rate_rps, 0, 0L)
  | W.Closed { window; think_us } -> ("closed", 0.0, window, think_us)

let result_to_json r =
  let kind, rate_rps, window, think_us = arrival_fields r.point.spec.W.arrival in
  J.Obj
    [
      ("type", J.Str "point");
      ("protocol", J.Str (protocol_name r.point.protocol));
      ("f", J.Int r.point.f);
      ("arrival", J.Str kind);
      ("rate_rps", J.Float rate_rps);
      ("window", J.Int window);
      ("think_us", J.Int (Int64.to_int think_us));
      ("batch", J.Int r.point.batch);
      ("clients", J.Int r.point.spec.W.clients);
      ("requests_per_client", J.Int r.point.spec.W.requests_per_client);
      ("offered", J.Int r.offered);
      ("completed", J.Int r.completed);
      ("commits", J.Int r.commits);
      ("duration_us", J.Int (Int64.to_int r.duration_us));
      ("makespan_us", J.Int (Int64.to_int r.makespan_us));
      ("throughput_rps", J.Float r.throughput_rps);
      ("latency_mean_us", J.Float r.latency.Thc_util.Stats.mean);
      ("latency_p50_us", J.Float r.latency.Thc_util.Stats.p50);
      ("latency_p90_us", J.Float r.latency.Thc_util.Stats.p90);
      ("latency_p99_us", J.Float r.latency.Thc_util.Stats.p99);
      ("trusted_total", J.Int r.trusted_total);
      ("trusted_per_commit", J.Float r.trusted_per_commit);
      ("trusted_per_request", J.Float r.trusted_per_request);
      ("messages", J.Int r.messages);
      ("safety_violations", J.Int r.safety_violations);
      ( "phase_p50_us",
        J.Obj (List.map (fun (k, v) -> (k, J.Float v)) r.phase_p50_us) );
    ]

let export ?network ~seed results =
  let b = Buffer.create 4096 in
  let line j =
    Buffer.add_string b (J.to_string j);
    Buffer.add_char b '\n'
  in
  line
    (Thc_obsv.Envelope.header ~typ:"loadtest" ~schema ~seed
       ~jobs:(List.length results)
       ~git:(Thc_exec.Gitinfo.describe ())
       ~extra:
         (("points", J.Int (List.length results))
         ::
         (* Only emitted when a model is set, so pre-S7 exports keep
            their exact bytes; readers treat it as optional. *)
         (match network with
         | None -> []
         | Some m -> [ ("network", J.Str (Thc_network.Model.tag m)) ]))
       ());
  List.iter (fun r -> line (result_to_json r)) results;
  Buffer.contents b

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
}

let row_of_json j =
  let str k = Option.bind (J.member k j) J.to_str in
  let int k = Option.value ~default:0 (Option.bind (J.member k j) J.to_int) in
  let flt k =
    Option.value ~default:0.0 (Option.bind (J.member k j) J.to_float)
  in
  match (str "protocol", str "arrival") with
  | Some r_protocol, Some r_arrival ->
    Some
      {
        r_protocol;
        r_arrival;
        r_rate_rps = flt "rate_rps";
        r_window = int "window";
        r_batch = int "batch";
        r_clients = int "clients";
        r_offered = int "offered";
        r_completed = int "completed";
        r_commits = int "commits";
        r_throughput_rps = flt "throughput_rps";
        r_mean_us = flt "latency_mean_us";
        r_p50_us = flt "latency_p50_us";
        r_p99_us = flt "latency_p99_us";
        r_trusted_total = int "trusted_total";
        r_trusted_per_commit = flt "trusted_per_commit";
        r_trusted_per_request = flt "trusted_per_request";
        r_messages = int "messages";
        r_safety = int "safety_violations";
        r_phase_p50 =
          (match J.member "phase_p50_us" j with
          | Some (J.Obj kvs) ->
            List.filter_map
              (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v))
              kvs
          | Some _ | None -> [] (* pre-span exports: no per-phase columns *));
      }
  | _ -> None

let parse text =
  let lines =
    List.filter
      (fun (_, l) -> String.trim l <> "")
      (List.mapi (fun i l -> (i + 1, l)) (String.split_on_char '\n' text))
  in
  (* A line that does not parse — truncated writes included — is a
     hard error naming the line, not a silent drop: a report over a
     partial export must say so rather than under-count. *)
  let rec collect acc = function
    | [] -> Ok (List.rev acc)
    | (lineno, l) :: rest -> (
      match J.parse l with
      | Error e ->
        Error
          (Printf.sprintf "line %d: malformed or truncated JSONL (%s)" lineno
             e)
      | Ok j -> (
        match Option.bind (J.member "type" j) J.to_str with
        | Some "point" -> (
          match row_of_json j with
          | Some r -> collect (r :: acc) rest
          | None ->
            Error
              (Printf.sprintf "line %d: point row missing protocol/arrival"
                 lineno))
        | _ -> collect acc rest))
  in
  match lines with
  | [] -> Error "empty loadtest export"
  | ((_, header) :: rest) as all -> (
    match J.parse header with
    | Error e -> Error (Printf.sprintf "bad header: %s" e)
    | Ok h -> (
      match
        (Option.bind (J.member "type" h) J.to_str,
         Option.bind (J.member "schema" h) J.to_str)
      with
      | Some "loadtest", Some s when s = schema -> collect [] rest
      | Some "loadtest", Some s ->
        Error (Printf.sprintf "schema mismatch: got %s, want %s" s schema)
      | Some "point", _ ->
        (* Headerless v1 stream: every line is a point row.  Pre-envelope
           tooling concatenated or tailed exports without the header; keep
           reading them. *)
        collect [] all
      | _ -> Error "not a loadtest export (missing type/schema header)"))
