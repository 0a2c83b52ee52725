(* The per-layer suite of the traced run.  Every layer is timed from
   outside, through its public functions, at the sizes the workloads use;
   each timing is also a span in the trace.  The suite is the same whatever
   the workload, so every traced run reports every layer metric. *)

module H = Thc_replication.Harness
module E = Thc_sim.Engine
module Swmr = Thc_sharedmem.Swmr

type sink = {
  add : string -> string -> float -> unit;  (* name, unit, value *)
  check : string -> bool -> unit;  (* what, held *)
}

let msg64 = String.init 64 (fun i -> Char.chr (97 + (i mod 26)))

(* Median over five batches of [n] operations, in ns per operation; [loop n]
   performs one batch.  One untimed batch first. *)
let ns_per ~n name loop =
  loop n;
  let xs = List.init 5 (fun _ -> snd (Tracer.time name (fun () -> loop n))) in
  1e9 *. Pstats.median xs /. float_of_int n

(* --- lib/hardware, lib/crypto, lib/sharedmem, lib/util micro costs ------- *)

let micro s ~quick =
  let n = if quick then 2_000 else 200_000 in
  let rng = Thc_util.Rng.create 11L in
  let keyring = Thc_crypto.Keyring.create rng ~n:1 in
  let secret = Thc_crypto.Keyring.secret keyring ~pid:0 in
  let world = Thc_hardware.Trinc.create_world rng ~n:1 in
  let trinket = Thc_hardware.Trinc.trinket world ~owner:0 in
  let counter = ref 0 in
  let attest () =
    incr counter;
    Option.get (Thc_hardware.Trinc.attest trinket ~counter:!counter ~message:msg64)
  in
  let a = attest () in
  let signature = Thc_crypto.Signature.sign secret msg64 in
  let ledger = Thc_obsv.Ledger.create () in
  let register = Swmr.create ~owner:0 ~init:0 in
  Swmr.attach_ledger register ledger;
  let log64 = Swmr.create_log ~owner:0 in
  for i = 1 to 64 do
    Swmr.append log64 ~ident:secret (i, msg64)
  done;
  let repeat f k =
    for _ = 1 to k do
      ignore (Sys.opaque_identity (f ()))
    done
  in
  let ns name f = ns_per ~n name (repeat f) in
  let attest_ns = ns "hardware.trinc_attest" attest in
  let check_ns = ns "hardware.trinc_check" (fun () -> Thc_hardware.Trinc.check world a ~id:0) in
  let append_ns =
    ns_per ~n "sharedmem.swmr_append" (fun k ->
        let log = Swmr.create_log ~owner:0 in
        Swmr.attach_ledger log ledger;
        for i = 1 to k do
          Swmr.append log ~ident:secret (i, msg64)
        done)
  in
  let read_ns = ns "sharedmem.swmr_read" (fun () -> Swmr.read register) in
  s.add "hardware.trinc_attest_ns" "ns" attest_ns;
  s.add "hardware.trinc_check_ns" "ns" check_ns;
  s.add "crypto.sign_ns" "ns" (ns "crypto.sign" (fun () -> Thc_crypto.Signature.sign secret msg64));
  s.add "crypto.verify_ns" "ns"
    (ns "crypto.verify" (fun () -> Thc_crypto.Signature.verify keyring signature msg64));
  s.add "crypto.digest_64b_ns" "ns" (ns "crypto.digest" (fun () -> Thc_crypto.Digest.of_string msg64));
  s.add "sharedmem.swmr_append_ns" "ns" append_ns;
  s.add "sharedmem.swmr_read_ns" "ns" read_ns;
  s.add "sharedmem.swmr_entries_ns" "ns" (ns "sharedmem.swmr_entries" (fun () -> Swmr.entries log64));
  (* Calendar-queue hold model: pop the minimum, push it back later, at a
     steady depth of 64. *)
  let q = Thc_util.Calendar_queue.create ~null:0 () in
  let gaps = Array.init 1024 (fun _ -> 1 + Thc_util.Rng.int rng 1000) in
  let tie = ref 0 in
  for i = 0 to 63 do
    incr tie;
    Thc_util.Calendar_queue.push q ~time:gaps.(i) ~tie:!tie 0
  done;
  let hold () =
    match Thc_util.Calendar_queue.pop q with
    | Some (time, _, v) ->
      incr tie;
      Thc_util.Calendar_queue.push q ~time:(time + gaps.(!tie land 1023)) ~tie:!tie v
    | None -> ()
  in
  s.add "util.cq_hold_ns" "ns" (ns "util.cq_hold" hold);
  s.add "util.codec_encode_ns" "ns"
    (ns "util.codec_encode" (fun () -> Thc_util.Codec.encode (17, msg64, [ 1; 2; 3; 4 ])));
  (* Ledger label -> measured ns, for the trusted-op time estimate. *)
  [ ("trinc.attest", attest_ns); ("trinc.check", check_ns); ("swmr.append", append_ns);
    ("swmr.read", read_ns) ]

(* --- lib/sim: the bare engine ------------------------------------------- *)

(* Four all-to-all broadcasters on 10us timers and no protocol work: every
   event is pop, dispatch, push (the engine ceiling of bench S4). *)
let storm ~tracing =
  let n = 4 and horizon = 50_000L in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (5L, 50L)) in
  let eng : int E.t = E.create ~seed:7L ~tracing ~n ~net () in
  let behavior =
    {
      E.init = (fun ctx -> ctx.set_timer ~delay:10L ~tag:0);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer =
        (fun ctx _ ->
          ctx.others (ctx.self * 1000);
          if ctx.now () < horizon then ctx.set_timer ~delay:10L ~tag:0);
    }
  in
  for pid = 0 to n - 1 do
    E.set_behavior eng pid behavior
  done;
  ignore (E.run ~max_events:10_000_000 eng);
  E.events_processed eng

let storms s =
  List.iter
    (fun (label, tracing) ->
      let name = "sim.storm_" ^ label in
      ignore (storm ~tracing);
      let rates =
        List.init 5 (fun _ ->
            let ev, dt = Tracer.time name (fun () -> storm ~tracing) in
            float_of_int ev /. dt)
      in
      s.add (name ^ "_ev_per_s") "ev/s" (Pstats.median rates))
    [ ("full", E.Full); ("off", E.Off) ]

(* --- lib/replication, lib/obsv: the smr_long decomposition -------------- *)

let replay (type m) ~(classify : m -> string) (exported : string Thc_sim.Trace.t)
    ~replicas ~expected =
  let module Spec = Thc_replication.Smr_spec in
  let trace : m Thc_sim.Trace.t =
    Thc_sim.Trace.map_msg (fun s -> (Thc_util.Codec.decode s : m)) exported
  in
  let fold layer name f =
    (layer, name, snd (Tracer.time (layer ^ ".fold." ^ name) (fun () -> ignore (f ()))))
  in
  [
    fold "replication" "commits" (fun () -> Spec.commits trace ~replicas);
    fold "replication" "check_safety" (fun () -> Spec.check_safety trace ~replicas);
    fold "replication" "state_determinism" (fun () ->
        Spec.check_state_determinism trace ~replicas);
    fold "replication" "liveness" (fun () -> Spec.check_liveness trace ~expected);
    fold "replication" "client_latencies" (fun () -> Spec.client_latencies trace);
    fold "sim" "delivery_report" (fun () -> Thc_sim.Metrics.delivery_report trace);
    fold "sim" "kind_counts" (fun () -> Thc_sim.Metrics.kind_counts trace ~classify);
  ]

(* Each fault-free smr_long cell through the four Harness entry points
   (run_lite, run, run_spans, run_export), then the run's folds replayed on
   the exported trace: the steps between them are the layers' costs.  One
   parent span per protocol; its self time is the untimed glue, mostly
   decoding the exported messages for the replay. *)
let decompose s ~seed ~ops ~hw_ns =
  let folds = Hashtbl.create 8 in
  let parse_s = ref 0. and est_ops_s = ref 0. and run_total = ref 0. in
  List.iter
    (fun protocol ->
      let p = Thc_replication.Protocol.to_string protocol in
      fst @@ Tracer.time ("replication.decompose." ^ p) @@ fun () ->
      let setup = H.Setup.make ~protocol ~f:1 ~ops ~clients:4 ~seed () in
      let lite, t_lite = Tracer.time ("replication.run_lite." ^ p) (fun () -> H.run_lite setup) in
      let o, t_run = Tracer.time ("replication.run." ^ p) (fun () -> H.run setup) in
      let _, t_spans = Tracer.time ("obsv.run_spans." ^ p) (fun () -> H.run_spans setup) in
      let (_, export), t_export =
        Tracer.time ("obsv.run_export." ^ p) (fun () -> H.run_export setup)
      in
      s.check ("smr_long cell " ^ p)
        (o.safety_violations = [] && o.liveness_violations = []
        && o.completed = ops * 4 && lite.l_completed = o.completed);
      let parsed, t_parse = Tracer.time "sim.trace_parse" (fun () -> Thc_sim.Trace.of_jsonl export) in
      parse_s := !parse_s +. t_parse;
      let fold_times =
        match parsed with
        | Error e ->
          s.check ("trace parse " ^ p ^ ": " ^ e) false;
          []
        | Ok trace ->
          let replicas = o.replicas in
          let expected =
            Thc_replication.Smr_spec.expect_range ~clients:4 ~per_client:ops
              ~first_client_pid:replicas
          in
          let go classify = replay ~classify trace ~replicas ~expected in
          (match protocol with
          | H.Minbft -> go Thc_replication.Minbft.classify_msg
          | H.Pbft -> go Thc_replication.Pbft.classify_msg
          | H.Ubft -> go Thc_replication.Ubft.classify_msg)
      in
      List.iter
        (fun (layer, name, dt) ->
          let key = layer ^ ".fold_s." ^ name in
          Hashtbl.replace folds key (dt +. Option.value (Hashtbl.find_opt folds key) ~default:0.))
        fold_times;
      let fold_sum = List.fold_left (fun acc (_, _, dt) -> acc +. dt) 0. fold_times in
      let completed = float_of_int lite.l_completed in
      s.add ("replication.run_lite_s." ^ p) "s" t_lite;
      s.add ("replication.run_s." ^ p) "s" t_run;
      (* Ratios of two timings, printed for reading only: a slower step
         moves them either way, so they are not metrics. *)
      Printf.printf
        "perf: decomposition %s: reduce share (run - run_lite) / run = %.3f; \
         accounted (run_lite + folds) / run = %.3f\n"
        p ((t_run -. t_lite) /. t_run) ((t_lite +. fold_sum) /. t_run);
      s.add ("replication.messages_per_request." ^ p) "msg/req" o.messages_per_op;
      s.add ("sim.lite_ev_per_s." ^ p) "ev/s" (float_of_int lite.l_events /. t_lite);
      s.add ("sim.events_per_request." ^ p) "ev/req" (float_of_int lite.l_events /. completed);
      s.add ("obsv.spans_s." ^ p) "s" (t_spans -. t_run);
      s.add ("obsv.export_s." ^ p) "s" (t_export -. t_run);
      if protocol <> H.Pbft then
        s.add ("hardware.trusted_per_request." ^ p) "ops/req" o.trusted_per_request;
      run_total := !run_total +. t_run;
      List.iter
        (fun (label, count) ->
          match List.assoc_opt label hw_ns with
          | Some ns -> est_ops_s := !est_ops_s +. (float_of_int count *. ns *. 1e-9)
          | None -> ())
        o.trusted_ops)
    Thc_replication.Protocol.all;
  s.add "sim.trace_parse_s" "s" !parse_s;
  List.iter
    (fun key -> s.add key "s" (Hashtbl.find folds key))
    (List.sort compare (Hashtbl.fold (fun k _ acc -> k :: acc) folds []));
  s.add "hardware.est_share.smr_long" "share" (!est_ops_s /. !run_total)

(* --- lib/rounds, lib/sharedmem, lib/broadcast: Algorithm 1's cell -------- *)

(* The srb-from-uni witness's first cell (seed 1), with a ledger on the
   registers to count their operations. *)
let srb_uni s ~until =
  let ledger = Thc_obsv.Ledger.create () in
  let (trace, events), dt =
    Tracer.time "rounds.srb_uni" (fun () -> Work.srb_cell ~ledger ~seed:1L ~until ())
  in
  let violations, t_check =
    Tracer.time "broadcast.srb_spec_check" (fun () -> Thc_broadcast.Srb_spec.check trace ~sender:0)
  in
  s.check "srb-from-uni cell" (violations = [] && Work.srb_complete trace);
  s.add "rounds.srb_uni_ev_per_s" "ev/s" (float_of_int events /. dt);
  s.add "rounds.srb_uni_events" "count" (float_of_int events);
  s.add "sharedmem.swmr_ops_per_event" "ops/ev"
    (float_of_int (Thc_obsv.Ledger.total ledger) /. float_of_int events);
  s.add "broadcast.srb_spec_check_s" "s" t_check

(* --- lib/check: the explorer -------------------------------------------- *)

let explorer s ~seed ~seeds =
  let script_ms = ref [] and runs = ref [] in
  List.iter
    (fun (h : Thc_check.Harness.t) ->
      let fam = Option.get (Work.family h.name) in
      for i = 0 to seeds - 1 do
        let seed = Work.seed_plus seed i in
        (* script_for takes microseconds: time 50 and divide. *)
        let (), dt =
          Tracer.time "check.script_for" (fun () ->
              for _ = 1 to 50 do
                ignore (Sys.opaque_identity (Thc_check.Sweep.script_for h ~seed ()))
              done)
        in
        script_ms := (1000. *. dt /. 50.) :: !script_ms;
        let o, dt = Tracer.time ("check.run_one." ^ fam) (fun () -> Thc_check.Sweep.run_one h ~seed ()) in
        s.check ("explorer " ^ h.name) (not (Thc_check.Monitor.failed o.report.verdict));
        runs := (fam, 1000. *. dt) :: !runs
      done)
    Work.explore_harnesses;
  s.add "check.script_ms_p50" "ms" (Pstats.median !script_ms);
  List.iter
    (fun fam ->
      s.add ("check.run_ms_p50." ^ fam) "ms"
        (Pstats.median (List.filter_map (fun (f, ms) -> if f = fam then Some ms else None) !runs)))
    Work.families;
  s.add "check.run_ms_p99" "ms" (Pstats.percentile (List.map snd !runs) 0.99)

(* --- lib/workload: traffic plans and load points ------------------------- *)

let load s ~seed ~clients ~requests =
  let spec = Work.load_spec ~clients ~requests (Thc_workload.Workload.Open_poisson { rate_rps = 2000. }) in
  let plan_ms =
    List.init 20 (fun _ ->
        1000.
        *. snd
             (Tracer.time "workload.plan" (fun () ->
                  for client = 0 to clients - 1 do
                    ignore (Sys.opaque_identity (Thc_workload.Workload.plan spec ~seed ~client))
                  done)))
  in
  s.add "workload.plan_ms" "ms" (Pstats.median plan_ms);
  List.iter
    (fun (name, point) ->
      let r, dt = Tracer.time ("workload.run_point." ^ name) (fun () -> Thc_workload.Loadtest.run_point point) in
      s.check ("load point " ^ name) (r.safety_violations = 0 && r.completed = r.offered);
      s.add ("workload.point_s." ^ name) "s" dt;
      s.add ("workload.requests_per_commit." ^ name) "req/commit"
        (float_of_int r.completed /. float_of_int (max 1 r.commits)))
    (Work.load_points ~clients ~requests ~seed)

(* --- lib/core: the Figure 1 witnesses ------------------------------------ *)

(* Every witness on its own, then the verifier that runs them (most of it
   is the srb-from-uni witness, so the two times should nearly agree). *)
let witnesses s =
  let sum =
    List.fold_left
      (fun acc (w : Thc_classify.Witnesses.t) ->
        let (ok, _), dt = Tracer.time ("classify.witness." ^ w.id) w.run in
        s.check ("witness " ^ w.id) ok;
        s.add ("classify.witness_s." ^ w.id) "s" dt;
        acc +. dt)
      0. Thc_classify.Witnesses.all
  in
  let rows, dt =
    Tracer.time "classify.hierarchy_verify" (fun () ->
        Thc_classify.Hierarchy.verify Thc_classify.Hierarchy.paper)
  in
  s.check "Hierarchy.verify" (List.for_all (fun (_, ok, _) -> ok) rows);
  s.add "classify.hierarchy_verify_s" "s" dt;
  Printf.printf "perf: witness sum %.3f s = %.3f of Hierarchy.verify %.3f s\n" sum (sum /. dt) dt

let run s ~seed ~quick =
  let hw_ns = micro s ~quick in
  storms s;
  decompose s ~seed ~ops:(if quick then 10 else 250) ~hw_ns;
  srb_uni s ~until:(if quick then 2_000_000L else 20_000_000L);
  explorer s ~seed ~seeds:(if quick then 2 else 64);
  (if quick then load s ~seed ~clients:2 ~requests:5 else load s ~seed ~clients:8 ~requests:100);
  witnesses s
