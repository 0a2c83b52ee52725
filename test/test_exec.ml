(* Tests for the parallel execution subsystem: pool determinism, failure
   containment, the runner shape, the export envelope, and the promise the
   CLI makes everywhere — that `--jobs N` output is byte-identical to a
   sequential run for every sweep driver. *)

module Pool = Thc_exec.Pool
module Runner = Thc_exec.Runner

let str = Alcotest.string

(* substring check without pulling in astring *)
let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* --- pool ----------------------------------------------------------------- *)

let test_map_matches_sequential () =
  let keys = List.init 23 (fun i -> i) in
  let f k = (k * k) + 1 in
  let expect = List.map (fun k -> Ok (f k)) keys in
  List.iter
    (fun jobs ->
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d equals in-process map" jobs)
        true
        (Pool.map ~jobs f keys = expect))
    [ 1; 2; 4; 7 ]

let test_on_result_fires_in_key_order () =
  let seen = ref [] in
  let on_result i _ = seen := i :: !seen in
  (* Jobs with deliberately inverted runtimes: later keys finish first in
     wall-clock terms, so in-order delivery is doing real work here. *)
  let f k =
    Unix.sleepf (float_of_int (7 - k) /. 500.);
    k
  in
  ignore (Pool.map ~jobs:4 ~on_result f [ 0; 1; 2; 3; 4; 5; 6 ]);
  Alcotest.(check (list int))
    "ascending key order despite finish order" [ 0; 1; 2; 3; 4; 5; 6 ]
    (List.rev !seen)

let test_job_exception_is_error_result () =
  let f k = if k = 2 then failwith "boom" else k in
  let rs = Pool.map ~jobs:3 f [ 0; 1; 2; 3; 4 ] in
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "surviving key" i v
      | Error e ->
        Alcotest.(check int) "only key 2 fails" 2 i;
        Alcotest.(check bool) "error names the exception" true
          (contains ~affix:"boom" e))
    rs;
  Alcotest.(check int) "one failure" 1
    (List.length (List.filter Result.is_error rs))

let test_closure_results_cross_domains () =
  (* Results stay in the one heap, so a result carrying a closure comes
     back [Ok] at any [jobs] value. *)
  let rs = Pool.map ~jobs:2 (fun k () -> k * 3) [ 0; 1; 2; 3 ] in
  List.iteri
    (fun i r ->
      match r with
      | Ok g -> Alcotest.(check int) "closure result" (i * 3) (g ())
      | Error e -> Alcotest.failf "key %d: %s" i e)
    rs

let test_on_result_exception_propagates () =
  let on_result i _ = if i = 1 then failwith "hook" in
  (match Pool.map ~jobs:2 ~on_result (fun k -> k) [ 0; 1; 2; 3 ] with
  | _ -> Alcotest.fail "expected the hook's exception"
  | exception Failure e -> Alcotest.(check string) "hook exception" "hook" e);
  Alcotest.(check bool) "the pool still maps afterwards" true
    (Pool.map ~jobs:2 (fun k -> k) [ 4; 5 ] = [ Ok 4; Ok 5 ])

(* The worker count the pool promises: one per job, key and recommended
   core, and 0 when that leaves the calling domain alone. *)
let expected_workers ~jobs ~keys =
  match min jobs (min keys (Domain.recommended_domain_count ())) with
  | 1 -> 0
  | w -> w

let test_stats_accounting () =
  let keys = List.init 8 (fun i -> i) in
  let _, seq = Pool.map_stats ~jobs:1 (fun k -> k) keys in
  Alcotest.(check int) "sequential: no workers" 0 seq.Pool.workers;
  Alcotest.(check int) "sequential: all keys" 8 seq.Pool.keys;
  let _, par = Pool.map_stats ~jobs:3 (fun k -> k) keys in
  Alcotest.(check int) "parallel: min jobs keys cores"
    (expected_workers ~jobs:3 ~keys:8)
    par.Pool.workers;
  Alcotest.(check int) "parallel: all keys" 8 par.Pool.keys;
  Alcotest.(check int) "parallel: no failures" 0 par.Pool.failed;
  if par.Pool.workers > 0 then
    Alcotest.(check int) "per-worker counts cover the keys" 8
      (Array.fold_left ( + ) 0 par.Pool.keys_per_worker);
  let u = Pool.utilization par in
  Alcotest.(check bool) "utilization in [0,1]" true (u >= 0. && u <= 1.)

let test_workers_never_exceed_keys () =
  let _, st = Pool.map_stats ~jobs:16 (fun k -> k) [ 1; 2; 3 ] in
  Alcotest.(check int) "clamped to keys and cores"
    (expected_workers ~jobs:16 ~keys:3)
    st.Pool.workers;
  let _, one = Pool.map_stats ~jobs:16 (fun k -> k) [ 1 ] in
  Alcotest.(check int) "one key runs on the calling domain" 0 one.Pool.workers

(* --- runner --------------------------------------------------------------- *)

let square_sum =
  {
    Runner.name = "square-sum";
    keys = [ 1; 2; 3; 4; 5 ];
    run_one = (fun k -> k * k);
    summarize = List.fold_left ( + ) 0;
  }

let test_runner_summary_jobs_invariant () =
  Alcotest.(check int) "sequential" 55 (Runner.run ~jobs:1 square_sum);
  Alcotest.(check int) "parallel" 55 (Runner.run ~jobs:4 square_sum)

let test_runner_failure_raises () =
  let r =
    {
      Runner.name = "fragile";
      keys = [ 0; 1; 2; 3 ];
      run_one = (fun k -> if k >= 2 then failwith "fragile job" else k);
      summarize = List.length;
    }
  in
  match Runner.run ~jobs:2 r with
  | _ -> Alcotest.fail "expected Job_failed"
  | exception Runner.Job_failed { runner; index; reason } ->
    Alcotest.(check string) "runner name" "fragile" runner;
    Alcotest.(check int) "lowest failing key" 2 index;
    Alcotest.(check bool) "reason preserved" true
      (contains ~affix:"fragile job" reason)

(* --- envelope ------------------------------------------------------------- *)

let test_envelope_field_order () =
  let module J = Thc_obsv.Json in
  Alcotest.check str "full header"
    {|{"type":"loadtest","schema":"thc-loadtest/v1","seed":7,"jobs":4,"git":"abc123","points":4}|}
    (J.to_string
       (Thc_obsv.Envelope.header ~typ:"loadtest" ~schema:"thc-loadtest/v1"
          ~seed:7L ~jobs:4 ~git:"abc123"
          ~extra:[ ("points", J.Int 4) ]
          ()));
  Alcotest.check str "minimal header"
    {|{"type":"bench","schema":"thc-bench/v2"}|}
    (J.to_string
       (Thc_obsv.Envelope.header ~typ:"bench" ~schema:"thc-bench/v2" ()))

(* --- drivers: --jobs N must be byte-identical to sequential ---------------- *)

let render pp v = Format.asprintf "%a" pp v

let test_check_sweep_jobs_identical () =
  (* The checkpoint harness runs MinBFT's per-domain decode table and
     Digest's per-domain scratch buffer in spawned domains. *)
  List.iter
    (fun name ->
      let h = Option.get (Thc_check.Harness.find name) in
      let run jobs =
        render Thc_check.Sweep.pp_summary
          (Thc_check.Sweep.sweep h ~jobs ~base_seed:1L ~runs:6 ())
      in
      Alcotest.check str (name ^ ": rendered summary identical") (run 1)
        (run 4))
    [ "minbft"; "minbft-forged-checkpoint" ]

let test_byz_matrix_jobs_identical () =
  let run jobs =
    String.concat "\n"
      (Thc_byz.Matrix.to_jsonl
         (Thc_byz.Matrix.sweep ~jobs ~seeds:[ 1L ] ~timings:[ 2_000L ] ()))
  in
  Alcotest.check str "matrix export identical" (run 1) (run 3)

let loadtest_template =
  let module W = Thc_workload.Workload in
  let module L = Thc_workload.Loadtest in
  {
    L.protocol = L.Minbft;
    f = 1;
    batch = 1;
    seed = 5L;
    delay = Thc_sim.Delay.Uniform (50L, 500L);
    network = None;
    spec =
      {
        W.clients = 2;
        requests_per_client = 6;
        arrival = W.Open_poisson { rate_rps = 400. };
        keys = W.Keys_zipf { keys = 16; theta = 0.99 };
        mix = W.default_mix;
      };
  }

let loadtest_export jobs =
  let module W = Thc_workload.Workload in
  let module L = Thc_workload.Loadtest in
  L.export ~seed:5L
    (L.sweep ~jobs loadtest_template
       ~arrivals:
         [
           W.Open_poisson { rate_rps = 400. };
           W.Open_uniform { rate_rps = 800. };
         ]
       ~batches:[ 1; 2 ])

let test_loadtest_export_jobs_identical () =
  Alcotest.check str "loadtest export identical" (loadtest_export 1)
    (loadtest_export 2)

let test_loadtest_headerless_parse_compat () =
  (* Pre-envelope v1 streams had no header line: dropping the header from a
     current export must parse to the same rows. *)
  let module L = Thc_workload.Loadtest in
  let doc = loadtest_export 1 in
  let headerless =
    match String.index_opt doc '\n' with
    | Some i -> String.sub doc (i + 1) (String.length doc - i - 1)
    | None -> Alcotest.fail "export has no line break"
  in
  match (L.parse doc, L.parse headerless) with
  | Ok a, Ok b ->
    Alcotest.(check int) "same row count" (List.length a) (List.length b);
    Alcotest.(check bool) "same rows" true (a = b)
  | Error e, _ | _, Error e -> Alcotest.failf "parse failed: %s" e

let test_phase_trace_export_jobs_identical () =
  (* The span campaign behind `thc trace`: run_spans outcomes (span views
     plus attribution rows) built on pool domains, merged in seed order
     — export bytes must not depend on the worker count. *)
  let module PT = Thc_workload.Phase_trace in
  let campaign =
    {
      PT.setup =
        Thc_replication.Harness.Setup.make
          ~protocol:Thc_replication.Harness.Minbft ~f:1 ~ops:6 ~clients:2
          ~batch:2 ~seed:1L ();
      seeds = [ 1L; 2L; 3L ];
    }
  in
  let doc jobs = PT.export campaign (PT.run ~jobs campaign) in
  let a = doc 1 in
  Alcotest.check str "span export identical across jobs" a (doc 3);
  match PT.parse a with
  | Ok rows ->
    Alcotest.(check bool) "export parses back nonempty" true (rows <> []);
    List.iter
      (fun (seed, _) ->
        Alcotest.(check bool) "each span carries a campaign seed" true
          (List.mem seed [ 1L; 2L; 3L ]))
      rows
  | Error e -> Alcotest.failf "parse failed: %s" e

(* --- bench-shaped grid through the pool ------------------------------------ *)

let test_replication_grid_jobs_identical () =
  (* The bench S1 table's exact shape: Harness.run outcomes (records with
     nested stats and a metrics registry) built on pool domains. *)
  let cells =
    [
      (Thc_replication.Harness.Minbft, 1);
      (Thc_replication.Harness.Pbft, 1);
      (Thc_replication.Harness.Minbft, 2);
    ]
  in
  let run_cell (protocol, f) =
    Thc_replication.Harness.run
      (Thc_replication.Harness.Setup.make ~protocol ~f ~ops:10 ~seed:17L ())
  in
  let summarise rs =
    List.map
      (function
        | Ok (o : Thc_replication.Harness.outcome) ->
          Printf.sprintf "%d/%d msgs=%.2f mean=%.1f" o.completed o.commits
            o.messages_per_op o.latency.mean
        | Error e -> "error: " ^ e)
      rs
  in
  Alcotest.(check (list string))
    "grid rows identical"
    (summarise (Pool.map ~jobs:1 run_cell cells))
    (summarise (Pool.map ~jobs:3 run_cell cells))

let () =
  Alcotest.run "exec"
    [
      ( "pool",
        [
          Alcotest.test_case "map equals sequential" `Quick
            test_map_matches_sequential;
          Alcotest.test_case "on_result in key order" `Quick
            test_on_result_fires_in_key_order;
          Alcotest.test_case "job exception becomes Error" `Quick
            test_job_exception_is_error_result;
          Alcotest.test_case "closure results cross domains" `Quick
            test_closure_results_cross_domains;
          Alcotest.test_case "on_result exception propagates" `Quick
            test_on_result_exception_propagates;
          Alcotest.test_case "stats accounting" `Quick test_stats_accounting;
          Alcotest.test_case "workers clamp to keys" `Quick
            test_workers_never_exceed_keys;
        ] );
      ( "runner",
        [
          Alcotest.test_case "summary invariant across jobs" `Quick
            test_runner_summary_jobs_invariant;
          Alcotest.test_case "failure raises Job_failed" `Quick
            test_runner_failure_raises;
        ] );
      ( "envelope",
        [
          Alcotest.test_case "field order" `Quick test_envelope_field_order;
        ] );
      ( "drivers",
        [
          Alcotest.test_case "check sweep identical across jobs" `Quick
            test_check_sweep_jobs_identical;
          Alcotest.test_case "byz matrix identical across jobs" `Quick
            test_byz_matrix_jobs_identical;
          Alcotest.test_case "loadtest export identical across jobs" `Quick
            test_loadtest_export_jobs_identical;
          Alcotest.test_case "headerless v1 parse compat" `Quick
            test_loadtest_headerless_parse_compat;
          Alcotest.test_case "phase trace export identical across jobs" `Quick
            test_phase_trace_export_jobs_identical;
          Alcotest.test_case "replication grid identical across jobs" `Quick
            test_replication_grid_jobs_identical;
        ] );
    ]
