(* Tests for the workload subsystem: schedule determinism, the statistical
   shape of the generators, the closed-loop client, and the loadtest
   runner's export round trip. *)

module W = Thc_workload.Workload
module L = Thc_workload.Loadtest
module Zipf = Thc_workload.Zipf

let spec ?(clients = 4) ?(requests_per_client = 50)
    ?(arrival = W.Open_poisson { rate_rps = 500.0 })
    ?(keys = W.Keys_zipf { keys = 32; theta = 0.99 }) () =
  { W.clients; requests_per_client; arrival; keys; mix = W.default_mix }

(* --- determinism ------------------------------------------------------------ *)

let test_plan_deterministic () =
  let s = spec () in
  for client = 0 to 3 do
    Alcotest.(check bool)
      (Printf.sprintf "client %d: same seed, same plan" client)
      true
      (W.plan s ~seed:7L ~client = W.plan s ~seed:7L ~client)
  done;
  Alcotest.(check bool) "different seeds diverge" true
    (W.plan s ~seed:7L ~client:0 <> W.plan s ~seed:8L ~client:0);
  Alcotest.(check bool) "different clients diverge" true
    (W.plan s ~seed:7L ~client:0 <> W.plan s ~seed:7L ~client:1)

let test_ops_independent_of_arrival () =
  (* The op stream must not move when only the pacing changes — otherwise a
     rate sweep would silently also change the workload content. *)
  let base = spec () in
  let ops arrival = W.ops { base with W.arrival } ~seed:11L ~client:2 in
  let reference = ops (W.Open_poisson { rate_rps = 500.0 }) in
  Alcotest.(check bool) "uniform pacing, same ops" true
    (ops (W.Open_uniform { rate_rps = 50.0 }) = reference);
  Alcotest.(check bool) "closed loop, same ops" true
    (ops (W.Closed { window = 3; think_us = 100L }) = reference)

let test_plan_shape () =
  let s = spec ~requests_per_client:20 () in
  match W.plan s ~seed:3L ~client:1 with
  | None -> Alcotest.fail "open-loop spec must yield a plan"
  | Some plan ->
    Alcotest.(check int) "plan length" 20 (List.length plan);
    let times = List.map fst plan in
    Alcotest.(check bool) "send times strictly ascending" true
      (List.for_all2
         (fun a b -> Int64.compare a b < 0)
         (List.filteri (fun i _ -> i < 19) times)
         (List.tl times));
    Alcotest.(check bool) "closed loop has no plan" true
      (W.plan { s with W.arrival = W.Closed { window = 2; think_us = 0L } }
         ~seed:3L ~client:1
      = None)

(* --- statistical shape ------------------------------------------------------ *)

let test_poisson_mean_within_tolerance () =
  let s =
    spec ~clients:2 ~requests_per_client:2000
      ~arrival:(W.Open_poisson { rate_rps = 1000.0 })
      ()
  in
  match W.arrival_times s ~seed:5L ~client:0 with
  | None -> Alcotest.fail "poisson spec must yield arrival times"
  | Some times ->
    let last = List.nth times (List.length times - 1) in
    let mean_gap = Int64.to_float last /. float_of_int (List.length times) in
    let expected = W.mean_gap_us s ~rate_rps:1000.0 in
    let err = Float.abs (mean_gap -. expected) /. expected in
    Alcotest.(check bool)
      (Printf.sprintf "mean gap %.0fµs within 10%% of %.0fµs" mean_gap expected)
      true (err < 0.10)

let zipf_counts ~n ~theta ~samples =
  let z = Zipf.create ~n ~theta in
  let rng = Thc_util.Rng.create 13L in
  let counts = Array.make n 0 in
  for _ = 1 to samples do
    let r = Zipf.sample z rng in
    counts.(r) <- counts.(r) + 1
  done;
  counts

let test_zipf_rank_frequency_monotone () =
  let counts = zipf_counts ~n:16 ~theta:1.0 ~samples:40_000 in
  (* Compare well-separated ranks so sampling noise cannot flip the order;
     the distribution itself is strictly decreasing in rank. *)
  Alcotest.(check bool) "rank 0 beats rank 3" true (counts.(0) > counts.(3));
  Alcotest.(check bool) "rank 3 beats rank 8" true (counts.(3) > counts.(8));
  Alcotest.(check bool) "rank 8 beats rank 15" true (counts.(8) > counts.(15));
  Alcotest.(check bool) "head is heavy" true
    (counts.(0) > 4 * counts.(15))

let test_zipf_theta_zero_is_uniform () =
  let counts = zipf_counts ~n:8 ~theta:0.0 ~samples:40_000 in
  let mn = Array.fold_left min max_int counts in
  let mx = Array.fold_left max 0 counts in
  Alcotest.(check bool)
    (Printf.sprintf "uniform spread (min %d, max %d)" mn mx)
    true
    (float_of_int mx /. float_of_int mn < 1.15)

let test_spec_validation () =
  let bad s = try W.validate s; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "zero clients rejected" true
    (bad { (spec ()) with W.clients = 0 });
  Alcotest.(check bool) "zero rate rejected" true
    (bad { (spec ()) with W.arrival = W.Open_poisson { rate_rps = 0.0 } });
  Alcotest.(check bool) "zero window rejected" true
    (bad { (spec ()) with W.arrival = W.Closed { window = 0; think_us = 0L } });
  Alcotest.(check bool) "all-zero mix rejected" true
    (bad { (spec ()) with W.mix = { gets = 0; puts = 0; incrs = 0 } })

(* --- loadtest runner -------------------------------------------------------- *)

let point ?(protocol = L.Minbft) ?(batch = 1)
    ?(arrival = W.Open_poisson { rate_rps = 800.0 }) () =
  {
    L.protocol;
    f = 1;
    batch;
    seed = 41L;
    delay = Thc_sim.Delay.Uniform (50L, 500L);
    network = None;
    spec = spec ~clients:3 ~requests_per_client:10 ~arrival ();
  }

let test_closed_loop_completes () =
  let r =
    L.run_point
      (point ~arrival:(W.Closed { window = 2; think_us = 500L }) ())
  in
  Alcotest.(check int) "all requests completed" r.L.offered r.L.completed;
  Alcotest.(check int) "no safety violations" 0 r.L.safety_violations;
  Alcotest.(check bool) "positive throughput" true (r.L.throughput_rps > 0.0)

let test_run_point_deterministic () =
  let a = L.run_point (point ()) and b = L.run_point (point ()) in
  Alcotest.(check bool) "identical results" true (a = b);
  Alcotest.(check string) "identical export bytes"
    (L.export ~seed:41L [ a ])
    (L.export ~seed:41L [ b ])

let test_ubft_point_completes () =
  let r = L.run_point (point ~protocol:L.Ubft ()) in
  Alcotest.(check int) "all requests completed" r.L.offered r.L.completed;
  Alcotest.(check int) "no safety violations" 0 r.L.safety_violations;
  Alcotest.(check bool) "register ops charged" true
    (r.L.trusted_per_request > 0.0)

let test_ubft_point_deterministic () =
  let run () = L.run_point (point ~protocol:L.Ubft ()) in
  let a = run () and b = run () in
  Alcotest.(check bool) "identical results" true (a = b);
  Alcotest.(check string) "identical export bytes"
    (L.export ~seed:41L [ a ])
    (L.export ~seed:41L [ b ])

let test_batching_amortizes () =
  let b1 = L.run_point (point ~batch:1 ())
  and b4 = L.run_point (point ~batch:4 ()) in
  Alcotest.(check int) "batch 1 completes" b1.L.offered b1.L.completed;
  Alcotest.(check int) "batch 4 completes" b4.L.offered b4.L.completed;
  Alcotest.(check bool)
    (Printf.sprintf "trusted/req falls (%.2f < %.2f)" b4.L.trusted_per_request
       b1.L.trusted_per_request)
    true
    (b4.L.trusted_per_request < b1.L.trusted_per_request)

let test_export_parse_roundtrip () =
  let results =
    L.sweep (point ())
      ~arrivals:
        [
          W.Open_poisson { rate_rps = 800.0 };
          W.Closed { window = 2; think_us = 0L };
        ]
      ~batches:[ 1; 4 ]
  in
  let text = L.export ~seed:41L results in
  match L.parse text with
  | Error e -> Alcotest.failf "parse failed: %s" e
  | Ok rows ->
    Alcotest.(check int) "row per point" (List.length results)
      (List.length rows);
    List.iter2
      (fun (r : L.result) (row : L.row) ->
        Alcotest.(check string) "protocol survives"
          (L.protocol_name r.L.point.L.protocol)
          row.L.r_protocol;
        Alcotest.(check int) "batch survives" r.L.point.L.batch row.L.r_batch;
        Alcotest.(check int) "completed survives" r.L.completed
          row.L.r_completed;
        Alcotest.(check int) "commits survive" r.L.commits row.L.r_commits)
      results rows

let test_parse_rejects_garbage () =
  let reject = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty rejected" true (reject (L.parse ""));
  Alcotest.(check bool) "wrong header rejected" true
    (reject (L.parse "{\"type\":\"metrics\"}\n"));
  Alcotest.(check bool) "schema mismatch rejected" true
    (reject
       (L.parse "{\"type\":\"loadtest\",\"schema\":\"thc-loadtest/v9\"}\n"))

let test_parse_names_truncated_line () =
  (* A mid-file truncation — the tail of an interrupted export — must be a
     clean [Error] naming the offending line, not a silent drop and not an
     escaped exception. *)
  let results = L.sweep (point ()) ~arrivals:[ W.Open_poisson { rate_rps = 800.0 } ] ~batches:[ 1 ] in
  let text = L.export ~seed:41L results in
  let truncated = String.sub text 0 (String.length text - 20) in
  (match L.parse truncated with
  | Ok _ -> Alcotest.fail "truncated export parsed"
  | Error e ->
    Alcotest.(check bool)
      (Printf.sprintf "error names a line (%s)" e)
      true
      (String.length e >= 5 && String.sub e 0 5 = "line "));
  (* a corrupt line in the middle, with valid lines after it *)
  let with_bad_middle =
    match String.split_on_char '\n' text with
    | header :: rest -> String.concat "\n" ((header :: [ "{\"type\":\"point\",\"protocol\"" ]) @ rest)
    | [] -> assert false
  in
  match L.parse with_bad_middle with
  | Ok _ -> Alcotest.fail "corrupt middle line parsed"
  | Error e ->
    Alcotest.(check bool) "names line 2" true
      (String.length e >= 7 && String.sub e 0 7 = "line 2:")

(* [run_point] records outputs only and counts messages off the engine;
   [run_point_export] records the [Full] trace.  On bench/perf's
   protocol x arrival grid (at 2 clients x 20 requests, seeds 1 and 2) and
   one lossy point, the two results must agree field for field, and
   [messages] must be the number of sends in the exported trace. *)
let check_same_result label (a : L.result) (b : L.result) =
  let field name = label ^ ": " ^ name in
  let summary (s : Thc_util.Stats.summary) =
    [ float_of_int s.count; s.mean; s.stddev; s.p50; s.p90; s.p99; s.min; s.max ]
  in
  Alcotest.(check bool) (field "point") true (a.L.point = b.L.point);
  Alcotest.(check int) (field "replicas") b.L.replicas a.L.replicas;
  Alcotest.(check int) (field "offered") b.L.offered a.L.offered;
  Alcotest.(check int) (field "completed") b.L.completed a.L.completed;
  Alcotest.(check int) (field "commits") b.L.commits a.L.commits;
  Alcotest.(check int64) (field "duration_us") b.L.duration_us a.L.duration_us;
  Alcotest.(check int64) (field "makespan_us") b.L.makespan_us a.L.makespan_us;
  Alcotest.(check (float 0.)) (field "throughput_rps") b.L.throughput_rps
    a.L.throughput_rps;
  Alcotest.(check (list (float 0.))) (field "latency") (summary b.L.latency)
    (summary a.L.latency);
  Alcotest.(check int) (field "trusted_total") b.L.trusted_total
    a.L.trusted_total;
  Alcotest.(check (float 0.)) (field "trusted_per_commit")
    b.L.trusted_per_commit a.L.trusted_per_commit;
  Alcotest.(check (float 0.)) (field "trusted_per_request")
    b.L.trusted_per_request a.L.trusted_per_request;
  Alcotest.(check int) (field "messages") b.L.messages a.L.messages;
  Alcotest.(check int) (field "safety_violations") b.L.safety_violations
    a.L.safety_violations;
  Alcotest.(check (list (pair string (float 0.)))) (field "phase_p50_us")
    b.L.phase_p50_us a.L.phase_p50_us;
  Alcotest.(check bool) (field "whole record") true (a = b)

let test_run_point_matches_export () =
  let grid =
    [
      ("poisson2000_b1", W.Open_poisson { rate_rps = 2000. }, 1);
      ("poisson4000_b8", W.Open_poisson { rate_rps = 4000. }, 8);
      ("closed4_b4", W.Closed { window = 4; think_us = 0L }, 4);
    ]
  in
  let load ?network ~seed protocol arrival batch =
    {
      L.protocol;
      f = 1;
      batch;
      seed;
      delay = Thc_sim.Delay.Uniform (50L, 500L);
      network;
      spec =
        spec ~clients:2 ~requests_per_client:20 ~arrival
          ~keys:(W.Keys_zipf { keys = 64; theta = 0.99 })
          ();
    }
  in
  let points =
    List.concat_map
      (fun seed ->
        List.concat_map
          (fun protocol ->
            List.map
              (fun (label, arrival, batch) ->
                ( Printf.sprintf "%s.%s seed %Ld" (L.protocol_name protocol)
                    label seed,
                  load ~seed protocol arrival batch ))
              grid)
          Thc_replication.Protocol.all)
      [ 1L; 2L ]
    @ [
        ( "minbft.poisson2000_b1 lossy",
          load
            ~network:(Result.get_ok (Thc_network.Model.of_string "lossy"))
            ~seed:1L L.Minbft
            (W.Open_poisson { rate_rps = 2000. })
            1 );
      ]
  in
  List.iter
    (fun (label, p) ->
      let r = L.run_point p in
      let full, jsonl = L.run_point_export p in
      Alcotest.(check int) (label ^ ": sends in the full trace")
        (Thc_sim.Trace.messages_sent
           (Result.get_ok (Thc_sim.Trace.of_jsonl jsonl)))
        r.L.messages;
      check_same_result label r full)
    points

let () =
  Alcotest.run "thc_workload"
    [
      ( "determinism",
        [
          Alcotest.test_case "plan deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "ops independent of arrival" `Quick
            test_ops_independent_of_arrival;
          Alcotest.test_case "plan shape" `Quick test_plan_shape;
          Alcotest.test_case "run_point deterministic" `Quick
            test_run_point_deterministic;
        ] );
      ( "distributions",
        [
          Alcotest.test_case "poisson mean" `Quick
            test_poisson_mean_within_tolerance;
          Alcotest.test_case "zipf monotone" `Quick
            test_zipf_rank_frequency_monotone;
          Alcotest.test_case "zipf theta=0 uniform" `Quick
            test_zipf_theta_zero_is_uniform;
          Alcotest.test_case "spec validation" `Quick test_spec_validation;
        ] );
      ( "loadtest",
        [
          Alcotest.test_case "closed loop completes" `Quick
            test_closed_loop_completes;
          Alcotest.test_case "batching amortizes" `Quick test_batching_amortizes;
          Alcotest.test_case "ubft point completes" `Quick
            test_ubft_point_completes;
          Alcotest.test_case "ubft point deterministic" `Quick
            test_ubft_point_deterministic;
          Alcotest.test_case "export/parse roundtrip" `Quick
            test_export_parse_roundtrip;
          Alcotest.test_case "parse rejects garbage" `Quick
            test_parse_rejects_garbage;
          Alcotest.test_case "parse names truncated line" `Quick
            test_parse_names_truncated_line;
          Alcotest.test_case "run_point = export run" `Quick
            test_run_point_matches_export;
        ] );
    ]
