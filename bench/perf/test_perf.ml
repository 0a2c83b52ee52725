open Perf_lib

let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Pstats.median [ 5.; 1.; 3. ]);
  Alcotest.check close "even" 2.5 (Pstats.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.check close "single" 7. (Pstats.median [ 7. ])

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let q1, q2, q3 = Pstats.quartiles [ 1.; 2.; 3.; 4.; 5. ] in
  Alcotest.(check (list close)) "1..5" [ 1.5; 3.; 4.5 ] [ q1; q2; q3 ];
  let q1, q2, q3 = Pstats.quartiles (List.init 10 (fun i -> float_of_int (10 - i))) in
  Alcotest.(check (list close)) "1..10" [ 2.75; 5.5; 8.25 ] [ q1; q2; q3 ];
  Alcotest.check close "spread 1..10" ((8.25 -. 2.75) /. 5.5)
    (Pstats.spread (List.init 10 (fun i -> float_of_int (i + 1))))

let test_tail () =
  let n k = List.init k float_of_int in
  let q k = Option.map fst (Pstats.tail (n k)) in
  Alcotest.(check (option close)) "99 samples: none" None (q 99);
  Alcotest.(check (option close)) "100 samples: p90" (Some 0.9) (q 100);
  Alcotest.(check (option close)) "999 samples: p90" (Some 0.9) (q 999);
  Alcotest.(check (option close)) "1000 samples: p99" (Some 0.99) (q 1000);
  Alcotest.(check (option close)) "10000 samples: p99.9" (Some 0.999) (q 10_000);
  Alcotest.(check (option close)) "p99 value" (Some 989.) (Option.map snd (Pstats.tail (n 1000)))

let test_bounds () =
  let within better bound base cand = Pstats.within ~better ~bound ~base ~cand in
  let rel = Pstats.Relative 0.1 in
  Alcotest.(check bool) "lower, +10% on the bound" true (within Pstats.Lower rel 100. 110.);
  Alcotest.(check bool) "lower, past the bound" false (within Pstats.Lower rel 100. 110.5);
  Alcotest.(check bool) "lower, improved" true (within Pstats.Lower rel 100. 50.);
  Alcotest.(check bool) "higher, -10% on the bound" true (within Pstats.Higher rel 100. 90.);
  Alcotest.(check bool) "higher, past the bound" false (within Pstats.Higher rel 100. 89.);
  Alcotest.(check bool) "any increase: equal" true (within Pstats.Lower Pstats.Any_increase 0. 0.);
  Alcotest.(check bool) "any increase: from zero" false
    (within Pstats.Lower Pstats.Any_increase 0. 0.001);
  Alcotest.(check bool) "any increase: lower" true (within Pstats.Lower Pstats.Any_increase 0.2 0.1);
  Alcotest.check close "worsening is signed" (-0.5)
    (Pstats.worsening ~better:Pstats.Lower ~base:2. ~cand:1.);
  (* max(10%, +0.05): the amount rules small bases, the share large ones. *)
  let either = Pstats.Relative_or_abs (0.1, 0.05) in
  Alcotest.(check bool) "abs: 0.02 -> 0.06 within the amount" true
    (within Pstats.Lower either 0.02 0.06);
  Alcotest.(check bool) "abs: 0.02 -> 0.0701 past both" false
    (within Pstats.Lower either 0.02 0.0701);
  Alcotest.(check bool) "abs: 10 -> 11 on the share" true (within Pstats.Lower either 10. 11.);
  Alcotest.(check bool) "abs: 10 -> 11.1 past both" false (within Pstats.Lower either 10. 11.1);
  Alcotest.(check bool) "abs: from zero" true (within Pstats.Lower either 0. 0.05);
  Alcotest.(check bool) "abs: higher is better" false (within Pstats.Higher either 0.1 0.04)

let test_sum_of_minima () =
  Alcotest.check close "per-step minimum, summed" 4.
    (Pstats.sum_of_minima [ [ 1.; 5. ]; [ 2.; 3. ]; [ 1.5; 4. ] ]);
  Alcotest.check close "one pass" 6. (Pstats.sum_of_minima [ [ 1.; 5. ] ])

let test_verdict () =
  let code ~failed digests = Pstats.exit_code (Pstats.verdict ~failed ~digests) in
  Alcotest.(check int) "agreeing passes" 0 (code ~failed:0 [ "ab"; "ab"; "ab" ]);
  Alcotest.(check int) "digest mismatch exits 1" 1 (code ~failed:0 [ "ab"; "cd" ]);
  Alcotest.(check int) "a failed call exits 1" 1 (code ~failed:1 [ "ab" ]);
  Alcotest.(check int) "no pass exits 1" 1 (code ~failed:0 [])

let table =
  {
    Spec.workloads = [ "w" ];
    end_to_end =
      [
        { Spec.name = "wall_s"; unit_ = "s"; better = Pstats.Lower; bound = Some 0.1 };
        { Spec.name = "setup_s"; unit_ = "s"; better = Pstats.Lower; bound = Some 0.1 };
      ];
    per_layer = [ { Spec.name = "n"; unit_ = "count"; better = Pstats.Lower; bound = None } ];
  }

let run ?(digest = "d") ?(traced = false) ?(n = 5.) ?(setup = 0.02) wall =
  {
    Compare.workload = "w";
    seed = 1;
    traced;
    digest;
    correct = true;
    attempted = 10;
    failed = 0;
    metrics = [ ("wall_s", (wall, "s")); ("setup_s", (setup, "s")); ("n", (n, "count")) ];
  }

let test_compare () =
  let a = [ run 1.0; run 1.1; run 0.9 ] in
  Alcotest.(check bool) "same runs agree" true (snd (Compare.report table ~a ~b:a));
  Alcotest.(check bool) "slower past the bound" false
    (snd (Compare.report table ~a ~b:[ run 1.2; run 1.3 ]));
  Alcotest.(check bool) "set-up +0.04 s is within the 0.05 s floor" true
    (snd (Compare.report table ~a ~b:[ run ~setup:0.06 1.0 ]));
  Alcotest.(check bool) "set-up +0.06 s is past it" false
    (snd (Compare.report table ~a ~b:[ run ~setup:0.08 1.0 ]));
  Alcotest.(check bool) "digest mismatch" false
    (snd (Compare.report table ~a ~b:[ run ~digest:"e" 1.0 ]));
  Alcotest.(check bool) "count mismatch" false
    (snd
       (Compare.report table ~a:(run ~traced:true 1. :: a)
          ~b:[ run ~traced:true ~n:6. 1.; run 1. ]));
  let r = run 1.25 in
  Alcotest.(check (option bool)) "record round-trips" (Some true)
    (Option.map (( = ) r) (Compare.record_of_json (Compare.record_json r)))

let () =
  Alcotest.run "perf"
    [
      ( "pstats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "quartiles" `Quick test_quartiles;
          Alcotest.test_case "tail percentile rule" `Quick test_tail;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "sum of per-step minima" `Quick test_sum_of_minima;
          Alcotest.test_case "verdict and exit code" `Quick test_verdict;
        ] );
      ("compare", [ Alcotest.test_case "agreement report" `Quick test_compare ]);
    ]
