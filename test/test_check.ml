(* Tests for the fault explorer: monitor algebra, deterministic sweeps,
   counterexample shrinking, repro persistence, and the seed corpus. *)

let harness name = Option.get (Thc_check.Harness.find name)

(* --- monitor -------------------------------------------------------------- *)

let v monitor = { Thc_check.Monitor.monitor; info = "x" }

let test_monitor_verdict () =
  Alcotest.(check bool) "empty passes" true
    (Thc_check.Monitor.verdict [] = Thc_check.Monitor.Pass);
  Alcotest.(check bool) "non-empty fails" true
    (Thc_check.Monitor.failed (Thc_check.Monitor.verdict [ v "a" ]))

let test_monitor_primary_and_reproduces () =
  let fail = Thc_check.Monitor.verdict [ v "a"; v "b"; v "a" ] in
  Alcotest.(check (list string))
    "distinct, first occurrence" [ "a"; "b" ]
    (Thc_check.Monitor.monitors_of fail);
  Alcotest.(check (option string)) "primary" (Some "a")
    (Thc_check.Monitor.primary fail);
  Alcotest.(check bool) "same primary reproduces" true
    (Thc_check.Monitor.reproduces ~reference:fail
       (Thc_check.Monitor.verdict [ v "a" ]));
  Alcotest.(check bool) "secondary alone does not" false
    (Thc_check.Monitor.reproduces ~reference:fail
       (Thc_check.Monitor.verdict [ v "b" ]));
  Alcotest.(check bool) "pass reference needs pass" true
    (Thc_check.Monitor.reproduces ~reference:Thc_check.Monitor.Pass
       Thc_check.Monitor.Pass);
  Alcotest.(check bool) "pass reference rejects failure" false
    (Thc_check.Monitor.reproduces ~reference:Thc_check.Monitor.Pass
       (Thc_check.Monitor.verdict [ v "a" ]))

(* --- sweeps --------------------------------------------------------------- *)

(* Small fixed-seed smoke sweeps; budgets come from each harness profile, so
   these exercise exactly what `dune runtest` promises about the registry. *)
let clean_smoke = [ ("minbft", 8); ("pbft", 6); ("srb-trinc", 6); ("srb-uni", 8); ("agreement", 10) ]

let test_clean_protocols_pass_smoke_sweep () =
  List.iter
    (fun (name, runs) ->
      let s = Thc_check.Sweep.sweep (harness name) ~base_seed:1L ~runs () in
      if s.Thc_check.Sweep.failures <> [] then
        Alcotest.failf "%s: %d unexpected failures in %d runs" name
          (List.length s.Thc_check.Sweep.failures)
          runs)
    clean_smoke

let test_broken_protocol_fails_smoke_sweep () =
  let s =
    Thc_check.Sweep.sweep (harness "minbft-unattested") ~base_seed:1L ~runs:8 ()
  in
  Alcotest.(check bool) "ablated protocol forks" true
    (s.Thc_check.Sweep.failures <> []);
  Alcotest.(check (option string))
    "fails the safety monitor" (Some "smr-safety")
    (match s.Thc_check.Sweep.by_monitor with (m, _) :: _ -> Some m | [] -> None)

let test_sweep_deterministic () =
  let render () =
    let s = Thc_check.Sweep.sweep (harness "minbft") ~base_seed:1L ~runs:20 () in
    Format.asprintf "%a" Thc_check.Sweep.pp_summary s
  in
  Alcotest.(check string) "two sweeps render identically" (render ()) (render ())

let test_budget_overrides () =
  (* Overriding both budgets to zero yields empty scripts everywhere. *)
  let h = harness "minbft" in
  for seed = 1 to 10 do
    let script =
      Thc_check.Sweep.script_for h ~crashes:0 ~partitions:0
        ~seed:(Int64.of_int seed) ()
    in
    Alcotest.(check (list unit)) "no events" []
      (List.map ignore script.Thc_sim.Adversary.events)
  done

(* --- shrinking ------------------------------------------------------------ *)

let failing_unattested_outcome () =
  (* Seed 3's random script includes masking noise around the baked-in
     equivocation — exactly what shrinking should strip. *)
  let o = Thc_check.Sweep.run_one (harness "minbft-unattested") ~seed:3L () in
  if not (Thc_check.Monitor.failed o.Thc_check.Sweep.report.Thc_check.Harness.verdict)
  then Alcotest.fail "expected seed 3 to fail on the ablated protocol";
  o

let test_shrink_preserves_failure () =
  let h = harness "minbft-unattested" in
  let o = failing_unattested_outcome () in
  let r =
    Thc_check.Shrink.shrink h ~seed:o.Thc_check.Sweep.seed
      ~script:o.Thc_check.Sweep.script ~report:o.Thc_check.Sweep.report ()
  in
  Alcotest.(check bool) "shrunk script still fails the same monitor" true
    (Thc_check.Monitor.reproduces
       ~reference:o.Thc_check.Sweep.report.Thc_check.Harness.verdict
       r.Thc_check.Shrink.report.Thc_check.Harness.verdict);
  Alcotest.(check bool) "no larger than the original" true
    (List.length r.Thc_check.Shrink.script.Thc_sim.Adversary.events
    <= List.length o.Thc_check.Sweep.script.Thc_sim.Adversary.events);
  (* The equivocation needs no network help: the counterexample collapses
     to (almost) nothing. *)
  Alcotest.(check bool) "collapses below five events" true
    (List.length r.Thc_check.Shrink.script.Thc_sim.Adversary.events <= 5)

let test_shrink_idempotent () =
  let h = harness "minbft-unattested" in
  let o = failing_unattested_outcome () in
  let r1 =
    Thc_check.Shrink.shrink h ~seed:o.Thc_check.Sweep.seed
      ~script:o.Thc_check.Sweep.script ~report:o.Thc_check.Sweep.report ()
  in
  let r2 =
    Thc_check.Shrink.shrink h ~seed:o.Thc_check.Sweep.seed
      ~script:r1.Thc_check.Shrink.script ~report:r1.Thc_check.Shrink.report ()
  in
  Alcotest.(check bool) "re-shrinking a minimum is the identity" true
    (Thc_sim.Adversary.equal r1.Thc_check.Shrink.script
       r2.Thc_check.Shrink.script);
  Alcotest.(check int) "and runs a single fruitless round" 1
    r2.Thc_check.Shrink.rounds

let test_shrink_rejects_passing_report () =
  let h = harness "minbft" in
  let o = Thc_check.Sweep.run_one h ~seed:1L () in
  match
    Thc_check.Shrink.shrink h ~seed:o.Thc_check.Sweep.seed
      ~script:o.Thc_check.Sweep.script ~report:o.Thc_check.Sweep.report ()
  with
  | _ -> Alcotest.fail "accepted a passing report"
  | exception Invalid_argument _ -> ()

(* --- repro files ---------------------------------------------------------- *)

let test_repro_sexp_roundtrip () =
  let o = failing_unattested_outcome () in
  let repro = Thc_check.Repro.of_outcome ~protocol:"minbft-unattested" o in
  let back = Thc_check.Repro.of_sexp (Thc_check.Repro.to_sexp repro) in
  Alcotest.(check bool) "round-trips" true
    (back.Thc_check.Repro.protocol = repro.Thc_check.Repro.protocol
    && back.Thc_check.Repro.seed = repro.Thc_check.Repro.seed
    && back.Thc_check.Repro.expect = repro.Thc_check.Repro.expect
    && Thc_sim.Adversary.equal back.Thc_check.Repro.script
         repro.Thc_check.Repro.script)

let test_repro_save_load () =
  let o = failing_unattested_outcome () in
  let repro = Thc_check.Repro.of_outcome ~protocol:"minbft-unattested" o in
  let path = Filename.temp_file "thc-repro" ".sexp" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Thc_check.Repro.save path repro;
      match Thc_check.Repro.load path with
      | Error msg -> Alcotest.failf "load failed: %s" msg
      | Ok back ->
        Alcotest.(check bool) "file round-trips" true
          (back.Thc_check.Repro.expect = repro.Thc_check.Repro.expect
          && Thc_sim.Adversary.equal back.Thc_check.Repro.script
               repro.Thc_check.Repro.script))

let test_repro_unknown_protocol () =
  let r =
    {
      Thc_check.Repro.protocol = "no-such-protocol";
      seed = 1L;
      expect = `Pass;
      script = { Thc_sim.Adversary.events = []; horizon = 1L };
    }
  in
  match Thc_check.Repro.replay r with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replayed an unknown protocol"

let test_repro_out_of_range_pids () =
  (* Each action shape that names pids, with pid 9 outside minbft's three
     replicas: replay must refuse the script, not raise from the engine. *)
  List.iter
    (fun action ->
      let r =
        {
          Thc_check.Repro.protocol = "minbft";
          seed = 1L;
          expect = `Pass;
          script =
            { Thc_sim.Adversary.events = [ { at = 1_000L; action } ]; horizon = 2_000L };
        }
      in
      match Thc_check.Repro.replay r with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "replayed a script naming an unknown pid")
    [
      Thc_sim.Adversary.Crash 9;
      Thc_sim.Adversary.Block_link (0, 9);
      Thc_sim.Adversary.Block_groups [ [ 0; 1 ]; [ 2; 9 ] ];
    ]

(* Scripts the explorer could never draw: an event before time 0, a
   negative horizon (with and without events) and a horizon far past the
   profile's, which used to run for seconds and raise from the engine. *)
let test_repro_inadmissible_scripts () =
  let crash = { Thc_sim.Adversary.at = 1_000L; action = Thc_sim.Adversary.Crash 2 } in
  List.iter
    (fun (what, script) ->
      let r = { Thc_check.Repro.protocol = "minbft"; seed = 1L; expect = `Pass; script } in
      match Thc_check.Repro.replay r with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "replayed %s" what)
    [
      ( "an event at -5",
        { events = [ { crash with at = -5L } ]; horizon = 2_000L } );
      ("horizon -10 with an event", { events = [ crash ]; horizon = -10L });
      ("horizon -10", { events = []; horizon = -10L });
      ("horizon 10^12", { events = [ crash ]; horizon = 1_000_000_000_000L });
    ]

(* --- corpus --------------------------------------------------------------- *)

(* `dune runtest` runs the suite from the test build directory; `dune exec
   test/test_check.exe` from the project root — accept either. *)
let corpus_dir () =
  List.find_opt Sys.file_exists
    [ "corpus"; Filename.concat "test" "corpus";
      Filename.concat (Filename.dirname Sys.executable_name) "corpus" ]

let corpus_files () =
  match corpus_dir () with
  | None -> []
  | Some dir ->
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".sexp")
    |> List.sort compare
    |> List.map (Filename.concat dir)

let test_corpus_nonempty () =
  Alcotest.(check bool) "corpus has entries" true (corpus_files () <> [])

let test_corpus_replays () =
  List.iter
    (fun file ->
      match Thc_check.Repro.load file with
      | Error msg -> Alcotest.failf "%s: %s" file msg
      | Ok repro -> (
        match Thc_check.Repro.replay repro with
        | Error msg -> Alcotest.failf "%s: %s" file msg
        | Ok r ->
          if not r.Thc_check.Repro.matched then
            Alcotest.failf "%s: %a" file Thc_check.Repro.pp_replay r))
    (corpus_files ())

let () =
  Alcotest.run "thc_check"
    [
      ( "monitor",
        [
          Alcotest.test_case "verdict" `Quick test_monitor_verdict;
          Alcotest.test_case "primary/reproduces" `Quick
            test_monitor_primary_and_reproduces;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "clean protocols pass" `Quick
            test_clean_protocols_pass_smoke_sweep;
          Alcotest.test_case "ablated protocol fails" `Quick
            test_broken_protocol_fails_smoke_sweep;
          Alcotest.test_case "deterministic" `Quick test_sweep_deterministic;
          Alcotest.test_case "budget overrides" `Quick test_budget_overrides;
        ] );
      ( "shrink",
        [
          Alcotest.test_case "preserves failure" `Quick test_shrink_preserves_failure;
          Alcotest.test_case "idempotent" `Quick test_shrink_idempotent;
          Alcotest.test_case "rejects passing report" `Quick
            test_shrink_rejects_passing_report;
        ] );
      ( "repro",
        [
          Alcotest.test_case "sexp roundtrip" `Quick test_repro_sexp_roundtrip;
          Alcotest.test_case "save/load" `Quick test_repro_save_load;
          Alcotest.test_case "unknown protocol" `Quick test_repro_unknown_protocol;
          Alcotest.test_case "out-of-range pids" `Quick
            test_repro_out_of_range_pids;
          Alcotest.test_case "inadmissible scripts" `Quick
            test_repro_inadmissible_scripts;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "non-empty" `Quick test_corpus_nonempty;
          Alcotest.test_case "replays to documented verdicts" `Quick
            test_corpus_replays;
        ] );
    ]
