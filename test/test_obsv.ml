(* Tests for the telemetry layer: JSON codec, histogram quantiles, the
   trusted-op ledger, and the JSONL trace export round trip. *)

module J = Thc_obsv.Json
module M = Thc_obsv.Metrics

(* --- json ---------------------------------------------------------------------- *)

let test_json_roundtrip_values () =
  let check v =
    match J.parse (J.to_string v) with
    | Ok v' -> Alcotest.(check bool) "round trip" true (J.equal v v')
    | Error e -> Alcotest.fail ("parse failed: " ^ e)
  in
  check J.Null;
  check (J.Bool true);
  check (J.Int (-42));
  check (J.Str "plain");
  check (J.Str "quotes \" and \\ and\nnewlines\tand \x00\x1b\xff bytes");
  check (J.List [ J.Int 1; J.Str "x"; J.Null ]);
  check
    (J.Obj
       [ ("a", J.Int 1); ("b", J.List [ J.Bool false ]);
         ("nested", J.Obj [ ("c", J.Str "v") ]) ])

let test_json_arbitrary_bytes () =
  (* Codec payloads are arbitrary bytes; the \u00XX escaping must fold back
     to the identical string. *)
  let s = String.init 256 Char.chr in
  (match J.parse (J.to_string (J.Str s)) with
  | Ok (J.Str s') -> Alcotest.(check string) "all 256 bytes survive" s s'
  | Ok _ -> Alcotest.fail "wrong constructor"
  | Error e -> Alcotest.fail e);
  let enc = Thc_util.Codec.encode (3, "payload", [ 1L; 2L ]) in
  match J.parse (J.to_string (J.Str enc)) with
  | Ok (J.Str enc') ->
    let x, y, z = Thc_util.Codec.decode enc' in
    Alcotest.(check int) "codec int survives" 3 x;
    Alcotest.(check string) "codec string survives" "payload" y;
    Alcotest.(check (list int64)) "codec list survives" [ 1L; 2L ] z
  | Ok _ -> Alcotest.fail "wrong constructor"
  | Error e -> Alcotest.fail e

let test_json_malformed_input_is_error () =
  (* Every malformed input must come back as [Error], never an escaped
     exception — report tooling reads JSONL written by interrupted runs. *)
  let expect_error label text =
    match J.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s parsed" label
    | exception e ->
      Alcotest.failf "%s escaped with %s" label (Printexc.to_string e)
  in
  expect_error "truncated object" {|{"type":"cell","seed":1,"commi|};
  expect_error "truncated string" {|"unterminated|};
  expect_error "truncated \\u escape" {|"\u00|};
  expect_error "non-hex \\u escape" {|"\u00zz"|};
  expect_error "bare garbage" "}{";
  expect_error "trailing garbage" {|{"a":1} extra|}

(* --- histogram ----------------------------------------------------------------- *)

let test_histogram_exact_quantiles () =
  let h = M.Histogram.create () in
  List.iter (M.Histogram.record h) [ 5L; 15L; 100L; 1_000L; 1_342L ];
  Alcotest.(check int) "count" 5 (M.Histogram.count h);
  Alcotest.(check int64) "sum" 2_462L (M.Histogram.sum h);
  (* Rank 3 of 5 lands in the <=100 bucket. *)
  Alcotest.(check (option int64)) "p50" (Some 100L) (M.Histogram.p50 h);
  (* Ranks 5 land in the <=2000 bucket but clamp to the recorded max. *)
  Alcotest.(check (option int64)) "p90 clamps to max" (Some 1_342L)
    (M.Histogram.p90 h);
  Alcotest.(check (option int64)) "p99 clamps to max" (Some 1_342L)
    (M.Histogram.p99 h);
  Alcotest.(check (option int64)) "min" (Some 5L) (M.Histogram.min h);
  Alcotest.(check (option int64)) "max" (Some 1_342L) (M.Histogram.max h)

let test_histogram_overflow_bucket () =
  let h = M.Histogram.create () in
  M.Histogram.record h 99_999_999L;
  (* above the 10 s top bound *)
  Alcotest.(check (option int64)) "overflow reports exact max"
    (Some 99_999_999L) (M.Histogram.p50 h)

let test_histogram_empty () =
  let h = M.Histogram.create () in
  Alcotest.(check int) "count" 0 (M.Histogram.count h);
  Alcotest.(check (option int64)) "p50" None (M.Histogram.p50 h);
  Alcotest.(check (option int64)) "p99" None (M.Histogram.p99 h);
  Alcotest.(check (option int64)) "min" None (M.Histogram.min h);
  Alcotest.(check (option int64)) "max" None (M.Histogram.max h)

let test_histogram_bad_buckets () =
  (match M.Histogram.create ~buckets:[||] () with
  | _ -> Alcotest.fail "empty buckets accepted"
  | exception Invalid_argument _ -> ());
  match M.Histogram.create ~buckets:[| 10L; 10L |] () with
  | _ -> Alcotest.fail "non-increasing buckets accepted"
  | exception Invalid_argument _ -> ()

let test_histogram_p999_and_mean () =
  let h = M.Histogram.create () in
  Alcotest.(check (option int64)) "empty p999" None (M.Histogram.p999 h);
  Alcotest.(check bool) "empty mean" true (M.Histogram.mean h = None);
  List.iter (M.Histogram.record h) [ 10L; 20L; 30L; 40L ];
  Alcotest.(check (option int64)) "p999 clamps to recorded max" (Some 40L)
    (M.Histogram.p999 h);
  match M.Histogram.mean h with
  | Some m -> Alcotest.(check (float 1e-9)) "mean is exact, not bucketed" 25.0 m
  | None -> Alcotest.fail "mean missing on non-empty histogram"

(* --- spans --------------------------------------------------------------------- *)

module S = Thc_obsv.Span

let test_span_marks_first_win () =
  let t = S.create () in
  S.mark t ~client:7 ~rid:1 S.Submit ~at:100L;
  (* Re-deliveries and duplicate quorums must not move a mark — nor
     overwrite the identity fields learned first. *)
  S.mark t ~client:9 ~rid:1 S.Submit ~at:250L;
  S.mark t ~rid:1 ~seq:3 S.Propose ~at:400L;
  S.mark t ~rid:1 ~seq:5 S.Propose ~at:500L;
  S.mark t ~rid:1 S.Reply_done ~at:900L;
  match S.views t with
  | [ v ] ->
    Alcotest.(check int) "client first wins" 7 v.S.v_client;
    Alcotest.(check int) "seq first wins" 3 v.S.v_seq;
    Alcotest.(check (option int64)) "total latency" (Some 800L)
      (S.total_latency v);
    Alcotest.(check bool) "complete" true (S.complete v);
    (match S.last_mark v with
    | Some (name, at) ->
      Alcotest.(check string) "last mark name" "done" name;
      Alcotest.(check int64) "last mark time" 900L at
    | None -> Alcotest.fail "no last mark")
  | vs -> Alcotest.failf "expected one view, got %d" (List.length vs)

let test_span_incomplete_last_mark () =
  let t = S.create () in
  S.mark t ~rid:2 S.Ingress ~at:50L;
  S.mark t ~rid:2 S.Propose ~at:80L;
  let v = List.hd (S.views t) in
  Alcotest.(check bool) "incomplete" false (S.complete v);
  Alcotest.(check (option int64)) "no total latency" None (S.total_latency v);
  (match S.last_mark v with
  | Some ("propose", 80L) -> ()
  | _ -> Alcotest.fail "last mark should be propose at 80");
  let blank = { v with S.v_marks = Array.make 7 (-1L) } in
  Alcotest.(check bool) "no marks at all" true (S.last_mark blank = None)

let test_span_attribution_nesting () =
  let t = S.create () in
  S.in_phase t S.Prepare_phase ~rids:[ 1; 2 ] (fun () ->
      S.attribute t "attest" 1;
      S.in_phase t S.Commit_phase ~rids:[ 2 ] (fun () ->
          S.attribute t "check" 2);
      (* back in the outer scope after the nested one exits *)
      S.attribute t "attest" 1);
  (* an exception must restore the outer (no-phase) scope *)
  (try S.in_phase t S.Execute_phase ~rids:[ 1 ] (fun () -> failwith "boom")
   with Failure _ -> ());
  S.attribute t "stray" 5;
  (match S.ops_rows t with
  | [
   ("prepare", [ ("attest", 2) ]);
   ("commit", [ ("check", 2) ]);
   ("other", [ ("stray", 5) ]);
  ] ->
    ()
  | rows -> Alcotest.failf "unexpected ops rows (%d)" (List.length rows));
  match S.views t with
  | [ v1; v2 ] ->
    (* phase indices: 2 = prepare, 3 = commit *)
    Alcotest.(check int) "rid 1 charged for prepare" 2 v1.S.v_ops.(2);
    Alcotest.(check int) "rid 1 not in commit scope" 0 v1.S.v_ops.(3);
    Alcotest.(check int) "rid 2 charged for both" 2 v2.S.v_ops.(3)
  | vs -> Alcotest.failf "expected two spans, got %d" (List.length vs)

(* A raise inside a nested scope restores the enclosing scope, not the
   top level, and re-raises the very exception. *)
exception Inner_boom

let test_span_raise_restores_outer () =
  let t = S.create () in
  S.in_phase t S.Prepare_phase ~rids:[ 7 ] (fun () ->
      (match
         S.in_phase t S.Commit_phase ~rids:[ 8 ] (fun () ->
             S.attribute t "check" 1;
             raise Inner_boom)
       with
      | () -> Alcotest.fail "inner scope returned"
      | exception Inner_boom -> ());
      S.attribute t "attest" 3);
  S.attribute t "stray" 1;
  match S.ops_rows t with
  | [
   ("prepare", [ ("attest", 3) ]);
   ("commit", [ ("check", 1) ]);
   ("other", [ ("stray", 1) ]);
  ] ->
    ()
  | _ -> Alcotest.fail "a raise did not restore the enclosing scope"

let test_span_merge_ops () =
  let a = [ ("prepare", [ ("attest", 1); ("check", 2) ]) ] in
  let b = [ ("prepare", [ ("check", 3) ]); ("other", [ ("probe", 1) ]) ] in
  match S.merge_ops [ a; b ] with
  | [ ("prepare", [ ("attest", 1); ("check", 5) ]); ("other", [ ("probe", 1) ]) ]
    ->
    ()
  | _ -> Alcotest.fail "merge_ops must sum pointwise in phase order"

let test_span_json_roundtrip () =
  let t = S.create () in
  S.mark t ~client:3 ~rid:11 S.Submit ~at:10L;
  S.mark t ~rid:11 ~seq:2 S.Propose ~at:40L;
  S.mark t ~rid:11 S.Reply_done ~at:90L;
  S.in_phase t S.Prepare_phase ~rids:[ 11 ] (fun () ->
      S.attribute t "attest" 4);
  (* incomplete span with no client/seq: the Null/omitted-field paths *)
  S.mark t ~rid:12 S.Ingress ~at:15L;
  List.iter
    (fun v ->
      match S.view_of_json (S.view_to_json v) with
      | Some v' -> Alcotest.(check bool) "view round trips" true (v = v')
      | None -> Alcotest.fail "view_of_json rejected its own encoding")
    (S.views t)

let test_span_nop_and_summary () =
  Alcotest.(check bool) "nop is disabled" false (S.enabled S.nop);
  S.mark S.nop ~rid:1 S.Submit ~at:5L;
  S.in_phase S.nop S.Prepare_phase ~rids:[ 1 ] (fun () ->
      S.attribute S.nop "x" 9);
  Alcotest.(check bool) "nop records no spans" true (S.views S.nop = []);
  Alcotest.(check bool) "nop records no ops" true (S.ops_rows S.nop = []);
  let t = S.create () in
  List.iter
    (fun (rid, at) ->
      S.mark t ~rid S.Submit ~at:0L;
      S.mark t ~rid S.Ingress ~at;
      S.mark t ~rid S.Reply_done ~at)
    [ (1, 100L); (2, 300L); (3, 200L) ];
  let sum = S.summarize (S.views t) in
  Alcotest.(check int) "spans total" 3 sum.S.spans_total;
  Alcotest.(check int) "spans complete" 3 sum.S.spans_complete;
  match sum.S.rows with
  | [ r ] ->
    (* only the submit phase was traversed; untraversed phases are omitted *)
    Alcotest.(check string) "phase" "submit" r.S.p_name;
    Alcotest.(check int) "count" 3 r.S.p_count;
    Alcotest.(check (option int64)) "max" (Some 300L) r.S.p_max
  | rows -> Alcotest.failf "expected one phase row, got %d" (List.length rows)

let test_span_critical_path_and_slowest () =
  let t = S.create () in
  let mk rid ~ingress ~done_ =
    S.mark t ~rid S.Submit ~at:0L;
    S.mark t ~rid S.Ingress ~at:ingress;
    S.mark t ~rid S.Executed ~at:ingress;
    S.mark t ~rid S.Reply_done ~at:done_
  in
  mk 1 ~ingress:40L ~done_:100L;
  mk 2 ~ingress:10L ~done_:300L;
  mk 3 ~ingress:10L ~done_:300L;
  (match S.slowest ~top:2 (S.views t) with
  | [ a; b ] ->
    Alcotest.(check int) "slowest first" 2 a.S.v_rid;
    Alcotest.(check int) "tie breaks toward lower rid" 3 b.S.v_rid
  | _ -> Alcotest.fail "slowest shape");
  let v1 = List.hd (S.views t) in
  match S.critical_path v1 with
  | [ ("reply", 60L, s1); ("submit", 40L, s2) ] ->
    Alcotest.(check (float 1e-9)) "reply share" 0.6 s1;
    Alcotest.(check (float 1e-9)) "submit share" 0.4 s2
  | _ -> Alcotest.fail "critical path: largest phase first, with shares"

(* --- registry ------------------------------------------------------------------ *)

let test_registry_snapshot () =
  let t = M.create () in
  let c = M.counter t "b.counter" in
  M.incr c;
  M.add c 4;
  let g = M.gauge t "a.gauge" in
  M.set_gauge g 7;
  M.set_gauge g 3;
  let h = M.histogram t "c.hist" in
  M.Histogram.record h 25L;
  (match M.snapshot t with
  | [ ("a.gauge", M.Level { last = 3; hwm = 7 });
      ("b.counter", M.Count 5);
      ("c.hist", M.Summary { count = 1; _ }) ] -> ()
  | _ -> Alcotest.fail "snapshot not sorted or wrong values");
  (* Same name returns the same metric; a kind clash raises. *)
  M.incr (M.counter t "b.counter");
  Alcotest.(check int) "shared counter" 6 (M.counter_value c);
  match M.gauge t "b.counter" with
  | _ -> Alcotest.fail "kind clash accepted"
  | exception Invalid_argument _ -> ()

(* --- ledger -------------------------------------------------------------------- *)

let test_ledger_per_commit () =
  let l = Thc_obsv.Ledger.create () in
  Thc_obsv.Ledger.bump l "trinc.attest";
  Thc_obsv.Ledger.bump_by l "trinc.check" 9;
  Alcotest.(check int) "total" 10 (Thc_obsv.Ledger.total l);
  Alcotest.(check (list (pair string int))) "rows sorted"
    [ ("trinc.attest", 1); ("trinc.check", 9) ]
    (Thc_obsv.Ledger.rows l);
  (match Thc_obsv.Ledger.per_commit l ~commits:5 with
  | [ ("trinc.attest", r1); ("trinc.check", r2) ] ->
    Alcotest.(check (float 1e-9)) "attest rate" 0.2 r1;
    Alcotest.(check (float 1e-9)) "check rate" 1.8 r2
  | _ -> Alcotest.fail "per_commit shape");
  match Thc_obsv.Ledger.per_commit l ~commits:0 with
  | [ (_, 0.0); (_, 0.0) ] -> ()
  | _ -> Alcotest.fail "zero commits must give zero rates"

(* A charge reaches the same counter whether its label arrives as the
   literal or as a fresh equal string, past the ledger's identity front
   too, and the observer sees every charge either way. *)
let ledger_labels =
  [ "trinc.attest"; "trinc.check"; "trinc.check_fail"; "trinc.attest_denied";
    "link.reject_malformed"; "link.reject_forged"; "link.reject_replay";
    "ckpt.reject_forged"; "ckpt.reject_stale"; "swmr.read"; "swmr.append" ]

let fresh label = Bytes.to_string (Bytes.of_string label)

let charge_all ~copy =
  let l = Thc_obsv.Ledger.create () in
  let seen = ref [] in
  Thc_obsv.Ledger.set_observer l (fun label n -> seen := (label, n) :: !seen);
  for round = 1 to 3 do
    List.iteri
      (fun i label ->
        if (i + round) mod 2 = 0 then Thc_obsv.Ledger.bump l (copy label)
        else Thc_obsv.Ledger.bump_by l (copy label) (i + round))
      ledger_labels
  done;
  (l, List.rev !seen)

let test_ledger_label_identity () =
  let lit, lit_seen = charge_all ~copy:Fun.id in
  let cp, cp_seen = charge_all ~copy:fresh in
  let module L = Thc_obsv.Ledger in
  Alcotest.(check (list (pair string int))) "rows" (L.rows cp) (L.rows lit);
  Alcotest.(check int) "total" (L.total cp) (L.total lit);
  Alcotest.(check int) "rejections" (L.rejections cp) (L.rejections lit);
  Alcotest.(check (list (pair string int))) "observer calls" cp_seen lit_seen;
  Alcotest.(check int) "every charge observed" (3 * List.length ledger_labels)
    (List.length lit_seen);
  (* Literal and fresh copies of one label share one counter. *)
  L.bump lit (fresh "trinc.attest");
  L.bump lit "trinc.attest";
  Alcotest.(check int) "one counter per label"
    (L.count cp "trinc.attest" + 2)
    (L.count lit "trinc.attest")

let test_span_label_identity () =
  let attribute ~copy =
    let t = S.create () in
    List.iteri
      (fun i label ->
        S.in_phase t S.Prepare_phase ~rids:[ i ] (fun () ->
            S.attribute t (copy label) i;
            S.attribute t (copy label) 1);
        S.attribute t (copy label) 2)
      ledger_labels;
    (S.ops_rows t, List.map (fun v -> v.S.v_ops) (S.views t))
  in
  Alcotest.(check bool) "ops rows and spans" true
    (attribute ~copy:Fun.id = attribute ~copy:fresh)

(* --- trace export -------------------------------------------------------------- *)

let test_trace_jsonl_roundtrip_law () =
  (* of_jsonl (to_jsonl ~encode_msg t) = Ok (map_msg encode_msg t) on a
     trace with holds, drops and crashes. *)
  let n = 3 in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Const 100L) in
  let engine = Thc_sim.Engine.create ~seed:9L ~n ~net () in
  let b : string Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.broadcast (Printf.sprintf "hello-%d" ctx.self);
          ctx.set_timer ~delay:10L ~tag:1;
          ctx.output (Thc_sim.Obs.Note "boot"));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
  Thc_sim.Engine.set_link engine ~src:0 ~dst:2 Thc_sim.Net.Drop;
  Thc_sim.Engine.schedule_crash engine ~pid:2 ~at:50L;
  let trace = Thc_sim.Engine.run ~until:1_000L engine in
  let encode_msg = Thc_util.Codec.encode in
  let exported = Thc_sim.Trace.to_jsonl ~encode_msg trace in
  match Thc_sim.Trace.of_jsonl exported with
  | Error e -> Alcotest.fail ("of_jsonl: " ^ e)
  | Ok back ->
    Alcotest.(check bool) "round-trip law" true
      (back = Thc_sim.Trace.map_msg encode_msg trace)

let test_replication_export_roundtrip () =
  (* A real MinBFT run: the harness export must parse back to the run's
     trace and carry a metrics snapshot plus a trusted-op ledger line. *)
  let outcome, export =
    Thc_replication.Harness.run_export
      (Thc_replication.Harness.Setup.make
         ~protocol:Thc_replication.Harness.Minbft ~f:1 ~ops:5 ~seed:3L ())
  in
  (match Thc_sim.Trace.of_jsonl export with
  | Error e -> Alcotest.fail ("of_jsonl: " ^ e)
  | Ok trace ->
    Alcotest.(check int) "sends survive the round trip" outcome.messages
      (Thc_sim.Trace.messages_sent trace);
    Alcotest.(check int) "n survives" outcome.replicas (trace.Thc_sim.Trace.n - 1));
  let lines = String.split_on_char '\n' export in
  let typed ty line =
    match J.parse line with
    | Ok j -> J.member "type" j = Some (J.Str ty)
    | Error _ -> false
  in
  (match List.find_opt (typed "metrics") lines with
  | None -> Alcotest.fail "no metrics line in export"
  | Some line ->
    let j = Result.get_ok (J.parse line) in
    let snap = Option.get (J.member "snapshot" j) in
    (match Option.bind (J.member "commit.count" snap) (J.member "value") with
    | Some (J.Int c) -> Alcotest.(check int) "commit count" outcome.commits c
    | _ -> Alcotest.fail "commit.count missing from snapshot"));
  match List.find_opt (typed "ledger") lines with
  | None -> Alcotest.fail "no ledger line in export"
  | Some line ->
    let j = Result.get_ok (J.parse line) in
    (match J.member "commits" j with
    | Some (J.Int c) -> Alcotest.(check int) "ledger commits" outcome.commits c
    | _ -> Alcotest.fail "ledger commits missing");
    (match Option.bind (J.member "ops" j) (J.member "trinc.attest") with
    | Some (J.Int a) -> Alcotest.(check bool) "attests charged" true (a > 0)
    | _ -> Alcotest.fail "trinc.attest missing from ledger line")

let test_export_deterministic () =
  let run () =
    snd
      (Thc_replication.Harness.run_export
         (Thc_replication.Harness.Setup.make
            ~protocol:Thc_replication.Harness.Minbft ~f:1 ~ops:5 ~seed:3L ()))
  in
  Alcotest.(check string) "same seed, byte-identical export" (run ()) (run ())

let () =
  Alcotest.run "thc_obsv"
    [
      ( "json",
        [
          Alcotest.test_case "value round trips" `Quick test_json_roundtrip_values;
          Alcotest.test_case "arbitrary bytes" `Quick test_json_arbitrary_bytes;
          Alcotest.test_case "malformed input is Error" `Quick
            test_json_malformed_input_is_error;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "exact quantiles" `Quick test_histogram_exact_quantiles;
          Alcotest.test_case "overflow bucket" `Quick test_histogram_overflow_bucket;
          Alcotest.test_case "empty" `Quick test_histogram_empty;
          Alcotest.test_case "bad buckets" `Quick test_histogram_bad_buckets;
          Alcotest.test_case "p999 and mean" `Quick test_histogram_p999_and_mean;
        ] );
      ( "span",
        [
          Alcotest.test_case "marks: first write wins" `Quick
            test_span_marks_first_win;
          Alcotest.test_case "incomplete span last mark" `Quick
            test_span_incomplete_last_mark;
          Alcotest.test_case "attribution scopes nest" `Quick
            test_span_attribution_nesting;
          Alcotest.test_case "raise restores enclosing scope" `Quick
            test_span_raise_restores_outer;
          Alcotest.test_case "literal or fresh label" `Quick
            test_span_label_identity;
          Alcotest.test_case "merge_ops sums pointwise" `Quick
            test_span_merge_ops;
          Alcotest.test_case "json round trip" `Quick test_span_json_roundtrip;
          Alcotest.test_case "nop recorder and summary" `Quick
            test_span_nop_and_summary;
          Alcotest.test_case "critical path and slowest" `Quick
            test_span_critical_path_and_slowest;
        ] );
      ("registry", [ Alcotest.test_case "snapshot" `Quick test_registry_snapshot ]);
      ( "ledger",
        [
          Alcotest.test_case "per commit" `Quick test_ledger_per_commit;
          Alcotest.test_case "literal or fresh label" `Quick
            test_ledger_label_identity;
        ] );
      ( "export",
        [
          Alcotest.test_case "jsonl round-trip law" `Quick
            test_trace_jsonl_roundtrip_law;
          Alcotest.test_case "replication export" `Quick
            test_replication_export_roundtrip;
          Alcotest.test_case "deterministic" `Quick test_export_deterministic;
        ] );
    ]
