(* Tests for the Byzantine attack catalog: stable attack names, the paper's
   prediction holding on both targets, deterministic thc-attack/v1 exports,
   and the catalog's fault-explorer harness registrations. *)

module A = Thc_byz.Attack
module M = Thc_byz.Matrix

let test_names_stable () =
  (* The CLI/JSONL identifiers are persisted in exports and repro files —
     this pins them. *)
  Alcotest.(check (list string))
    "catalog order and spelling"
    [
      "equivocation"; "replay"; "reuse"; "mismatched-vc"; "selective-send";
      "silent-then-lie";
    ]
    (List.map A.name A.all);
  List.iter
    (fun k ->
      Alcotest.(check bool) "of_name inverts name" true
        (A.of_name (A.name k) = Some k))
    A.all;
  Alcotest.(check (list string))
    "register catalog order and spelling"
    [ "register-forge"; "ack-forge"; "stale-read"; "withheld-append" ]
    (List.map A.name A.ubft_all);
  List.iter
    (fun k ->
      Alcotest.(check bool) "of_name inverts name" true
        (A.of_name (A.name k) = Some k))
    A.ubft_all;
  Alcotest.(check bool) "unknown name rejected" true (A.of_name "melt" = None);
  List.iter
    (fun t ->
      Alcotest.(check bool) "target name inverts" true
        (A.target_of_name (A.target_name t) = Some t))
    [ A.Minbft; A.Unattested; A.Ubft ]

let test_applies_partitions_catalogs () =
  List.iter
    (fun attack ->
      Alcotest.(check bool) "log kinds hit minbft" true
        (A.applies ~target:A.Minbft ~attack);
      Alcotest.(check bool) "log kinds skip ubft" false
        (A.applies ~target:A.Ubft ~attack))
    A.all;
  List.iter
    (fun attack ->
      Alcotest.(check bool) "register kinds hit ubft" true
        (A.applies ~target:A.Ubft ~attack);
      Alcotest.(check bool) "register kinds skip minbft" false
        (A.applies ~target:A.Minbft ~attack))
    A.ubft_all

let test_attack_bounces_off_minbft () =
  let r = A.run ~target:A.Minbft ~attack:A.Equivocate () in
  Alcotest.(check int) "no safety violation" 0 r.A.safety_violations;
  Alcotest.(check int) "no fork at seq 1" 1 r.A.distinct_ops_at_seq1;
  Alcotest.(check bool) "hardware refused something" true (r.A.rejections > 0);
  Alcotest.(check bool) "honest client still served" true r.A.client_finished;
  Alcotest.(check bool) "prediction holds" true (A.holds r)

let test_attack_forks_unattested () =
  (* The same MinBFT rig on the unattested world: the rewind is granted, so
     the fork lands at the slot the leader was about to assign. *)
  let r = A.run ~target:A.Unattested ~attack:A.Equivocate () in
  Alcotest.(check bool) "safety violated" true (r.A.safety_violations > 0);
  Alcotest.(check (list (pair string int))) "no hardware to charge" []
    r.A.trusted_ops;
  Alcotest.(check bool) "prediction holds" true (A.holds r)

let test_run_deterministic () =
  let run () = A.run ~seed:7L ~target:A.Minbft ~attack:A.Replay_stale () in
  Alcotest.(check bool) "identical results" true (run () = run ())

let test_register_attacks_bounce_off_ubft () =
  (* The Figure 1 step above trusted logs: every register attack leaves
     safety intact and an ACL refusal in the ledger — the forgery has no
     interface, so the adversary is reduced to omission. *)
  List.iter
    (fun attack ->
      let r = A.run ~target:A.Ubft ~attack () in
      Alcotest.(check int)
        (A.name attack ^ " no safety violation")
        0 r.A.safety_violations;
      Alcotest.(check bool)
        (A.name attack ^ " ACL refused the forgery probe")
        true (r.A.rejections > 0);
      Alcotest.(check bool)
        (A.name attack ^ " honest client still served")
        true r.A.client_finished;
      Alcotest.(check bool) (A.name attack ^ " prediction holds") true
        (A.holds r))
    A.ubft_all

let test_ubft_run_deterministic () =
  let run () = A.run ~seed:3L ~target:A.Ubft ~attack:A.Register_forge () in
  Alcotest.(check bool) "identical results" true (run () = run ())

let small_sweep () =
  M.sweep ~seeds:[ 1L ] ~timings:[ 5_000L ]
    ~attacks:[ A.Equivocate; A.Reuse_attestation ]
    ~targets:[ A.Minbft; A.Unattested ] ()

let test_matrix_export_deterministic () =
  let lines () = M.to_jsonl (small_sweep ()) in
  Alcotest.(check (list string)) "byte-identical JSONL" (lines ()) (lines ())

let test_matrix_applies_filter () =
  (* A mixed sweep produces cells only for catalog-matching pairs: the six
     log kinds x minbft, equivocation x unattested, and the four register
     kinds x ubft — never a register kind against minbft or vice versa. *)
  let m =
    M.sweep ~seeds:[ 1L ] ~timings:[ 5_000L ]
      ~attacks:(A.all @ A.ubft_all)
      ~targets:[ A.Minbft; A.Unattested; A.Ubft ] ()
  in
  Alcotest.(check int) "cells"
    (List.length A.all + 1 (* unattested equivocation *)
    + List.length A.ubft_all)
    (List.length m.M.cells);
  Alcotest.(check bool) "all cells hold" true (M.all_hold m);
  List.iter
    (fun c ->
      Alcotest.(check bool) "every cell is in-catalog" true
        (A.applies ~target:c.M.result.A.target ~attack:c.M.result.A.attack))
    m.M.cells

let test_matrix_schema () =
  let m = small_sweep () in
  (* reuse is out of the unattested catalog: 2 minbft cells + 1. *)
  Alcotest.(check int) "cell count" 3 (List.length m.M.cells);
  Alcotest.(check bool) "all cells hold" true (M.all_hold m);
  match M.to_jsonl m with
  | [] -> Alcotest.fail "empty export"
  | header :: cells ->
    let j = Result.get_ok (Thc_obsv.Json.parse header) in
    let str k = Option.bind (Thc_obsv.Json.member k j) Thc_obsv.Json.to_str in
    Alcotest.(check (option string)) "schema" (Some "thc-attack/v1")
      (str "schema");
    Alcotest.(check (option string)) "type" (Some "attack-sweep") (str "type");
    List.iter
      (fun line ->
        let c = Result.get_ok (Thc_obsv.Json.parse line) in
        Alcotest.(check (option string))
          "cell type" (Some "cell")
          (Option.bind (Thc_obsv.Json.member "type" c) Thc_obsv.Json.to_str))
      cells

let empty_script = { Thc_sim.Adversary.events = []; horizon = 0L }

let get_harness n =
  match Thc_check.Harness.find n with
  | Some h -> h
  | None -> Alcotest.failf "harness %s not registered" n

let run_empty (h : Thc_check.Harness.t) =
  (h.Thc_check.Harness.run ~seed:1L ~script:empty_script ())
    .Thc_check.Harness.verdict

let test_harness_registration () =
  (* Every in-catalog (attack, target) cell is also a fault-explorer
     harness; the MinBFT side must pass under the empty script, the ablated
     side fail, and an attack the unattested world does not break has no
     unattested harness at all. *)
  List.iter
    (fun attack ->
      let aname = A.name attack in
      Alcotest.(check bool)
        (aname ^ " clean side passes")
        false
        (Thc_check.Monitor.failed (run_empty (get_harness ("minbft-" ^ aname))));
      match Thc_check.Harness.find ("unattested-" ^ aname) with
      | Some broken ->
        Alcotest.(check bool) (aname ^ " in the unattested catalog") true
          (A.applies ~target:A.Unattested ~attack);
        Alcotest.(check bool)
          (aname ^ " broken side fails")
          true
          (Thc_check.Monitor.failed (run_empty broken))
      | None ->
        Alcotest.(check bool) (aname ^ " out of the unattested catalog") false
          (A.applies ~target:A.Unattested ~attack))
    [ A.Equivocate; A.Selective_send ]

let test_ubft_harness_registration () =
  List.iter
    (fun attack ->
      let aname = A.name attack in
      match Thc_check.Harness.find ("ubft-" ^ aname) with
      | None -> Alcotest.failf "harness ubft-%s not registered" aname
      | Some h ->
        Alcotest.(check bool)
          (aname ^ " clean under empty script")
          false
          (Thc_check.Monitor.failed
             (h.Thc_check.Harness.run ~seed:1L ~script:empty_script ())
               .Thc_check.Harness.verdict))
    [ A.Register_forge; A.Withheld_append ]

(* --- the checkpoint/state-transfer family -------------------------------- *)

let test_ckpt_catalog () =
  Alcotest.(check (list string))
    "ckpt catalog order and spelling"
    [ "forged-checkpoint"; "stale-transfer"; "join-equivocation" ]
    (List.map A.name A.ckpt_all);
  List.iter
    (fun k ->
      Alcotest.(check bool) "of_name inverts name" true
        (A.of_name (A.name k) = Some k);
      Alcotest.(check bool) "hits minbft" true
        (A.applies ~target:A.Minbft ~attack:k);
      Alcotest.(check bool) "skips unattested" false
        (A.applies ~target:A.Unattested ~attack:k);
      Alcotest.(check bool) "skips ubft" false
        (A.applies ~target:A.Ubft ~attack:k))
    A.ckpt_all;
  (* The sweep grids are pinned to [all]'s length — the ckpt kinds must not
     leak into it. *)
  List.iter
    (fun k -> Alcotest.(check bool) "not in all" false (List.mem k A.all))
    A.ckpt_all

let ckpt_label = function
  | A.Forged_checkpoint -> "ckpt.reject_forged"
  | A.Stale_transfer -> "ckpt.reject_stale"
  | A.Join_equivocation -> "ckpt.reject_suffix_equivocation"
  | _ -> assert false

let test_ckpt_bounces_off_minbft () =
  List.iter
    (fun attack ->
      let aname = A.name attack in
      let r = A.run ~target:A.Minbft ~attack () in
      Alcotest.(check int) (aname ^ ": no safety violation") 0
        r.A.safety_violations;
      Alcotest.(check bool) (aname ^ ": hardware refused something") true
        (r.A.rejections > 0);
      (* Not just any refusal: the ledger row naming this family's defense
         (certificate check, NVRAM floor, donor quorum) must be present. *)
      Alcotest.(check bool)
        (aname ^ ": " ^ ckpt_label attack ^ " in the ledger")
        true
        (List.mem_assoc (ckpt_label attack) r.A.trusted_ops);
      Alcotest.(check bool) (aname ^ ": honest client still served") true
        r.A.client_finished;
      Alcotest.(check bool) (aname ^ ": paper prediction holds") true
        (A.holds r))
    A.ckpt_all

let test_ckpt_safe_on_unattested_world () =
  (* The same rig on the unattested world: the rewind is granted, yet the
     defence that stops each kind is not the hardware — f+1 distinct
     signers per certificate, the NVRAM floor, f+1 donors per suffix slot —
     so safety holds and the same ckpt.* row records the refusal, while no
     trinc.* op is charged. *)
  List.iter
    (fun attack ->
      let aname = A.name attack in
      let r = A.run ~target:A.Unattested ~attack () in
      Alcotest.(check int) (aname ^ ": no safety violation") 0
        r.A.safety_violations;
      Alcotest.(check bool)
        (aname ^ ": " ^ ckpt_label attack ^ " in the ledger")
        true
        (List.mem_assoc (ckpt_label attack) r.A.trusted_ops);
      Alcotest.(check bool) (aname ^ ": no trinc op charged") false
        (List.exists
           (fun (k, _) -> String.starts_with ~prefix:"trinc." k)
           r.A.trusted_ops))
    A.ckpt_all

let test_ckpt_deterministic () =
  let digest (r : A.result) =
    ( r.A.safety_violations, r.A.rejections, r.A.commits, r.A.messages,
      r.A.duration_us, r.A.trusted_ops )
  in
  List.iter
    (fun target ->
      let a = A.run ~seed:7L ~target ~attack:A.Forged_checkpoint () in
      let b = A.run ~seed:7L ~target ~attack:A.Forged_checkpoint () in
      Alcotest.(check bool) "same seed, same run" true (digest a = digest b))
    [ A.Minbft; A.Unattested ]

let test_ckpt_harness_registration () =
  List.iter
    (fun attack ->
      let aname = A.name attack in
      Alcotest.(check bool)
        (aname ^ " clean side passes")
        false
        (Thc_check.Monitor.failed (run_empty (get_harness ("minbft-" ^ aname))));
      Alcotest.(check bool)
        (aname ^ " has no unattested harness")
        true
        (Thc_check.Harness.find ("unattested-" ^ aname) = None))
    A.ckpt_all

(* --- outputs-only rigs ------------------------------------------------- *)

(* [run] records outputs only and counts messages off the engine's link
   counter; [run_export] records the full trace.  On every MinBFT-target
   kind, with and without the explorer's random script on top, the two
   verdicts must agree field for field, and [messages] must be the number
   of sends in the exported trace. *)
let check_same_result label (a : A.result) (b : A.result) =
  let field name = label ^ ": " ^ name in
  Alcotest.(check string) (field "attack") (A.name b.A.attack)
    (A.name a.A.attack);
  Alcotest.(check string) (field "target") (A.target_name b.A.target)
    (A.target_name a.A.target);
  Alcotest.(check int64) (field "seed") b.A.seed a.A.seed;
  Alcotest.(check int64) (field "corrupt_at") b.A.corrupt_at a.A.corrupt_at;
  Alcotest.(check int) (field "safety_violations") b.A.safety_violations
    a.A.safety_violations;
  Alcotest.(check int) (field "distinct_ops_at_seq1") b.A.distinct_ops_at_seq1
    a.A.distinct_ops_at_seq1;
  Alcotest.(check int) (field "commits") b.A.commits a.A.commits;
  Alcotest.(check int) (field "rejections") b.A.rejections a.A.rejections;
  Alcotest.(check (list (pair string int))) (field "trusted_ops")
    b.A.trusted_ops a.A.trusted_ops;
  Alcotest.(check int) (field "messages") b.A.messages a.A.messages;
  Alcotest.(check int64) (field "duration_us") b.A.duration_us a.A.duration_us;
  Alcotest.(check bool) (field "client_finished") b.A.client_finished
    a.A.client_finished;
  Alcotest.(check string) (field "detail") b.A.detail a.A.detail;
  Alcotest.(check bool) (field "stalled_spans") true
    (a.A.stalled_spans = b.A.stalled_spans);
  Alcotest.(check bool) (field "whole record") true (a = b)

let test_outputs_only_matches_full () =
  List.iter
    (fun attack ->
      let h = get_harness ("minbft-" ^ A.name attack) in
      for s = 1 to 5 do
        let seed = Int64.of_int s in
        List.iter
          (fun (what, script) ->
            let label = Printf.sprintf "%s seed %d %s" (A.name attack) s what in
            let r = A.run ~seed ?script ~target:A.Minbft ~attack () in
            let full, jsonl = A.run_export ~seed ?script ~attack () in
            Alcotest.(check int) (label ^ ": sends in the full trace")
              (Thc_sim.Trace.messages_sent
                 (Result.get_ok (Thc_sim.Trace.of_jsonl jsonl)))
              r.A.messages;
            check_same_result label r full)
          [
            ("no script", None);
            ("explorer script", Some (Thc_check.Sweep.script_for h ~seed ()));
          ]
      done)
    (A.all @ A.ckpt_all)

let () =
  Alcotest.run "thc_byz"
    [
      ( "catalog",
        [
          Alcotest.test_case "names stable" `Quick test_names_stable;
          Alcotest.test_case "applies partitions catalogs" `Quick
            test_applies_partitions_catalogs;
          Alcotest.test_case "bounces off minbft" `Quick
            test_attack_bounces_off_minbft;
          Alcotest.test_case "forks unattested" `Quick
            test_attack_forks_unattested;
          Alcotest.test_case "bounces off ubft" `Quick
            test_register_attacks_bounce_off_ubft;
          Alcotest.test_case "deterministic" `Quick test_run_deterministic;
          Alcotest.test_case "ubft deterministic" `Quick
            test_ubft_run_deterministic;
        ] );
      ( "matrix",
        [
          Alcotest.test_case "export deterministic" `Quick
            test_matrix_export_deterministic;
          Alcotest.test_case "thc-attack/v1 schema" `Quick test_matrix_schema;
          Alcotest.test_case "applies filter" `Quick test_matrix_applies_filter;
        ] );
      ( "harness",
        [
          Alcotest.test_case "registered in explorer" `Quick
            test_harness_registration;
          Alcotest.test_case "ubft registered in explorer" `Quick
            test_ubft_harness_registration;
        ] );
      ( "ckpt",
        [
          Alcotest.test_case "catalog stable" `Quick test_ckpt_catalog;
          Alcotest.test_case "bounces off minbft" `Quick
            test_ckpt_bounces_off_minbft;
          Alcotest.test_case "safe on unattested world" `Quick
            test_ckpt_safe_on_unattested_world;
          Alcotest.test_case "deterministic" `Quick test_ckpt_deterministic;
          Alcotest.test_case "registered in explorer" `Quick
            test_ckpt_harness_registration;
        ] );
      ( "outputs-only",
        [
          Alcotest.test_case "matches full trace" `Quick
            test_outputs_only_matches_full;
        ] );
    ]
