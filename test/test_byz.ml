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

(* A corrupted replica is one of the f faults: at f = 0 there is no
   replica left to corrupt, so every target refuses before any run. *)
let test_f0_refused () =
  let refused run =
    match run () with _ -> false | exception Invalid_argument _ -> true
  in
  List.iter
    (fun (target, attack) ->
      Alcotest.(check bool)
        (A.target_name target ^ " " ^ A.name attack ^ " at f = 0")
        true
        (refused (fun () -> A.run ~f:0 ~target ~attack ())))
    [
      (A.Minbft, A.Equivocate);
      (A.Minbft, A.Forged_checkpoint);
      (A.Minbft, A.Stale_transfer);
      (A.Minbft, A.Join_equivocation);
      (A.Unattested, A.Equivocate);
      (A.Ubft, A.Register_forge);
    ];
  Alcotest.(check bool) "run_export at f = 0" true
    (refused (fun () -> A.run_export ~f:0 ~attack:A.Equivocate ()))

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

(* The checkpoint family's full exports, pinned by MD5 (each JSONL is about
   1.5 MB).  Each run has two view changes whose View_change and New_view
   messages nest whole attested logs, so these traces exercise every
   digest, signature and [Trinc.check] on the verification path; a change
   that moves a verdict, a message or a ledger charge moves a hash. *)
let ckpt_export_md5 =
  [
    ( A.Forged_checkpoint,
      [ "c1a4309d00b7a445568c18c883b1ae1f"; "8caa8ddd2a6d28aca835509537ab14c3";
        "70085d8fb8498c4dcc4b67550b3c12a0" ] );
    ( A.Stale_transfer,
      [ "0f2e3ebf2034618815396b8323e53ea9"; "9666757bdd4cd392230a154aeeaad045";
        "19ca97362429e18c1a6e8047efa996df" ] );
    ( A.Join_equivocation,
      [ "c299a9cb6f4c9c285175ba34d4c7265b"; "4ef6397523a8815f3e763fc4ebd40ee5";
        "58ba78a91171ca48d3e46c16d026e7e7" ] );
  ]

let test_ckpt_exports_pinned () =
  Alcotest.(check (list string)) "every checkpoint kind pinned"
    (List.map A.name A.ckpt_all)
    (List.map (fun (k, _) -> A.name k) ckpt_export_md5);
  List.iter
    (fun (attack, md5s) ->
      List.iteri
        (fun i expected ->
          let seed = i + 1 in
          let _, jsonl = A.run_export ~seed:(Int64.of_int seed) ~attack () in
          Alcotest.(check string)
            (Printf.sprintf "%s seed %d export md5" (A.name attack) seed)
            expected
            (Stdlib.Digest.to_hex (Stdlib.Digest.string jsonl)))
        md5s)
    ckpt_export_md5

(* The shared decode table and the keyring memos outlive a run.  They hold
   host work only, so an export must not depend on what ran earlier in the
   process: run once, run twice in a row, and run after an unrelated
   MinBFT run, each checkpoint kind exports the same bytes. *)
let test_ckpt_run_order_keeps_bytes () =
  let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s) in
  List.iter
    (fun attack ->
      let export () = md5 (snd (A.run_export ~seed:2L ~attack ())) in
      let once = export () in
      let again = export () in
      ignore
        (Thc_replication.Harness.run
           (Thc_replication.Harness.Setup.make
              ~protocol:Thc_replication.Harness.Minbft ~f:1 ~ops:40 ~clients:3
              ~seed:5L ()));
      let after = export () in
      Alcotest.(check string) (A.name attack ^ ": twice in a row") once again;
      Alcotest.(check string) (A.name attack ^ ": after another run") once after)
    A.ckpt_all

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
  Alcotest.(check int) (field "events") b.A.events a.A.events;
  Alcotest.(check bool) (field "client_finished") b.A.client_finished
    a.A.client_finished;
  Alcotest.(check string) (field "detail") b.A.detail a.A.detail;
  Alcotest.(check bool) (field "stalled_spans") true
    (a.A.stalled_spans = b.A.stalled_spans);
  Alcotest.(check bool) (field "whole record") true (a = b)

(* Outside [Full] the run counts its idle tail instead of running it, so
   the inputs include crash scripts (a crashed replica's queued tick) and
   a lossy network as well as the explorer's scripts.  The checkpoint
   family skips the lossy network.  There its replicas keep escalating,
   and MinBFT View_change logs nest: each log holds the sender's earlier
   View_change attestations, whose messages embed their own logs, so
   every escalation doubles the message.  [thc attack minbft
   forged-checkpoint --network lossy --seed 1] grows a View_change from
   611 B to 6.1 MB by 480 ms, and the [Full] export marshals every
   recorded copy (seconds per run, gigabytes of heap). *)
let test_outputs_only_matches_full () =
  let lossy = Result.get_ok (Thc_network.Model.of_string "lossy") in
  List.iter
    (fun attack ->
      let h = get_harness ("minbft-" ^ A.name attack) in
      for s = 1 to 5 do
        let seed = Int64.of_int s in
        let extra = s <= 2 in
        let crashes = Thc_check.Sweep.script_for h ~crashes:2 ~partitions:0 ~seed () in
        List.iter
          (fun (what, script, network) ->
            let label = Printf.sprintf "%s seed %d %s" (A.name attack) s what in
            let r = A.run ~seed ?script ?network ~target:A.Minbft ~attack () in
            let full, jsonl = A.run_export ~seed ?script ?network ~attack () in
            Alcotest.(check int) (label ^ ": sends in the full trace")
              (Thc_sim.Trace.messages_sent
                 (Result.get_ok (Thc_sim.Trace.of_jsonl jsonl)))
              r.A.messages;
            check_same_result label r full)
          ([
             ("no script", None, None);
             ("explorer script", Some (Thc_check.Sweep.script_for h ~seed ()), None);
           ]
          @ (if extra then [ ("crash script", Some crashes, None) ] else [])
          @
          if extra && not (List.mem attack A.ckpt_all) then
            [ ("lossy network", None, Some lossy) ]
          else [])
      done)
    (A.all @ A.ckpt_all)

(* --- rig pins ------------------------------------------------------------- *)

(* Every field of [Attack.run]'s result, stalled span views included, on
   one line. *)
let result_line (r : A.result) =
  let join f a = String.concat "," (List.map f (Array.to_list a)) in
  let span (v : Thc_obsv.Span.view) =
    Printf.sprintf "%d/%d/%d/%s/%s" v.Thc_obsv.Span.v_rid v.v_client v.v_seq
      (join Int64.to_string v.v_marks)
      (join string_of_int v.v_ops)
  in
  Printf.sprintf "%s %s %Ld %Ld sv=%d d1=%d c=%d rej=%d ops=%s m=%d dur=%Ld \
                  ev=%d fin=%b %s spans=%s\n"
    (A.name r.A.attack) (A.target_name r.A.target) r.A.seed r.A.corrupt_at
    r.A.safety_violations r.A.distinct_ops_at_seq1 r.A.commits r.A.rejections
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) r.A.trusted_ops))
    r.A.messages r.A.duration_us r.A.events r.A.client_finished r.A.detail
    (String.concat ";" (List.map span r.A.stalled_spans))

let ablation_line (r : Thc_replication.Ablation.result) =
  Format.asprintf "v=[%a] d1=%d m=%d dur=%Ld c=%d ops=%s %s\n"
    (Format.pp_print_list Thc_replication.Smr_spec.pp_violation)
    r.Thc_replication.Ablation.violations r.distinct_ops_at_seq1 r.messages
    r.duration_us r.commits
    (String.concat ","
       (List.map (fun (k, v) -> Printf.sprintf "%s:%d" k v) r.trusted_ops))
    r.detail

let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s)

(* One MD5 per catalog cell over seeds 1-3, each without a script and with
   its explorer harness's script, on no network model, on geo3 and, outside
   the checkpoint family, on lossy (see the comment on the outputs-only
   case for why the checkpoint family skips lossy). *)
let rig_md5 =
  [
    ("minbft-equivocation", "a21770cc48ebd4a899fccfc7c1d4a8bb");
    ("minbft-replay", "c0fa260d4b63ade21ee6709c38781e7c");
    ("minbft-reuse", "e77c12d623a2315bca382b9f35ca6d6f");
    ("minbft-mismatched-vc", "78fa90cc651fb3e3726ffa786818b74d");
    ("minbft-selective-send", "be0d9e93e9e7f6266ceed0820445870b");
    ("minbft-silent-then-lie", "f92e8b138db812c5437d7efea8177fcc");
    ("minbft-forged-checkpoint", "5a946db540cc755d1d64915f69ba214a");
    ("minbft-stale-transfer", "f0ea12917d807f1960823afc350e9378");
    ("minbft-join-equivocation", "843b347b777b65726cf63516ac3debdd");
    ("unattested-equivocation", "6f5ca4f3f35041b971aa2a72c2539ae0");
    ("ubft-register-forge", "a13b4432c0a3fbc0572779b8c9ed4cec");
    ("ubft-ack-forge", "674f75a218f330b3761afb24934f5a3d");
    ("ubft-stale-read", "9d3b749ec788e5a11bd2f9054c3c4fc6");
    ("ubft-withheld-append", "561991cae04ba91e2b0eab6406782eb8");
  ]

(* The three [Ablation] entry points at f = 1, 2 and 3. *)
let ablation_md5 =
  [
    (1, "ce819a4ef8f30a8e4fe9397271a4f980");
    (2, "dddb6dac873b1d428dc0ed9d8c04d56e");
    (3, "d1ce98a768eca2001e083fd041a6e384");
  ]

let test_rigs_pinned () =
  let model s = Some (Result.get_ok (Thc_network.Model.of_string s)) in
  let cells =
    List.concat_map
      (fun target ->
        List.filter_map
          (fun attack ->
            if A.applies ~target ~attack then
              Some (A.target_name target ^ "-" ^ A.name attack, target, attack)
            else None)
          (A.all @ A.ckpt_all @ A.ubft_all))
      [ A.Minbft; A.Unattested; A.Ubft ]
  in
  Alcotest.(check (list string)) "every catalog cell pinned"
    (List.map fst rig_md5)
    (List.map (fun (name, _, _) -> name) cells);
  List.iter2
    (fun (name, target, attack) (_, expected) ->
      let h = get_harness name in
      let networks =
        [ None; model "geo3" ]
        @ if List.mem attack A.ckpt_all then [] else [ model "lossy" ]
      in
      let b = Buffer.create 4096 in
      for s = 1 to 3 do
        let seed = Int64.of_int s in
        List.iter
          (fun script ->
            List.iter
              (fun network ->
                Buffer.add_string b
                  (result_line
                     (A.run ~seed ?script ?network ~target ~attack ())))
              networks)
          [ None; Some (Thc_check.Sweep.script_for h ~seed ()) ]
      done;
      Alcotest.(check string) (name ^ " results md5") expected
        (md5 (Buffer.contents b)))
    cells rig_md5;
  let h = get_harness "minbft-unattested" in
  List.iter
    (fun (f, expected) ->
      let module Ab = Thc_replication.Ablation in
      let script = Thc_check.Sweep.script_for h ~seed:(Int64.of_int f) () in
      let lines =
        [
          Ab.equivocation_splits_unattested ~f ();
          Ab.equivocation_fails_against_minbft ~f ();
          Ab.unattested_under_script ~f ~seed:(Int64.of_int f) ~script ();
          Ab.unattested_under_script ~f ?network:(model "geo3")
            ~seed:(Int64.of_int f) ~script ();
        ]
      in
      Alcotest.(check string)
        (Printf.sprintf "ablation f=%d md5" f)
        expected
        (md5 (String.concat "" (List.map ablation_line lines))))
    ablation_md5

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
          Alcotest.test_case "zero f refused" `Quick test_f0_refused;
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
          Alcotest.test_case "exports pinned" `Quick test_ckpt_exports_pinned;
          Alcotest.test_case "run order keeps bytes" `Quick
            test_ckpt_run_order_keeps_bytes;
          Alcotest.test_case "registered in explorer" `Quick
            test_ckpt_harness_registration;
        ] );
      ( "outputs-only",
        [
          Alcotest.test_case "matches full trace" `Quick
            test_outputs_only_matches_full;
        ] );
      ( "pins",
        [ Alcotest.test_case "rig results pinned" `Quick test_rigs_pinned ] );
    ]
