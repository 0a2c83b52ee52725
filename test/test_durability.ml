(* Long-lived service durability: the Protocol/Setup API surface, attested
   checkpoint certificates, log truncation bounds, and restart-rejoin via
   verified state transfer. *)

module H = Thc_replication.Harness
module P = Thc_replication.Protocol
module D = Thc_replication.Durability

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* --- Protocol codec ------------------------------------------------------ *)

let test_protocol_roundtrip () =
  Alcotest.(check int) "three protocols" 3 (List.length P.all);
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (P.to_string p ^ " round-trips")
        true
        (P.of_string (P.to_string p) = Some p))
    P.all;
  Alcotest.(check bool) "unknown name rejected" true (P.of_string "raft" = None);
  Alcotest.(check bool) "empty name rejected" true (P.of_string "" = None);
  (* The harness re-export is the same type, not a parallel enum. *)
  Alcotest.(check bool) "harness alias is Protocol.t" true (H.Minbft = P.Minbft)

(* --- Setup.make ---------------------------------------------------------- *)

let test_setup_make_matches_literal () =
  (* The smart constructor's defaults must reproduce the record literal the
     tree used before it existed — byte-for-byte on a golden-shaped run. *)
  let literal =
    {
      H.protocol = H.Minbft;
      f = 1;
      ops = 25;
      clients = 1;
      batch = 1;
      interval = 5_000L;
      delay = Thc_sim.Delay.Uniform (50L, 500L);
      scenario = H.Fault_free;
      seed = 17L;
      network = None;
      checkpoint_interval = 0;
    }
  in
  let made = H.Setup.make ~protocol:H.Minbft ~f:1 ~seed:17L () in
  Alcotest.(check bool) "defaults equal the legacy literal" true (made = literal);
  let _, a = H.run_export literal in
  let _, b = H.run_export made in
  Alcotest.(check bool) "export bytes identical" true (String.equal a b)

(* --- checkpoint certificates -------------------------------------------- *)

let v owner = { D.owner; upto = 8; digest = 42L; exec_count = 8 }

let test_cert_quorum_edges () =
  Alcotest.(check bool) "empty cert unstable" false (D.cert_stable ~f:1 []);
  Alcotest.(check bool) "below f+1 unstable" false (D.cert_stable ~f:1 [ v 0 ]);
  Alcotest.(check bool) "exactly f+1 stable" true
    (D.cert_stable ~f:1 [ v 0; v 1 ]);
  Alcotest.(check bool) "duplicate signer counts once" false
    (D.cert_stable ~f:1 [ v 0; v 0 ]);
  Alcotest.(check bool) "mismatched upto vote excluded" false
    (D.cert_stable ~f:1 [ v 0; { (v 1) with D.upto = 4 } ]);
  Alcotest.(check bool) "mismatched digest vote excluded" false
    (D.cert_stable ~f:1 [ v 0; { (v 1) with D.digest = 7L } ]);
  Alcotest.(check bool) "f=2 needs three signers" false
    (D.cert_stable ~f:2 [ v 0; v 1 ]);
  Alcotest.(check bool) "f=2 stable at three" true
    (D.cert_stable ~f:2 [ v 0; v 1; v 2 ])

(* --- log truncation ------------------------------------------------------ *)

let test_minbft_truncation_bound () =
  let ival = 4 in
  let o =
    H.run
      (H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:30 ~checkpoint_interval:ival
         ~seed:11L ())
  in
  Alcotest.(check bool) "safe" true (o.H.safety_violations = []);
  Alcotest.(check bool) "live" true (o.H.liveness_violations = []);
  let d = o.H.durability in
  Alcotest.(check bool) "truncated at least once" true (d.D.truncations > 0);
  Alcotest.(check bool) "stable checkpoint advanced" true (d.D.stable_upto > 0);
  Alcotest.(check bool)
    (Printf.sprintf "log hwm %d within bound %d" d.D.hwm
       (D.bound ~checkpoint_interval:ival))
    true
    (D.bound_ok ~checkpoint_interval:ival d)

let test_checkpointing_off_is_inert () =
  (* interval 0 must change nothing: no truncation, no stable checkpoint,
     the whole log retained — and identical bytes to the pre-durability
     golden shape (covered by the golden corpus tests). *)
  let o = H.run (H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:30 ~seed:11L ()) in
  let d = o.H.durability in
  Alcotest.(check int) "no truncations" 0 d.D.truncations;
  Alcotest.(check int) "no stable checkpoint" 0 d.D.stable_upto;
  Alcotest.(check bool) "log retains every committed slot" true (d.D.live >= 30)

let test_ubft_register_truncation () =
  let o =
    H.run
      (H.Setup.make ~protocol:H.Ubft ~f:1 ~ops:30 ~checkpoint_interval:4
         ~seed:11L ())
  in
  Alcotest.(check bool) "safe" true (o.H.safety_violations = []);
  let d = o.H.durability in
  Alcotest.(check bool) "registers truncated" true (d.D.truncations > 0);
  Alcotest.(check bool) "register hwm below untruncated length" true
    (d.D.hwm < 30)

(* --- restart and state transfer ------------------------------------------ *)

let test_restart_rejoins_via_state_transfer () =
  let o, export =
    H.run_export
      (H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:30 ~checkpoint_interval:4
         ~scenario:(H.Restart_replica { pid = 2; at = 60_000L })
         ~seed:11L ())
  in
  Alcotest.(check bool) "safe across the restart" true
    (o.H.safety_violations = []);
  Alcotest.(check bool) "live across the restart" true
    (o.H.liveness_violations = []);
  Alcotest.(check bool) "joiner recovered through a verified snapshot" true
    (contains ~needle:"recovered(" export);
  let d = o.H.durability in
  Alcotest.(check bool) "stable checkpoint exists to transfer" true
    (d.D.stable_upto > 0)

let test_restart_without_checkpoints_still_recovers () =
  (* With no checkpoints there is no snapshot to install; the wiped replica
     must still do no harm (stay safe) and the cluster stays live on the
     remaining 2f quorum. *)
  let o =
    H.run
      (H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:30
         ~scenario:(H.Restart_replica { pid = 2; at = 60_000L })
         ~seed:11L ())
  in
  Alcotest.(check bool) "safe" true (o.H.safety_violations = []);
  Alcotest.(check bool) "live" true (o.H.liveness_violations = [])

(* Only a MinBFT replica restarts, and only at a positive time. *)
let test_restart_rejected_off_minbft () =
  List.iter
    (fun (what, protocol, pid, at) ->
      Alcotest.(check bool)
        (what ^ " restart raises")
        true
        (try
           ignore
             (H.run
                (H.Setup.make ~protocol ~f:1 ~ops:4
                   ~scenario:(H.Restart_replica { pid; at })
                   ~seed:1L ()));
           false
         with Invalid_argument _ -> true))
    [
      ("pbft", H.Pbft, 1, 10_000L);
      ("ubft", H.Ubft, 1, 10_000L);
      ("minbft client pid", H.Minbft, 3, 10_000L);
      ("minbft negative pid", H.Minbft, -1, 10_000L);
      ("minbft at time 0", H.Minbft, 1, 0L);
    ]

let () =
  Alcotest.run "durability"
    [
      ( "protocol",
        [
          Alcotest.test_case "codec round-trip" `Quick test_protocol_roundtrip;
        ] );
      ( "setup",
        [
          Alcotest.test_case "Setup.make defaults match legacy literal" `Quick
            test_setup_make_matches_literal;
        ] );
      ( "checkpoints",
        [
          Alcotest.test_case "certificate quorum edges" `Quick
            test_cert_quorum_edges;
          Alcotest.test_case "minbft truncation bound" `Quick
            test_minbft_truncation_bound;
          Alcotest.test_case "interval 0 is inert" `Quick
            test_checkpointing_off_is_inert;
          Alcotest.test_case "ubft register truncation" `Quick
            test_ubft_register_truncation;
        ] );
      ( "state-transfer",
        [
          Alcotest.test_case "restart rejoins via snapshot" `Quick
            test_restart_rejoins_via_state_transfer;
          Alcotest.test_case "restart without checkpoints" `Quick
            test_restart_without_checkpoints_still_recovers;
          Alcotest.test_case "restart limited to minbft" `Quick
            test_restart_rejected_off_minbft;
        ] );
    ]
