(* Tests for the trusted-hardware modules: non-equivocation, monotonicity,
   unforgeability, claim-once capabilities, and the Levin et al. reduction. *)

let qcheck = QCheck_alcotest.to_alcotest

let fresh_trinc ?(n = 3) () =
  let rng = Thc_util.Rng.create 21L in
  Thc_hardware.Trinc.create_world rng ~n

(* --- TrInc -------------------------------------------------------------------- *)

let test_trinc_attest_and_check () =
  let world = fresh_trinc () in
  let t = Thc_hardware.Trinc.trinket world ~owner:0 in
  match Thc_hardware.Trinc.attest t ~counter:5 ~message:"m" with
  | None -> Alcotest.fail "fresh counter refused"
  | Some a ->
    Alcotest.(check int) "prev is 0" 0 a.prev;
    Alcotest.(check int) "counter" 5 a.counter;
    Alcotest.(check bool) "checks as owner" true
      (Thc_hardware.Trinc.check world a ~id:0);
    Alcotest.(check bool) "does not check as other id" false
      (Thc_hardware.Trinc.check world a ~id:1)

let test_trinc_monotone () =
  let world = fresh_trinc () in
  let t = Thc_hardware.Trinc.trinket world ~owner:0 in
  ignore (Thc_hardware.Trinc.attest t ~counter:5 ~message:"m1");
  Alcotest.(check bool) "same counter refused" true
    (Thc_hardware.Trinc.attest t ~counter:5 ~message:"m2" = None);
  Alcotest.(check bool) "lower counter refused" true
    (Thc_hardware.Trinc.attest t ~counter:3 ~message:"m3" = None);
  (match Thc_hardware.Trinc.attest t ~counter:9 ~message:"m4" with
  | Some a -> Alcotest.(check int) "prev links to last" 5 a.prev
  | None -> Alcotest.fail "higher counter refused");
  Alcotest.(check int) "last counter" 9 (Thc_hardware.Trinc.last_counter t)

let test_trinc_claim_once () =
  let world = fresh_trinc () in
  let _ = Thc_hardware.Trinc.trinket world ~owner:1 in
  Alcotest.check_raises "second claim refused"
    (Invalid_argument "Trinc.trinket: trinket already claimed") (fun () ->
      ignore (Thc_hardware.Trinc.trinket world ~owner:1))

let test_trinc_tamper_detection () =
  let world = fresh_trinc () in
  let t = Thc_hardware.Trinc.trinket world ~owner:0 in
  match Thc_hardware.Trinc.attest t ~counter:2 ~message:"real" with
  | None -> Alcotest.fail "attest failed"
  | Some a ->
    let variants =
      [
        { a with Thc_hardware.Trinc.message = "fake" };
        { a with Thc_hardware.Trinc.counter = 3 };
        { a with Thc_hardware.Trinc.prev = 1 };
        { a with Thc_hardware.Trinc.tag = Int64.add a.tag 1L };
      ]
    in
    List.iter
      (fun v ->
        if Thc_hardware.Trinc.check world v ~id:0 then
          Alcotest.fail "tampered attestation accepted")
      variants

let test_trinc_counterfeit () =
  let world = fresh_trinc () in
  let fake =
    Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:0 ~counter:1 ~message:"m"
      ~tag:99L
  in
  Alcotest.(check bool) "counterfeit rejected" false
    (Thc_hardware.Trinc.check world fake ~id:0)

let test_trinc_unattested_world () =
  (* The ablation's world: monotonicity gone, authentication kept, nothing
     charged. *)
  let world = Thc_hardware.Trinc.create_unattested_world (Thc_util.Rng.create 21L) ~n:3 in
  let t = Thc_hardware.Trinc.trinket world ~owner:0 in
  let attest counter message =
    match Thc_hardware.Trinc.attest t ~counter ~message with
    | Some a -> a
    | None -> Alcotest.failf "counter %d refused" counter
  in
  let first = attest 1 "m1" in
  let again = attest 1 "m2" in
  Alcotest.(check int) "re-attested counter" 1 again.counter;
  Alcotest.(check int) "prev is counter - 1" 0 again.prev;
  Alcotest.(check bool) "both verify" true
    (Thc_hardware.Trinc.check world first ~id:0
    && Thc_hardware.Trinc.check world again ~id:0);
  let fake =
    Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:0 ~counter:1 ~message:"m3"
      ~tag:again.tag
  in
  Alcotest.(check bool) "counterfeit still rejected" false
    (Thc_hardware.Trinc.check world fake ~id:0);
  Alcotest.(check bool) "ledger stays empty" true
    (Thc_obsv.Ledger.is_empty (Thc_hardware.Trinc.ledger world));
  (* Same RNG draws as TrInc: a dense stream attests byte-identically. *)
  let trinc = fresh_trinc () in
  let u = Thc_hardware.Trinc.trinket trinc ~owner:0 in
  Alcotest.(check bool) "dense stream identical to TrInc" true
    (Thc_hardware.Trinc.attest u ~counter:1 ~message:"m1" = Some first)

(* --- the check memo ------------------------------------------------------------- *)

(* [check] remembers, per world, every attestation its trinkets produced or
   it accepted, and skips the tag hash for a field-equal copy.  The memo
   must never turn a rejection into an acceptance, and every call still
   charges the ledger as the plain hash path does. *)

let copy_of (a : Thc_hardware.Trinc.attestation) =
  Thc_hardware.Trinc.counterfeit ~owner:a.owner ~prev:a.prev ~counter:a.counter
    ~message:(Bytes.to_string (Bytes.of_string a.message))
    ~tag:a.tag

let attest_exn t ~counter ~message =
  match Thc_hardware.Trinc.attest t ~counter ~message with
  | Some a -> a
  | None -> Alcotest.failf "counter %d refused" counter

let test_memo_tampered_still_rejected () =
  let world = fresh_trinc () in
  let ledger = Thc_hardware.Trinc.ledger world in
  let t0 = Thc_hardware.Trinc.trinket world ~owner:0 in
  let t1 = Thc_hardware.Trinc.trinket world ~owner:1 in
  let a = attest_exn t0 ~counter:2 ~message:"real" in
  let b = attest_exn t1 ~counter:2 ~message:"real" in
  Alcotest.(check bool) "genuine checks" true
    (Thc_hardware.Trinc.check world a ~id:0);
  Alcotest.(check bool) "fresh copy checks" true
    (Thc_hardware.Trinc.check world (copy_of a) ~id:0);
  let variants =
    [
      ("message", { a with Thc_hardware.Trinc.message = "fake" }, 0);
      ("counter", { a with Thc_hardware.Trinc.counter = 3 }, 0);
      ("prev", { a with Thc_hardware.Trinc.prev = 1 }, 0);
      ("tag", { a with Thc_hardware.Trinc.tag = Int64.add a.tag 1L }, 0);
      ("wrong id", a, 1);
      ("owner relabelled", { a with Thc_hardware.Trinc.owner = 1 }, 1);
      ("other trinket's tag", { a with Thc_hardware.Trinc.tag = b.tag }, 0);
      ( "genuine tag, other message",
        Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:a.prev ~counter:a.counter
          ~message:"other" ~tag:a.tag,
        0 );
    ]
  in
  List.iter
    (fun (what, v, id) ->
      let fails = Thc_obsv.Ledger.count ledger "trinc.check_fail" in
      Alcotest.(check bool) (what ^ " rejected") false
        (Thc_hardware.Trinc.check world v ~id);
      Alcotest.(check int) (what ^ " charged trinc.check_fail") (fails + 1)
        (Thc_obsv.Ledger.count ledger "trinc.check_fail"))
    variants;
  Alcotest.(check bool) "genuine still checks after the forgeries" true
    (Thc_hardware.Trinc.check world (copy_of a) ~id:0
    && Thc_hardware.Trinc.check world b ~id:1)

let test_memo_unattested_world () =
  let world =
    Thc_hardware.Trinc.create_unattested_world (Thc_util.Rng.create 21L) ~n:3
  in
  let t = Thc_hardware.Trinc.trinket world ~owner:0 in
  let first = attest_exn t ~counter:1 ~message:"m1" in
  let again = attest_exn t ~counter:1 ~message:"m2" in
  List.iter
    (fun (what, a) ->
      Alcotest.(check bool) (what ^ " verifies") true
        (Thc_hardware.Trinc.check world a ~id:0);
      Alcotest.(check bool) (what ^ " copy verifies") true
        (Thc_hardware.Trinc.check world (copy_of a) ~id:0))
    [ ("first", first); ("second", again) ];
  List.iter
    (fun (what, tag) ->
      let fake =
        Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:0 ~counter:1
          ~message:"m3" ~tag
      in
      Alcotest.(check bool) ("counterfeit with " ^ what ^ " tag") false
        (Thc_hardware.Trinc.check world fake ~id:0))
    [ ("the first", first.tag); ("the second", again.tag) ];
  Alcotest.(check bool) "swapped tags rejected" false
    (Thc_hardware.Trinc.check world { first with tag = again.tag } ~id:0);
  Alcotest.(check bool) "ledger stays empty" true
    (Thc_obsv.Ledger.is_empty (Thc_hardware.Trinc.ledger world))

let test_memo_ledger_counts_every_call () =
  (* Two worlds from the same seed share their keys, so an attestation made
     in [maker] is genuine in [checker], which has not seen it yet: its
     first check misses the memo, later ones hit it. *)
  let maker = fresh_trinc () in
  let checker = fresh_trinc () in
  let t = Thc_hardware.Trinc.trinket maker ~owner:2 in
  let a = attest_exn t ~counter:1 ~message:"x" in
  let outcomes =
    List.map
      (fun (v, id) -> Thc_hardware.Trinc.check checker v ~id)
      [
        (a, 2);  (* miss, accepted *)
        (a, 2);  (* hit *)
        (copy_of a, 2);  (* hit on a field-equal copy *)
        ({ a with message = "y" }, 2);  (* miss, rejected *)
        (a, 0);  (* wrong id *)
        (copy_of a, 2);
      ]
  in
  Alcotest.(check (list bool)) "verdicts"
    [ true; true; true; false; false; true ]
    outcomes;
  Alcotest.(check (list (pair string int))) "checker ledger"
    [ ("trinc.check", 6); ("trinc.check_fail", 2) ]
    (Thc_obsv.Ledger.rows (Thc_hardware.Trinc.ledger checker));
  Alcotest.(check (list (pair string int))) "maker ledger"
    [ ("trinc.attest", 1) ]
    (Thc_obsv.Ledger.rows (Thc_hardware.Trinc.ledger maker))

let test_memo_cost_bound () =
  (* A field-equal copy is compared, not re-hashed: hashing 64 KiB on each
     of these checks would cost several times the bound. *)
  let world = fresh_trinc () in
  let t = Thc_hardware.Trinc.trinket world ~owner:1 in
  let a = attest_exn t ~counter:1 ~message:(String.make (64 * 1024) 'p') in
  let copy = copy_of a in
  let start = Sys.time () in
  for _ = 1 to 10_000 do
    if not (Thc_hardware.Trinc.check world copy ~id:1) then
      Alcotest.fail "genuine copy rejected"
  done;
  let elapsed = Sys.time () -. start in
  Alcotest.(check int) "every check charged" 10_000
    (Thc_obsv.Ledger.count (Thc_hardware.Trinc.ledger world) "trinc.check");
  if elapsed >= 0.2 then
    Alcotest.failf "10,000 checks of a 64 KiB copy took %.3f s (bound 0.2 s)"
      elapsed

let prop_trinc_no_counter_reuse =
  QCheck.Test.make ~name:"a counter can never be attested twice" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (int_bound 20))
    (fun counters ->
      let world = fresh_trinc () in
      let t = Thc_hardware.Trinc.trinket world ~owner:0 in
      let used = Hashtbl.create 8 in
      List.for_all
        (fun c ->
          match Thc_hardware.Trinc.attest t ~counter:c ~message:"m" with
          | Some _ ->
            (* accepted: must be genuinely fresh and above all previous *)
            let fresh = not (Hashtbl.mem used c) in
            Hashtbl.replace used c ();
            fresh
          | None -> true)
        counters)

(* --- A2M ---------------------------------------------------------------------- *)

let fresh_a2m () =
  let rng = Thc_util.Rng.create 22L in
  let world = Thc_hardware.A2m.create_world rng ~n:2 in
  (world, Thc_hardware.A2m.device world ~owner:0)

let test_a2m_append_lookup () =
  let world, d = fresh_a2m () in
  let log = Thc_hardware.A2m.create_log d in
  Alcotest.(check (option int)) "append 1" (Some 1)
    (Thc_hardware.A2m.append d ~log "a");
  Alcotest.(check (option int)) "append 2" (Some 2)
    (Thc_hardware.A2m.append d ~log "b");
  (match Thc_hardware.A2m.lookup d ~log ~index:1 ~z:"z1" with
  | Some att ->
    Alcotest.(check string) "entry value" "a" att.value;
    Alcotest.(check string) "challenge bound" "z1" att.challenge;
    Alcotest.(check bool) "verifies" true
      (Thc_hardware.A2m.check world att ~owner:0)
  | None -> Alcotest.fail "lookup failed");
  Alcotest.(check bool) "out-of-range lookup" true
    (Thc_hardware.A2m.lookup d ~log ~index:3 ~z:"z" = None)

let test_a2m_end () =
  let _, d = fresh_a2m () in
  let log = Thc_hardware.A2m.create_log d in
  (match Thc_hardware.A2m.end_ d ~log ~z:"z" with
  | Some att ->
    Alcotest.(check int) "empty end index" 0 att.index;
    Alcotest.(check string) "empty end value" "" att.value
  | None -> Alcotest.fail "end on empty log failed");
  ignore (Thc_hardware.A2m.append d ~log "x");
  match Thc_hardware.A2m.end_ d ~log ~z:"z" with
  | Some att ->
    Alcotest.(check int) "end index" 1 att.index;
    Alcotest.(check string) "end value" "x" att.value
  | None -> Alcotest.fail "end failed"

let test_a2m_unknown_log () =
  let _, d = fresh_a2m () in
  Alcotest.(check (option int)) "append to unknown log" None
    (Thc_hardware.A2m.append d ~log:99 "x")

let test_a2m_tamper () =
  let world, d = fresh_a2m () in
  let log = Thc_hardware.A2m.create_log d in
  ignore (Thc_hardware.A2m.append d ~log "secret");
  match Thc_hardware.A2m.lookup d ~log ~index:1 ~z:"z" with
  | Some att ->
    let tampered = { att with Thc_hardware.A2m.value = "public" } in
    Alcotest.(check bool) "tampered rejected" false
      (Thc_hardware.A2m.check world tampered ~owner:0);
    let replayed = { att with Thc_hardware.A2m.challenge = "other-z" } in
    Alcotest.(check bool) "challenge replay rejected" false
      (Thc_hardware.A2m.check world replayed ~owner:0)
  | None -> Alcotest.fail "lookup failed"

let test_a2m_multiple_logs_independent () =
  let _, d = fresh_a2m () in
  let l1 = Thc_hardware.A2m.create_log d in
  let l2 = Thc_hardware.A2m.create_log d in
  ignore (Thc_hardware.A2m.append d ~log:l1 "a");
  Alcotest.(check (option int)) "logs grow independently" (Some 1)
    (Thc_hardware.A2m.append d ~log:l2 "b");
  Alcotest.(check (option int)) "length l1" (Some 1) (Thc_hardware.A2m.log_length d ~log:l1)

(* --- monotonic counter ------------------------------------------------------------ *)

let test_mono_counter () =
  let rng = Thc_util.Rng.create 23L in
  let world = Thc_hardware.Mono_counter.create_world rng ~n:1 in
  let c = Thc_hardware.Mono_counter.counter world ~owner:0 in
  let a1 = Thc_hardware.Mono_counter.increment c ~message:"m1" in
  let a2 = Thc_hardware.Mono_counter.increment c ~message:"m2" in
  Alcotest.(check int) "first value" 1 a1.value;
  Alcotest.(check int) "second value" 2 a2.value;
  Alcotest.(check int) "current" 2 (Thc_hardware.Mono_counter.current c);
  Alcotest.(check bool) "a1 checks" true
    (Thc_hardware.Mono_counter.check world a1 ~id:0);
  Alcotest.(check bool) "tamper rejected" false
    (Thc_hardware.Mono_counter.check world
       { a1 with Thc_hardware.Mono_counter.message = "evil" }
       ~id:0)

(* --- enclave ------------------------------------------------------------------------ *)

let counter_enclave () =
  let rng = Thc_util.Rng.create 24L in
  let world = Thc_hardware.Enclave.create_world rng ~n:1 in
  let e =
    Thc_hardware.Enclave.enclave world ~owner:0 ~init:0 ~step:(fun s x ->
        (s + x, s + x))
  in
  (world, e)

let test_enclave_invoke () =
  let world, e = counter_enclave () in
  let out1, att1 = Thc_hardware.Enclave.invoke e 5 in
  let out2, att2 = Thc_hardware.Enclave.invoke e 3 in
  Alcotest.(check int) "first output" 5 out1;
  Alcotest.(check int) "second output" 8 out2;
  Alcotest.(check int) "steps" 2 (Thc_hardware.Enclave.step_count e);
  Alcotest.(check bool) "att1 verifies" true
    (Thc_hardware.Enclave.check world att1 ~id:0);
  Alcotest.(check bool) "chain verifies" true
    (Thc_hardware.Enclave.check_chain world [ att1; att2 ] ~id:0)

let test_enclave_chain_rejects_gaps_and_reorder () =
  let world, e = counter_enclave () in
  let _, a1 = Thc_hardware.Enclave.invoke e 1 in
  let _, a2 = Thc_hardware.Enclave.invoke e 1 in
  let _, a3 = Thc_hardware.Enclave.invoke e 1 in
  Alcotest.(check bool) "gap rejected" false
    (Thc_hardware.Enclave.check_chain world [ a1; a3 ] ~id:0);
  Alcotest.(check bool) "reorder rejected" false
    (Thc_hardware.Enclave.check_chain world [ a2; a1; a3 ] ~id:0);
  Alcotest.(check bool) "prefix accepted" true
    (Thc_hardware.Enclave.check_chain world [ a1; a2 ] ~id:0)

let test_enclave_tamper () =
  let world, e = counter_enclave () in
  let _, att = Thc_hardware.Enclave.invoke e 7 in
  Alcotest.(check bool) "tampered output rejected" false
    (Thc_hardware.Enclave.check world
       { att with Thc_hardware.Enclave.output = "evil" }
       ~id:0)

(* --- A2M from TrInc --------------------------------------------------------------- *)

let test_reduction_basic () =
  let world = fresh_trinc () in
  let d = Thc_hardware.A2m_from_trinc.create (Thc_hardware.Trinc.trinket world ~owner:2) in
  let l1 = Thc_hardware.A2m_from_trinc.create_log d in
  let l2 = Thc_hardware.A2m_from_trinc.create_log d in
  Alcotest.(check (option int)) "append l1" (Some 1)
    (Thc_hardware.A2m_from_trinc.append d ~log:l1 "a");
  Alcotest.(check (option int)) "append l2" (Some 1)
    (Thc_hardware.A2m_from_trinc.append d ~log:l2 "b");
  Alcotest.(check (option int)) "append l1 again" (Some 2)
    (Thc_hardware.A2m_from_trinc.append d ~log:l1 "c");
  (match Thc_hardware.A2m_from_trinc.lookup d ~log:l1 ~index:2 with
  | Some att ->
    let log, index, value = Thc_hardware.A2m_from_trinc.entry_of_attestation att in
    Alcotest.(check (pair int (pair int string))) "entry decodes"
      (l1, (2, "c")) (log, (index, value))
  | None -> Alcotest.fail "lookup failed");
  match
    Thc_hardware.A2m_from_trinc.check_chain world ~owner:2
      (Thc_hardware.A2m_from_trinc.chain d)
  with
  | Some entries -> Alcotest.(check int) "chain reconstructs all" 3 (List.length entries)
  | None -> Alcotest.fail "honest chain rejected"

let test_reduction_rejects_doctored_chains () =
  let world = fresh_trinc () in
  let d = Thc_hardware.A2m_from_trinc.create (Thc_hardware.Trinc.trinket world ~owner:2) in
  let l = Thc_hardware.A2m_from_trinc.create_log d in
  ignore (Thc_hardware.A2m_from_trinc.append d ~log:l "a");
  ignore (Thc_hardware.A2m_from_trinc.append d ~log:l "b");
  ignore (Thc_hardware.A2m_from_trinc.append d ~log:l "c");
  let chain = Thc_hardware.A2m_from_trinc.chain d in
  (match chain with
  | [ a; b; c ] ->
    Alcotest.(check bool) "gap rejected" true
      (Thc_hardware.A2m_from_trinc.check_chain world ~owner:2 [ a; c ] = None);
    Alcotest.(check bool) "reorder rejected" true
      (Thc_hardware.A2m_from_trinc.check_chain world ~owner:2 [ b; a; c ] = None);
    Alcotest.(check bool) "wrong owner rejected" true
      (Thc_hardware.A2m_from_trinc.check_chain world ~owner:0 chain = None)
  | _ -> Alcotest.fail "unexpected chain shape");
  Alcotest.(check bool) "empty chain fine" true
    (Thc_hardware.A2m_from_trinc.check_chain world ~owner:2 [] = Some [])

let test_reduction_end_and_lookup_bounds () =
  let world = fresh_trinc () in
  let d = Thc_hardware.A2m_from_trinc.create (Thc_hardware.Trinc.trinket world ~owner:2) in
  let l = Thc_hardware.A2m_from_trinc.create_log d in
  Alcotest.(check bool) "end of empty log" true
    (Thc_hardware.A2m_from_trinc.end_ d ~log:l = None);
  Alcotest.(check bool) "lookup out of range" true
    (Thc_hardware.A2m_from_trinc.lookup d ~log:l ~index:1 = None);
  ignore (Thc_hardware.A2m_from_trinc.append d ~log:l "x");
  match Thc_hardware.A2m_from_trinc.end_ d ~log:l with
  | Some att ->
    let _, index, value = Thc_hardware.A2m_from_trinc.entry_of_attestation att in
    Alcotest.(check (pair int string)) "end entry" (1, "x") (index, value)
  | None -> Alcotest.fail "end failed"

let () =
  Alcotest.run "thc_hardware"
    [
      ( "trinc",
        [
          Alcotest.test_case "attest/check" `Quick test_trinc_attest_and_check;
          Alcotest.test_case "monotone" `Quick test_trinc_monotone;
          Alcotest.test_case "claim once" `Quick test_trinc_claim_once;
          Alcotest.test_case "tamper detection" `Quick test_trinc_tamper_detection;
          Alcotest.test_case "counterfeit" `Quick test_trinc_counterfeit;
          Alcotest.test_case "unattested world" `Quick test_trinc_unattested_world;
          qcheck prop_trinc_no_counter_reuse;
        ] );
      ( "trinc-memo",
        [
          Alcotest.test_case "tampered still rejected" `Quick
            test_memo_tampered_still_rejected;
          Alcotest.test_case "unattested world" `Quick
            test_memo_unattested_world;
          Alcotest.test_case "ledger counts every call" `Quick
            test_memo_ledger_counts_every_call;
          Alcotest.test_case "64 KiB copy checked cheaply" `Quick
            test_memo_cost_bound;
        ] );
      ( "a2m",
        [
          Alcotest.test_case "append/lookup" `Quick test_a2m_append_lookup;
          Alcotest.test_case "end" `Quick test_a2m_end;
          Alcotest.test_case "unknown log" `Quick test_a2m_unknown_log;
          Alcotest.test_case "tamper" `Quick test_a2m_tamper;
          Alcotest.test_case "independent logs" `Quick test_a2m_multiple_logs_independent;
        ] );
      ("mono-counter", [ Alcotest.test_case "basics" `Quick test_mono_counter ]);
      ( "enclave",
        [
          Alcotest.test_case "invoke" `Quick test_enclave_invoke;
          Alcotest.test_case "chain audit" `Quick test_enclave_chain_rejects_gaps_and_reorder;
          Alcotest.test_case "tamper" `Quick test_enclave_tamper;
        ] );
      ( "a2m-from-trinc",
        [
          Alcotest.test_case "basic reduction" `Quick test_reduction_basic;
          Alcotest.test_case "doctored chains" `Quick test_reduction_rejects_doctored_chains;
          Alcotest.test_case "bounds" `Quick test_reduction_end_and_lookup_bounds;
        ] );
    ]
