(* Tests for the broadcast layer: the SRB specification monitor, the ideal
   SRB functionality, Theorem 1 (TrInc from SRB), SRB from TrInc, plain
   reliable broadcast, Algorithm 1 (SRB from unidirectional rounds) with
   Byzantine senders, NEB and Dolev-Strong. *)

let qcheck = QCheck_alcotest.to_alcotest

let fast = Thc_sim.Delay.Uniform (10L, 400L)

let keyring ?(n = 5) ?(seed = 51L) () =
  Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n

(* --- the SRB monitor on synthetic traces ---------------------------------------- *)

let scripted obs : unit Thc_sim.Engine.behavior =
  {
    init = (fun ctx -> List.iter ctx.output obs);
    on_message = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ _ -> ());
  }

let synthetic per_pid =
  let n = List.length per_pid in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~n ~net () in
  List.iteri
    (fun pid obs -> Thc_sim.Engine.set_behavior engine pid (scripted obs))
    per_pid;
  Thc_sim.Engine.run engine

let bcast seq value = Thc_sim.Obs.Srb_broadcast { seq; value }

let dlv seq value = Thc_sim.Obs.Srb_delivered { sender = 0; seq; value }

let has prop violations =
  List.exists (fun v -> v.Thc_broadcast.Srb_spec.property = prop) violations

let test_spec_clean () =
  let trace =
    synthetic [ [ bcast 1 "a"; dlv 1 "a" ]; [ dlv 1 "a" ] ]
  in
  Alcotest.(check int) "no violations" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_spec_validity () =
  let trace = synthetic [ [ bcast 1 "a"; dlv 1 "a" ]; [] ] in
  Alcotest.(check bool) "missing delivery flagged" true
    (has `Validity (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_spec_totality_and_agreement () =
  let trace =
    synthetic [ [ bcast 1 "a"; bcast 2 "b"; dlv 1 "a"; dlv 2 "b" ]; [ dlv 1 "a" ] ]
  in
  Alcotest.(check bool) "partial delivery flagged" true
    (has `Totality (Thc_broadcast.Srb_spec.check trace ~sender:0));
  let trace2 = synthetic [ [ dlv 1 "a" ]; [ dlv 1 "b" ] ] in
  Alcotest.(check bool) "conflicting delivery flagged" true
    (has `Agreement (Thc_broadcast.Srb_spec.check trace2 ~sender:0))

let test_spec_sequencing () =
  let trace = synthetic [ [ dlv 2 "b" ] ] in
  Alcotest.(check bool) "gap flagged" true
    (has `Sequencing (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_spec_integrity () =
  let trace = synthetic [ [ bcast 1 "a"; dlv 1 "forged" ] ] in
  Alcotest.(check bool) "unbroadcast delivery flagged" true
    (has `Integrity (Thc_broadcast.Srb_spec.check trace ~sender:0))

(* --- ideal SRB ---------------------------------------------------------------------- *)

let test_ideal_srb_log_and_genuine () =
  let hub = Thc_broadcast.Ideal_srb.hub ~sender:3 in
  let w1 = Thc_broadcast.Ideal_srb.broadcast hub "x" in
  let w2 = Thc_broadcast.Ideal_srb.broadcast hub "y" in
  Alcotest.(check int) "seq 1" 1 w1.seq;
  Alcotest.(check int) "seq 2" 2 w2.seq;
  Alcotest.(check (list (pair int string))) "log" [ (1, "x"); (2, "y") ]
    (Thc_broadcast.Ideal_srb.log hub);
  Alcotest.(check bool) "genuine" true (Thc_broadcast.Ideal_srb.genuine hub w1);
  Alcotest.(check bool) "fabricated wire rejected" false
    (Thc_broadcast.Ideal_srb.genuine hub
       { Thc_broadcast.Ideal_srb.sender = 3; seq = 1; value = "forged" })

let test_ideal_srb_rx_order () =
  let hub = Thc_broadcast.Ideal_srb.hub ~sender:0 in
  let w1 = Thc_broadcast.Ideal_srb.broadcast hub "a" in
  let w2 = Thc_broadcast.Ideal_srb.broadcast hub "b" in
  let rx = Thc_broadcast.Ideal_srb.Rx.create hub in
  (* Out-of-order arrival: seq 2 buffered until seq 1 arrives. *)
  (match Thc_broadcast.Ideal_srb.Rx.receive rx w2 with
  | `Fresh [] -> ()
  | _ -> Alcotest.fail "expected fresh-but-held");
  (match Thc_broadcast.Ideal_srb.Rx.receive rx w1 with
  | `Fresh [ (1, "a"); (2, "b") ] -> ()
  | _ -> Alcotest.fail "expected both released in order");
  Alcotest.(check int) "delivered upto" 2
    (Thc_broadcast.Ideal_srb.Rx.delivered_upto rx);
  (match Thc_broadcast.Ideal_srb.Rx.receive rx w1 with
  | `Stale -> ()
  | _ -> Alcotest.fail "duplicate should be stale")

(* --- Theorem 1: TrInc from SRB -------------------------------------------------------- *)

let test_trinc_from_srb_direct () =
  let n = 3 in
  let hubs = Array.init n (fun sender -> Thc_broadcast.Ideal_srb.hub ~sender) in
  let states = Array.init n (fun self -> Thc_broadcast.Trinc_from_srb.create ~hubs ~self) in
  let a1, w1 = Thc_broadcast.Trinc_from_srb.attest states.(0) ~counter:4 ~message:"m" in
  (* Everyone who receives the wire can check the attestation. *)
  for pid = 1 to n - 1 do
    ignore (Thc_broadcast.Trinc_from_srb.on_wire states.(pid) w1);
    Alcotest.(check bool) "checks true after delivery" true
      (Thc_broadcast.Trinc_from_srb.check states.(pid) a1 ~id:0);
    Alcotest.(check int) "counter table updated" 4
      (Thc_broadcast.Trinc_from_srb.counter_of states.(pid) ~id:0)
  done;
  (* Non-monotone re-attest: stored nowhere. *)
  let a2, w2 = Thc_broadcast.Trinc_from_srb.attest states.(0) ~counter:2 ~message:"m2" in
  ignore (Thc_broadcast.Trinc_from_srb.on_wire states.(1) w2);
  Alcotest.(check bool) "stale counter rejected" false
    (Thc_broadcast.Trinc_from_srb.check states.(1) a2 ~id:0);
  (* Unknown attestation: false. *)
  let fake = { a1 with Thc_broadcast.Trinc_from_srb.message = "other" } in
  Alcotest.(check bool) "fabricated rejected" false
    (Thc_broadcast.Trinc_from_srb.check states.(1) fake ~id:0)

(* --- SRB from TrInc --------------------------------------------------------------------- *)

let run_srb_from_trinc ~seed ~configure =
  let n = 4 in
  let rng = Thc_util.Rng.create seed in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st =
      Thc_broadcast.Srb_from_trinc.create ~world
        ~trinket:(Some (Thc_hardware.Trinc.trinket world ~owner:pid))
        ~n ~self:pid
    in
    let plan = if pid = 0 then [ (100L, "a"); (150L, "b"); (200L, "c") ] else [] in
    Thc_sim.Engine.set_behavior engine pid
      (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan:plan)
  done;
  configure engine;
  Thc_sim.Engine.run ~until:5_000_000L engine

let test_srb_from_trinc_clean () =
  let trace = run_srb_from_trinc ~seed:31L ~configure:(fun _ -> ()) in
  Alcotest.(check int) "no violations" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0))

let test_srb_from_trinc_echo_covers_partition () =
  (* Sender cannot reach p3 directly, but echoes get there: totality. *)
  let trace =
    run_srb_from_trinc ~seed:32L ~configure:(fun engine ->
        Thc_sim.Engine.set_link engine ~src:0 ~dst:3 Thc_sim.Net.Drop)
  in
  Alcotest.(check int) "no violations despite dead direct link" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "p3 got all three" 3
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:3))

let test_srb_from_trinc_gap () =
  (* Simpler gap check at the state-machine level. *)
  let n = 3 in
  let rng = Thc_util.Rng.create 34L in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let trinket = Thc_hardware.Trinc.trinket world ~owner:0 in
  let rx = Thc_broadcast.Srb_from_trinc.create ~world ~trinket:None ~n ~self:1 in
  ignore rx;
  (* Build attestations with a gap: counter 1, then counter 3. *)
  let a1 = Option.get (Thc_hardware.Trinc.attest trinket ~counter:1 ~message:"a") in
  let _skipped = Option.get (Thc_hardware.Trinc.attest trinket ~counter:2 ~message:"b") in
  let a3 = Option.get (Thc_hardware.Trinc.attest trinket ~counter:3 ~message:"c") in
  ignore (a1, a3);
  (* Receivers require prev = counter - 1 and contiguous release; feeding
     a1 then a3 (withholding a2) delivers only seq 1. *)
  let n' = 2 in
  let net = Thc_sim.Net.create ~n:n' ~default:(Thc_sim.Delay.Const 5L) in
  let engine = Thc_sim.Engine.create ~n:n' ~net () in
  let st = Thc_broadcast.Srb_from_trinc.create ~world ~trinket:None ~n ~self:1 in
  Thc_sim.Engine.set_behavior engine 1
    (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan:[]);
  let injector : Thc_broadcast.Srb_from_trinc.msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.send 1 (Thc_broadcast.Srb_from_trinc.wire_of_attestation a1);
          ctx.send 1 (Thc_broadcast.Srb_from_trinc.wire_of_attestation a3));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 injector;
  Thc_sim.Engine.mark_byzantine engine 0;
  let trace = Thc_sim.Engine.run ~until:100_000L engine in
  Alcotest.(check (list (pair int string))) "only the prefix delivers"
    [ (1, "a") ]
    (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:1)

let test_srb_from_trinc_concurrent_senders () =
  (* Every process broadcasts on its own trusted log concurrently; each
     sender's stream must satisfy SRB independently. *)
  let n = 4 in
  let seed = 35L in
  let rng = Thc_util.Rng.create seed in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st =
      Thc_broadcast.Srb_from_trinc.create ~world
        ~trinket:(Some (Thc_hardware.Trinc.trinket world ~owner:pid))
        ~n ~self:pid
    in
    let plan =
      List.init 3 (fun i ->
          ( Int64.of_int (100 + (i * 70) + (pid * 13)),
            Printf.sprintf "p%d-m%d" pid (i + 1) ))
    in
    Thc_sim.Engine.set_behavior engine pid
      (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan:plan)
  done;
  let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
  for sender = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "sender %d spec clean" sender)
      0
      (List.length (Thc_broadcast.Srb_spec.check trace ~sender));
    for pid = 0 to n - 1 do
      Alcotest.(check int) "3 deliveries per stream" 3
        (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender ~pid))
    done
  done

(* --- reliable broadcast ------------------------------------------------------------------ *)

let run_rb ~seed ~n ~f ~configure =
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st = Thc_broadcast.Reliable_broadcast.create ~n ~f ~self:pid ~sender:0 in
    Thc_sim.Engine.set_behavior engine pid
      (Thc_broadcast.Reliable_broadcast.behavior st
         ~broadcast_plan:[ (50L, "value") ])
  done;
  configure engine;
  Thc_sim.Engine.run ~until:5_000_000L engine

let rb_deliveries trace pid =
  List.filter_map
    (fun obs ->
      match (obs : Thc_sim.Obs.t) with
      | Rb_delivered { value; _ } -> Some value
      | _ -> None)
    (Thc_sim.Trace.outputs_of trace pid)

let test_rb_delivers_everywhere () =
  let trace = run_rb ~seed:41L ~n:4 ~f:1 ~configure:(fun _ -> ()) in
  for pid = 0 to 3 do
    Alcotest.(check (list string)) "delivered" [ "value" ] (rb_deliveries trace pid)
  done

let test_rb_requires_n_gt_3f () =
  Alcotest.check_raises "n = 3f rejected"
    (Invalid_argument "Reliable_broadcast.create: needs n > 3f") (fun () ->
      ignore (Thc_broadcast.Reliable_broadcast.create ~n:3 ~f:1 ~self:0 ~sender:0))

let test_rb_tolerates_silent_fault () =
  let trace =
    run_rb ~seed:42L ~n:4 ~f:1 ~configure:(fun engine ->
        Thc_sim.Engine.mark_byzantine engine 3;
        Thc_sim.Engine.schedule_crash engine ~pid:3 ~at:0L)
  in
  for pid = 0 to 2 do
    Alcotest.(check (list string)) "correct deliver" [ "value" ]
      (rb_deliveries trace pid)
  done

(* --- Algorithm 1: SRB from unidirectional rounds ------------------------------------------- *)

(* Algorithm 1's cell (n=5, t=2) with [driver] running every correct
   process's rounds and a ledger on the registers; [srb_uni_cell] runs it
   for 2 s of virtual time. *)
let srb_uni_engine ?tracing ~driver ~seed ~values ~configure_byz () =
  let n = 5 and faults = 2 in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ?tracing ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let ledger = Thc_obsv.Ledger.create () in
  Thc_sharedmem.Swmr.attach_ledger_all registers ledger;
  let srbs =
    Array.init n (fun pid ->
        Thc_broadcast.Srb_from_uni.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~faults)
  in
  List.iter (Thc_broadcast.Srb_from_uni.broadcast srbs.(0)) values;
  let byz = configure_byz ~keyring ~registers ~engine in
  for pid = 0 to n - 1 do
    if not (List.mem pid byz) then
      Thc_sim.Engine.set_behavior engine pid
        (driver ~registers
           ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
           (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
  done;
  (engine, srbs, ledger)

let srb_uni_cell ~driver ~seed ~values ~configure_byz =
  let engine, srbs, ledger = srb_uni_engine ~driver ~seed ~values ~configure_byz () in
  (Thc_sim.Engine.run ~until:2_000_000L ~max_events:10_000_000 engine, srbs, ledger)

let swmr_driver ~registers ~ident app = Thc_rounds.Swmr_rounds.behavior ~registers ~ident app

let run_srb_from_uni ~seed ~values ~configure_byz =
  let trace, srbs, _ = srb_uni_cell ~driver:swmr_driver ~seed ~values ~configure_byz in
  (trace, srbs)

let no_byz ~keyring:_ ~registers:_ ~engine:_ = []

let test_srb_uni_happy_path () =
  let trace, srbs =
    run_srb_from_uni ~seed:61L ~values:[ "a"; "b"; "c" ] ~configure_byz:no_byz
  in
  Alcotest.(check int) "spec clean" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check (list (pair int string))) "delivered in order at p3"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (Thc_broadcast.Srb_from_uni.delivered srbs.(3));
  Alcotest.(check int) "rounds stayed unidirectional" 0
    (List.length (Thc_rounds.Directionality.check_unidirectional trace))

let test_srb_uni_no_sender () =
  let trace, _ =
    run_srb_from_uni ~seed:62L ~values:[] ~configure_byz:no_byz
  in
  Alcotest.(check int) "nothing delivered, nothing violated" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "no deliveries" 0
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:1))

let equivocating_sender ~keyring ~registers ~engine =
  Thc_sim.Engine.mark_byzantine engine 0;
  let ident = Thc_crypto.Keyring.secret keyring ~pid:0 in
  let p1, p2 =
    Thc_broadcast.Srb_from_uni.equivocation_payloads ~ident ~k:1 "white" "black"
  in
  let byz : unit Thc_sim.Engine.behavior =
    {
      init =
        (fun _ ->
          (* Publish both conflicting payloads into the copy round (2). *)
          Thc_sharedmem.Swmr.append registers.(0) ~ident (2, p1);
          Thc_sharedmem.Swmr.append registers.(0) ~ident (2, p2));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 byz;
  [ 0 ]

let test_srb_uni_equivocation_safe () =
  let trace, srbs =
    run_srb_from_uni ~seed:63L ~values:[] ~configure_byz:equivocating_sender
  in
  (* Safety: no two correct processes deliver different values; in fact with
     a detected conflict nobody should assemble an L2 proof at all. *)
  Alcotest.(check int) "no SRB violations" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  let all_deliveries =
    List.concat_map
      (fun pid -> Thc_broadcast.Srb_from_uni.delivered srbs.(pid))
      [ 1; 2; 3; 4 ]
  in
  let distinct_values =
    List.sort_uniq compare (List.map snd all_deliveries)
  in
  Alcotest.(check bool) "at most one value delivered" true
    (List.length distinct_values <= 1)

let prop_srb_uni_schedules =
  QCheck.Test.make ~name:"Algorithm 1 satisfies SRB across schedules" ~count:10
    QCheck.int64
    (fun seed ->
      let trace, _ =
        run_srb_from_uni ~seed ~values:[ "x"; "y" ] ~configure_byz:no_byz
      in
      Thc_broadcast.Srb_spec.check trace ~sender:0 = []
      && List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:2) = 2)

let test_srb_uni_over_sticky_driver () =
  (* Algorithm 1 is driver-generic: same app over sticky-bit rounds. *)
  let n = 5 and faults = 2 in
  let seed = 64L in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let board = Thc_rounds.Sticky_rounds.create_board ~n in
  let srbs =
    Array.init n (fun pid ->
        Thc_broadcast.Srb_from_uni.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~faults)
  in
  List.iter (Thc_broadcast.Srb_from_uni.broadcast srbs.(0)) [ "x"; "y" ];
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sticky_rounds.behavior ~board
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
  done;
  let trace = Thc_sim.Engine.run ~until:2_000_000L ~max_events:10_000_000 engine in
  Alcotest.(check int) "spec clean over sticky rounds" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "both delivered at p4" 2
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:4))

let test_srb_uni_over_lockstep_driver () =
  (* Bidirectional rounds are in particular unidirectional: Algorithm 1 must
     run unchanged over the lock-step driver. *)
  let n = 5 and faults = 2 in
  let seed = 65L in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let srbs =
    Array.init n (fun pid ->
        Thc_broadcast.Srb_from_uni.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~faults)
  in
  List.iter (Thc_broadcast.Srb_from_uni.broadcast srbs.(0)) [ "x"; "y" ];
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sync_rounds.behavior ~period:1_000L
         (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
  done;
  let trace = Thc_sim.Engine.run ~until:100_000L ~max_events:10_000_000 engine in
  Alcotest.(check int) "spec clean over lock-step rounds" 0
    (List.length (Thc_broadcast.Srb_spec.check trace ~sender:0));
  Alcotest.(check int) "both delivered at p2" 2
    (List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid:2))

(* --- SWMR rounds through cursors --------------------------------------------------- *)

(* The board [Swmr_rounds] had before cursors, kept as the reference: every
   read rebuilds the whole log, and the driver's table drops what this
   process has already received. *)
let full_scan_driver ~registers ~ident app =
  let board =
    {
      Thc_rounds.Scan_rounds.publish =
        (fun ~round ~payload ->
          let self = Thc_crypto.Keyring.pid_of_secret ident in
          Thc_sharedmem.Swmr.append registers.(self) ~ident (round, payload));
      read =
        (fun j ->
          List.map
            (fun (round, payload) -> (j, round, payload))
            (Thc_sharedmem.Swmr.entries registers.(j)));
      targets = Array.length registers;
    }
  in
  Thc_rounds.Scan_rounds.behavior ~board app

(* At 1.5 ms p3 drops the newest entry of its own log; at 2.5 ms it writes
   back a copy of the whole log it had, so the dropped entry returns. *)
let rewriting_owner ~keyring ~registers ~engine =
  let ident = Thc_crypto.Keyring.secret keyring ~pid:3 in
  let log = registers.(3) in
  let before = ref [] in
  Thc_sim.Engine.at engine 1_500L (fun () ->
      before := Thc_sharedmem.Swmr.read log;
      match !before with
      | _ :: older -> Thc_sharedmem.Swmr.write log ~ident older
      | [] -> Alcotest.fail "p3 has not appended by 1.5 ms");
  Thc_sim.Engine.at engine 2_500L (fun () ->
      Thc_sharedmem.Swmr.write log ~ident (List.map Fun.id !before));
  []

let first_difference a b =
  let la = String.split_on_char '\n' a and lb = String.split_on_char '\n' b in
  let rec go i = function
    | x :: xs, y :: ys -> if String.equal x y then go (i + 1) (xs, ys) else Some (i, x, y)
    | [], [] -> None
    | x :: _, [] -> Some (i, x, "<end>")
    | [], y :: _ -> Some (i, "<end>", y)
  in
  go 1 (la, lb)

(* The cases the cursor board must run exactly as the full-scan board:
   Algorithm 1 at five seeds, a Byzantine sender equivocating in the copy
   round, and an owner rewriting its log mid-run. *)
let byzantine_cases =
  [ ("equivocating sender", 63L, equivocating_sender);
    ("owner rewrites its log", 7L, rewriting_owner) ]

let cursor_cases =
  List.map (fun seed -> (Printf.sprintf "seed %Ld" seed, seed, no_byz)) [ 1L; 2L; 3L; 4L; 5L ]
  @ byzantine_cases

let test_cursor_board_matches_full_scan () =
  List.iter
    (fun (name, seed, configure_byz) ->
      let run driver =
        let trace, _, ledger =
          srb_uni_cell ~driver ~seed ~values:[ "alpha"; "beta"; "gamma" ] ~configure_byz
        in
        (Thc_sim.Trace.to_jsonl ~encode_msg:(fun () -> "") trace, Thc_obsv.Ledger.rows ledger)
      in
      let ref_bytes, ref_rows = run full_scan_driver in
      let bytes, rows = run swmr_driver in
      (match first_difference ref_bytes bytes with
      | None -> ()
      | Some (line, a, b) ->
        Alcotest.failf "%s: traces differ at line %d:\n  full scan: %s\n  cursor:    %s"
          name line a b);
      Alcotest.(check (list (pair string int))) (name ^ ": ledger rows") ref_rows rows)
    cursor_cases

(* One process polls five registers pre-filled with 2,000 entries each for
   100 ms of virtual time, one read per virtual microsecond (~83k reads),
   while owner 1 appends one more entry every virtual millisecond through
   99 ms: a static board would let the run end at quiescence after two
   sweeps.  The cursor board hands over each entry once and took 0.06 s on
   a 2-vCPU x86 VM; the full-scan board rebuilds every log on every read
   and took 26 s there. *)
let test_cursor_polling_bound () =
  let n = 5 and prefill = 2_000 and late = 99 in
  let keyring = keyring ~n ~seed:71L () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let payload = String.make 64 'p' in
  Array.iteri
    (fun owner log ->
      let ident = Thc_crypto.Keyring.secret keyring ~pid:owner in
      for round = 1 to prefill do
        Thc_sharedmem.Swmr.append log ~ident (round, payload)
      done)
    registers;
  let received = ref 0 in
  let poller : Thc_rounds.Round_app.app =
    {
      first_payload = (fun _ -> None);
      on_receive = (fun _ ~round:_ ~from:_ _ -> incr received);
      on_round_check = (fun _ ~round:_ -> Thc_rounds.Round_app.Hold);
    }
  in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed:71L ~n ~net () in
  let one = Thc_sim.Delay.Const 1L in
  Thc_sim.Engine.set_behavior engine 0
    (Thc_rounds.Swmr_rounds.behavior ~registers
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:0)
       ~scan_delay:one ~poll_delay:one poller);
  let owner = Thc_crypto.Keyring.secret keyring ~pid:1 in
  for ms = 1 to late do
    Thc_sim.Engine.at engine (Int64.of_int (ms * 1_000)) (fun () ->
        Thc_sharedmem.Swmr.append registers.(1) ~ident:owner (prefill + ms, payload))
  done;
  let t0 = Unix.gettimeofday () in
  ignore (Thc_sim.Engine.run ~until:100_000L ~max_events:10_000_000 engine : unit Thc_sim.Trace.t);
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every entry received once" ((n * prefill) + late) !received;
  Alcotest.(check bool) ">= 80k events" true (Thc_sim.Engine.events_processed engine >= 80_000);
  if dt >= 1.0 then Alcotest.failf "polling took %.2f s" dt

(* --- the SRB monitor against its list-scanning reference --------------------------- *)

(* The [Srb_spec.check] body that matched seqs with [List.assoc_opt] across
   delivery lists, kept as the reference: the one-walk monitor must return
   exactly its violations, in its order. *)
module Reference = struct
  module S = Thc_broadcast.Srb_spec

  let check trace ~sender =
    let violations = ref [] in
    let add property info = violations := { S.property; info } :: !violations in
    let correct = Thc_sim.Trace.correct_pids trace in
    let sender_correct = Thc_sim.Trace.correct trace sender in
    let delivered = List.map (fun pid -> (pid, S.deliveries trace ~sender ~pid)) correct in
    List.iter
      (fun (pid, ds) ->
        List.iteri
          (fun i (seq, _) ->
            if seq <> i + 1 then
              add `Sequencing (Printf.sprintf "p%d delivery #%d has seq %d" pid (i + 1) seq))
          ds)
      delivered;
    List.iter
      (fun (p, dp) ->
        List.iter
          (fun (q, dq) ->
            if p < q then begin
              List.iter
                (fun (seq, v) ->
                  match List.assoc_opt seq dq with
                  | Some v' when not (String.equal v v') ->
                    add `Agreement (Printf.sprintf "p%d and p%d disagree at seq %d" p q seq)
                  | Some _ -> ()
                  | None ->
                    add `Totality
                      (Printf.sprintf "p%d delivered seq %d but p%d did not" p seq q))
                dp;
              List.iter
                (fun (seq, _) ->
                  if not (List.mem_assoc seq dp) then
                    add `Totality
                      (Printf.sprintf "p%d delivered seq %d but p%d did not" q seq p))
                dq
            end)
          delivered)
      delivered;
    if sender_correct then begin
      let bs = S.broadcasts trace ~sender in
      List.iter
        (fun (seq, value) ->
          List.iter
            (fun (pid, ds) ->
              match List.assoc_opt seq ds with
              | Some v when String.equal v value -> ()
              | Some _ ->
                add `Validity
                  (Printf.sprintf "p%d delivered a different value at seq %d" pid seq)
              | None ->
                add `Validity (Printf.sprintf "p%d never delivered broadcast seq %d" pid seq))
            delivered)
        bs;
      List.iter
        (fun (pid, ds) ->
          List.iter
            (fun (seq, value) ->
              match List.assoc_opt seq bs with
              | Some v when String.equal v value -> ()
              | Some _ | None ->
                add `Integrity
                  (Printf.sprintf "p%d delivered (%d, ...) never broadcast by p%d" pid seq
                     sender))
            ds)
        delivered
    end;
    List.rev !violations
end

let srb_violation = Alcotest.testable Thc_broadcast.Srb_spec.pp_violation ( = )

let check_srb_matches_reference name trace ~sender =
  Alcotest.(check (list srb_violation)) name
    (Reference.check trace ~sender)
    (Thc_broadcast.Srb_spec.check trace ~sender)

let test_srb_spec_matches_reference_algorithm1 () =
  List.iter
    (fun (name, seed, configure_byz) ->
      let trace, _, _ =
        srb_uni_cell ~driver:swmr_driver ~seed ~values:[ "alpha"; "beta"; "gamma" ]
          ~configure_byz
      in
      check_srb_matches_reference name trace ~sender:0)
    cursor_cases

(* n = 5.  [sender] broadcasts seqs 1, 2, 3, 2 again with another value, and
   5; another sender broadcasts seq 6.  p0 delivers cleanly, p1 out of
   order, p2 seq 2 twice (a wrong value first), p3 only seq 1 and p4 an
   unbroadcast seq 4; p0 and p3 also deliver from the other sender.  The
   crashes come after every output. *)
let srb_hand_trace ~sender ~byzantine ~crashed =
  let other = sender + 1 in
  let d ?(from = sender) pid seq value =
    (pid, Thc_sim.Obs.Srb_delivered { sender = from; seq; value })
  in
  let b seq value = (sender, Thc_sim.Obs.Srb_broadcast { seq; value }) in
  let outputs =
    [ b 1 "a"; d 0 1 "a"; d 1 1 "a"; d 2 1 "a"; d 3 1 "a"; d 4 1 "a";
      b 2 "b"; b 3 "c"; d 0 2 "b"; d 1 3 "c"; d 2 2 "x"; d 4 2 "b";
      d ~from:other 0 9 "z"; d 0 3 "c"; d 1 2 "b"; d 2 2 "b"; d 4 3 "c";
      b 2 "b'"; d 4 4 "d"; b 5 "e"; d ~from:other 3 2 "b";
      (other, Thc_sim.Obs.Srb_broadcast { seq = 6; value = "f" }) ]
  in
  let entries =
    List.mapi
      (fun i (pid, obs) -> Thc_sim.Trace.Output { time = Int64.of_int i; pid; obs })
      outputs
    @ List.map (fun pid -> Thc_sim.Trace.Crashed { time = 100L; pid }) crashed
  in
  { Thc_sim.Trace.n = 5; byzantine; entries; end_time = 101L }

let test_srb_spec_matches_reference_hand_built () =
  let cases =
    [
      ("fault-free", 0, [], []);
      ("byzantine p3, p1 crashed", 0, [ 3 ], [ 1 ]);
      ("byzantine sender", 0, [ 0 ], []);
      ("crashed sender", 0, [], [ 0 ]);
      ("sender p7 >= n", 7, [], []);
      ("sender p7 crashed", 7, [], [ 7 ]);
      ("sender p7 byzantine", 7, [ 7 ], []);
      ("sender p2, p4 crashed", 2, [], [ 4 ]);
    ]
  in
  let kinds =
    List.concat_map
      (fun (name, sender, byzantine, crashed) ->
        let trace = srb_hand_trace ~sender ~byzantine ~crashed in
        check_srb_matches_reference name trace ~sender;
        List.map
          (fun (v : Thc_broadcast.Srb_spec.violation) -> v.property)
          (Thc_broadcast.Srb_spec.check trace ~sender))
      cases
  in
  List.iter
    (fun kind ->
      Alcotest.(check bool) "every violation kind covered" true (List.mem kind kinds))
    [ `Validity; `Totality; `Sequencing; `Integrity; `Agreement ];
  (* p2 delivers seq 2 as "x" and then as "b": its first delivery decides,
     so it disagrees with p0 there, where a last-wins index would not. *)
  Alcotest.(check bool) "first delivery of a seq decides" true
    (List.exists
       (fun (v : Thc_broadcast.Srb_spec.violation) -> v.info = "p0 and p2 disagree at seq 2")
       (Thc_broadcast.Srb_spec.check (srb_hand_trace ~sender:0 ~byzantine:[] ~crashed:[])
          ~sender:0))

(* Five processes each deliver the sender's 20,000 broadcasts.  The
   reference's pairwise [List.assoc_opt] matching is quadratic here: it took
   67 s on a 2-vCPU x86 VM, the one-walk monitor 0.09 s. *)
let test_srb_spec_linear_at_scale () =
  let n = 5 and seqs = 20_000 in
  let entries = ref [] and clock = ref 0L in
  let push pid obs =
    clock := Int64.succ !clock;
    entries := Thc_sim.Trace.Output { time = !clock; pid; obs } :: !entries
  in
  for seq = 1 to seqs do
    let value = string_of_int seq in
    push 0 (Thc_sim.Obs.Srb_broadcast { seq; value });
    for pid = 0 to n - 1 do
      push pid (Thc_sim.Obs.Srb_delivered { sender = 0; seq; value })
    done
  done;
  let trace : unit Thc_sim.Trace.t =
    { n; byzantine = []; entries = List.rev !entries; end_time = !clock }
  in
  let t0 = Unix.gettimeofday () in
  let violations = Thc_broadcast.Srb_spec.check trace ~sender:0 in
  let dt = Unix.gettimeofday () -. t0 in
  Alcotest.(check (list srb_violation)) "clean" [] violations;
  if dt >= 1.0 then Alcotest.failf "check took %.2f s" dt

(* --- runs that end at quiescence ------------------------------------------------------ *)

(* The register rounds before runs ended at quiescence, kept as the
   reference: every [Scan_rounds] timer re-armed as a plain timer, which
   counts as a change, and the quiet declaration a no-op, so the run polls
   on to its horizon.  A behavior runs at one pid, whose ctx never changes. *)
let polls_as_timers (b : 'm Thc_sim.Engine.behavior) : 'm Thc_sim.Engine.behavior =
  let plain = ref None in
  let wrap (ctx : 'm Thc_sim.Engine.ctx) =
    match !plain with
    | Some c -> c
    | None ->
      let c = { ctx with set_poll = ctx.set_timer; quiet = ignore } in
      plain := Some c;
      c
  in
  {
    init = (fun ctx -> b.init (wrap ctx));
    on_message = (fun ctx ~src m -> b.on_message (wrap ctx) ~src m);
    on_timer = (fun ctx tag -> b.on_timer (wrap ctx) tag);
  }

let reference_of driver ~registers ~ident app = polls_as_timers (driver ~registers ~ident app)

(* Algorithm 1's witness cell: three values, by default to the witness's
   20 s horizon. *)
let witness_run ?tracing ?(driver = swmr_driver) ?(until = 20_000_000L) ~seed configure_byz =
  let engine, _, _ =
    srb_uni_engine ?tracing ~driver ~seed ~values:[ "alpha"; "beta"; "gamma" ] ~configure_byz ()
  in
  let trace = Thc_sim.Engine.run ~until ~max_events:10_000_000 engine in
  (trace, engine)

let ending =
  Alcotest.testable
    (fun ppf e ->
      Format.pp_print_string ppf
        (match e with
        | Some Thc_sim.Engine.Drained -> "drained"
        | Some Quiescent -> "quiescent"
        | Some Horizon -> "horizon"
        | None -> "running"))
    ( = )

let check_ended name expected engine =
  Alcotest.(check ending) (name ^ ": ended by") (Some expected) (Thc_sim.Engine.ended_by engine)

(* [to_jsonl] without its header line, which carries the end time. *)
let entry_jsonl trace =
  let s = Thc_sim.Trace.to_jsonl ~encode_msg:(fun () -> "") trace in
  let cut = String.index s '\n' + 1 in
  String.sub s cut (String.length s - cut)

(* The quiescent trace is an entry-for-entry prefix of the reference, the
   reference's remainder is polling only, and the SRB verdicts agree. *)
let check_prefix_of_reference name ~quiescent ~reference =
  let k = List.length quiescent.Thc_sim.Trace.entries in
  let rec split i acc rest =
    if i = k then (List.rev acc, rest)
    else
      match rest with
      | e :: rest -> split (i + 1) (e :: acc) rest
      | [] -> Alcotest.failf "%s: the reference has fewer than %d entries" name k
  in
  let prefix, rest = split 0 [] reference.Thc_sim.Trace.entries in
  (match
     first_difference (entry_jsonl { reference with entries = prefix }) (entry_jsonl quiescent)
   with
  | None -> ()
  | Some (line, a, b) ->
    Alcotest.failf "%s: traces differ at entry %d:\n  reference: %s\n  quiescent: %s" name
      line a b);
  Alcotest.(check (list int)) (name ^ ": byzantine") reference.byzantine quiescent.byzantine;
  Alcotest.(check bool) (name ^ ": the reference polls on") true (rest <> []);
  List.iter
    (function
      | Thc_sim.Trace.Timer_fired _ -> ()
      | _ -> Alcotest.failf "%s: the reference changes after the quiescent end" name)
    rest;
  Alcotest.(check (list srb_violation)) (name ^ ": verdict")
    (Thc_broadcast.Srb_spec.check reference ~sender:0)
    (Thc_broadcast.Srb_spec.check quiescent ~sender:0)

(* The witness's seeds and the Byzantine cursor cases.  Seed 1 runs to the
   witness's 20 s horizon.  The others stop at [srb_uni_cell]'s 2 s, still
   some 400 times the span a settled cell needs: each 20 s reference polls
   through ~2M events, about 0.9 s on a 2-vCPU x86 VM. *)
let test_quiescent_matches_reference () =
  List.iter
    (fun (name, until, seed, configure_byz) ->
      let quiescent, engine = witness_run ~until ~seed configure_byz in
      let reference, ref_engine =
        witness_run ~driver:(reference_of swmr_driver) ~until ~seed configure_byz
      in
      check_ended name Quiescent engine;
      check_ended (name ^ " reference") Horizon ref_engine;
      check_prefix_of_reference name ~quiescent ~reference)
    (("seed 1", 20_000_000L, 1L, no_byz)
     :: List.map
          (fun (name, seed, byz) -> (name, 2_000_000L, seed, byz))
          (List.map (fun seed -> (Printf.sprintf "seed %Ld" seed, seed, no_byz))
             [ 7L; 42L; 1337L; 99991L ]
          @ byzantine_cases))

(* A quiescent run and its reference to [until] give the same outputs. *)
let same_outputs_as_reference ?(driver = swmr_driver) ~until ~seed name configure_byz =
  let quiescent, engine = witness_run ~driver ~until ~seed configure_byz in
  let reference, _ = witness_run ~driver:(reference_of driver) ~until ~seed configure_byz in
  check_ended name Quiescent engine;
  Alcotest.(check bool) (name ^ ": outputs") true
    (Thc_sim.Trace.outputs quiescent = Thc_sim.Trace.outputs reference);
  quiescent

let reader_pids = [ 1; 2; 3; 4 ]

(* Owner 4's register gets one more entry at 50 ms, long after the cell
   settles: every correct reader must still take it in. *)
let test_quiescence_waits_for_script () =
  let received = Hashtbl.create 8 in
  let recording ~registers ~ident (app : Thc_rounds.Round_app.app) =
    swmr_driver ~registers ~ident
      {
        app with
        on_receive =
          (fun h ~round ~from payload ->
            if payload = "late" then Hashtbl.replace received h.self (h.now ());
            app.on_receive h ~round ~from payload);
      }
  in
  let late_append ~keyring ~registers ~engine =
    let ident = Thc_crypto.Keyring.secret keyring ~pid:4 in
    Thc_sim.Engine.at engine 50_000L (fun () ->
        Thc_sharedmem.Swmr.append registers.(4) ~ident (99, "late"));
    []
  in
  let quiescent, _ = witness_run ~driver:recording ~seed:1L late_append in
  List.iter
    (fun pid ->
      match Hashtbl.find_opt received pid with
      | Some time when time >= 50_000L -> ()
      | Some _ | None -> Alcotest.failf "p%d never read the late entry" pid)
    (0 :: reader_pids);
  Alcotest.(check bool) "ends after the append" true (quiescent.end_time > 50_000L);
  ignore (same_outputs_as_reference ~driver:recording ~until:200_000L ~seed:1L "late append" late_append)

(* A Byzantine sender stays silent until a plain timer it armed at start
   fires at 30 ms, then publishes one signed value for seq 1. *)
let late_sender ~keyring ~registers ~engine =
  Thc_sim.Engine.mark_byzantine engine 0;
  let ident = Thc_crypto.Keyring.secret keyring ~pid:0 in
  let payload, _ =
    Thc_broadcast.Srb_from_uni.equivocation_payloads ~ident ~k:1 "late" "late"
  in
  let byz : unit Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.set_timer ~delay:30_000L ~tag:0);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> Thc_sharedmem.Swmr.append registers.(0) ~ident (1, payload));
    }
  in
  Thc_sim.Engine.set_behavior engine 0 byz;
  [ 0 ]

let test_quiescence_waits_for_timer () =
  let trace = same_outputs_as_reference ~until:200_000L ~seed:1L "late sender" late_sender in
  List.iter
    (fun pid ->
      Alcotest.(check (list (pair int string)))
        (Printf.sprintf "p%d delivered the late value" pid)
        [ (1, "late") ]
        (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid))
    reader_pids;
  Alcotest.(check bool) "ends after the timer" true (trace.end_time > 30_000L)

let crashes_p3 at ~keyring:_ ~registers:_ ~engine =
  Thc_sim.Engine.schedule_crash engine ~pid:3 ~at;
  []

(* A crash scheduled at 40 ms keeps the settled cell running to it. *)
let test_quiescence_waits_for_crash () =
  let trace =
    same_outputs_as_reference ~until:200_000L ~seed:1L "late crash" (crashes_p3 40_000L)
  in
  Alcotest.(check (list int)) "p3 crashed" [ 3 ]
    (List.filter_map
       (function
         | Thc_sim.Trace.Crashed { time = 40_000L; pid } -> Some pid
         | _ -> None)
       trace.entries)

(* p3 pauses 10 s between sweeps and crashes at 40 ms with that poll still
   pending: the run must end soon after the crash, not when the poll pops. *)
let test_quiescence_ignores_crashed_polls () =
  let slow_p3 ~registers ~ident app =
    let poll_delay =
      if Thc_crypto.Keyring.pid_of_secret ident = 3 then Some (Thc_sim.Delay.Const 10_000_000L)
      else None
    in
    Thc_rounds.Swmr_rounds.behavior ~registers ~ident ?poll_delay app
  in
  let trace =
    same_outputs_as_reference ~driver:slow_p3 ~until:200_000L ~seed:1L "slow p3"
      (crashes_p3 40_000L)
  in
  Alcotest.(check bool) "ends after the crash, before p3's poll" true
    (trace.end_time > 40_000L && trace.end_time < 100_000L)

(* Every process stops after three rounds of chatter: the queue drains. *)
let test_quiescence_drained () =
  let n = 5 in
  let keyring = keyring ~n ~seed:73L () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let engine = Thc_sim.Engine.create ~seed:73L ~n ~net:(Thc_sim.Net.create ~n ~default:fast) () in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (swmr_driver ~registers
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         {
           first_payload = (fun _ -> Some "r1");
           on_receive = (fun _ ~round:_ ~from:_ _ -> ());
           on_round_check =
             (fun _ ~round ->
               if round >= 3 then Thc_rounds.Round_app.Stop
               else Thc_rounds.Round_app.Advance (Some (Printf.sprintf "r%d" (round + 1))));
         })
  done;
  ignore (Thc_sim.Engine.run ~until:20_000_000L engine : unit Thc_sim.Trace.t);
  check_ended "chatter" Drained engine

(* Tracing changes only what is recorded, so the stop lands on the same
   event in every mode. *)
let test_quiescence_tracing_modes () =
  let stop tracing =
    let _, engine = witness_run ~tracing ~seed:1L no_byz in
    check_ended "witness cell" Quiescent engine;
    (Thc_sim.Engine.events_processed engine, Thc_sim.Engine.now engine)
  in
  let full = stop Thc_sim.Engine.Full in
  Alcotest.(check (pair int int64)) "outputs-only" full (stop Thc_sim.Engine.Outputs_only);
  Alcotest.(check (pair int int64)) "off" full (stop Thc_sim.Engine.Off)

(* Random Algorithm 1 cells (n in {3, 5, 7}, 1-3 values, each process with
   its own scan and poll delay) run to 200 ms: ending at quiescence must
   keep every output of the run that polls on to the horizon.  A rule that
   ends the run after one quiet sweep per process loses outputs in about
   1% of these cells, so 300 cases catch it in most runs. *)
let prop_quiescent_outputs =
  let cell =
    QCheck.(
      quad int64
        (oneofl ~print:string_of_int [ 3; 5; 7 ])
        (int_range 1 3)
        (list_of_size (Gen.return 7) (pair (int_range 1 2_000) (int_range 1 2_000))))
  in
  QCheck.Test.make ~name:"quiescent runs keep every output" ~count:300 cell
    (fun (seed, n, values, delays) ->
      let run wrap =
        let keyring = keyring ~n ~seed () in
        let net = Thc_sim.Net.create ~n ~default:fast in
        let engine = Thc_sim.Engine.create ~tracing:Outputs_only ~seed ~n ~net () in
        let registers = Thc_sharedmem.Swmr.log_array ~n in
        let srbs =
          Array.init n (fun pid ->
              Thc_broadcast.Srb_from_uni.create ~keyring
                ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                ~sender:0 ~faults:((n - 1) / 2))
        in
        for i = 1 to values do
          Thc_broadcast.Srb_from_uni.broadcast srbs.(0) (string_of_int i)
        done;
        List.iteri
          (fun pid (scan, poll) ->
            if pid < n then
              Thc_sim.Engine.set_behavior engine pid
                (wrap
                   (Thc_rounds.Swmr_rounds.behavior ~registers
                      ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                      ~scan_delay:(Thc_sim.Delay.Uniform (1L, Int64.of_int scan))
                      ~poll_delay:(Thc_sim.Delay.Const (Int64.of_int poll))
                      (Thc_broadcast.Srb_from_uni.app srbs.(pid)))))
          delays;
        Thc_sim.Trace.outputs (Thc_sim.Engine.run ~until:200_000L engine : unit Thc_sim.Trace.t)
      in
      run Fun.id = run polls_as_timers)

(* --- NEB -------------------------------------------------------------------------------- *)

let run_neb ~seed ~sender_input ~byz_equivocator =
  let n = 4 in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let states =
    Array.init n (fun pid ->
        Thc_broadcast.Neb.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0
          ~input:(if pid = 0 then sender_input else None))
  in
  let first = if byz_equivocator then 1 else 0 in
  for pid = first to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Swmr_rounds.behavior ~registers
         ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
         (Thc_broadcast.Neb.app states.(pid)))
  done;
  if byz_equivocator then begin
    Thc_sim.Engine.mark_byzantine engine 0;
    let ident = Thc_crypto.Keyring.secret keyring ~pid:0 in
    let p1, p2 = Thc_broadcast.Neb.equivocation_payloads ~ident "yes" "no" in
    let byz : unit Thc_sim.Engine.behavior =
      {
        init =
          (fun _ ->
            Thc_sharedmem.Swmr.append registers.(0) ~ident (1, p1);
            Thc_sharedmem.Swmr.append registers.(0) ~ident (1, p2));
        on_message = (fun _ ~src:_ _ -> ());
        on_timer = (fun _ _ -> ());
      }
    in
    Thc_sim.Engine.set_behavior engine 0 byz
  end;
  let trace = Thc_sim.Engine.run ~until:10_000_000L engine in
  (trace, states)

let test_neb_correct_sender () =
  let _, states = run_neb ~seed:71L ~sender_input:(Some "go") ~byz_equivocator:false in
  for pid = 0 to 3 do
    match Thc_broadcast.Neb.committed states.(pid) with
    | Some (Some "go") -> ()
    | _ -> Alcotest.failf "p%d did not commit the sender's value" pid
  done

let test_neb_equivocating_sender () =
  let _, states = run_neb ~seed:72L ~sender_input:None ~byz_equivocator:true in
  (* Correct processes commit the same value or ⊥; never two different
     non-⊥ values. *)
  let decisions =
    List.filter_map
      (fun pid ->
        match Thc_broadcast.Neb.committed states.(pid) with
        | Some d -> Some d
        | None -> None)
      [ 1; 2; 3 ]
  in
  let non_bot = List.sort_uniq compare (List.filter_map Fun.id decisions) in
  Alcotest.(check bool) "agreement up to bot" true (List.length non_bot <= 1)

(* --- Dolev-Strong ------------------------------------------------------------------------- *)

let run_ds ~seed ~n ~f ~sender_behavior =
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let states =
    Array.init n (fun pid ->
        Thc_broadcast.Dolev_strong.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~f
          ~input:(if pid = 0 then Some "v" else None))
  in
  for pid = 0 to n - 1 do
    match sender_behavior with
    | Some b when pid = 0 ->
      Thc_sim.Engine.mark_byzantine engine 0;
      Thc_sim.Engine.set_behavior engine 0 b
    | _ ->
      Thc_sim.Engine.set_behavior engine pid
        (Thc_rounds.Sync_rounds.behavior ~period:1_000L
           (Thc_broadcast.Dolev_strong.app states.(pid)))
  done;
  (Thc_sim.Engine.run ~until:60_000L engine, states)

let test_ds_correct_sender () =
  let trace, _ = run_ds ~seed:81L ~n:4 ~f:1 ~sender_behavior:None in
  List.iter
    (fun pid ->
      match Thc_sim.Trace.decision_of trace pid with
      | Some (Some "v") -> ()
      | _ -> Alcotest.failf "p%d did not commit v" pid)
    [ 0; 1; 2; 3 ]

let test_ds_silent_sender () =
  let silent : Thc_rounds.Sync_rounds.msg Thc_sim.Engine.behavior =
    Thc_sim.Engine.no_op
  in
  let trace, _ = run_ds ~seed:82L ~n:4 ~f:1 ~sender_behavior:(Some silent) in
  List.iter
    (fun pid ->
      match Thc_sim.Trace.decision_of trace pid with
      | Some None -> ()
      | _ -> Alcotest.failf "p%d should commit ⊥ for a silent sender" pid)
    [ 1; 2; 3 ]

let test_ds_equivocating_sender () =
  (* The Byzantine sender signs two values and sends each chain to one half
     of the cluster in round 1.  Signature-chain relaying over the remaining
     f rounds must still produce agreement: everyone extracts both values
     and commits ⊥, or everyone commits the same single value. *)
  let n = 4 and f = 1 in
  let keyring = keyring ~n ~seed:83L () in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed:83L ~n ~net () in
  let states =
    Array.init n (fun pid ->
        Thc_broadcast.Dolev_strong.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~f ~input:None)
  in
  for pid = 1 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_rounds.Sync_rounds.behavior ~period:1_000L
         (Thc_broadcast.Dolev_strong.app states.(pid)))
  done;
  Thc_sim.Engine.mark_byzantine engine 0;
  let ident0 = Thc_crypto.Keyring.secret keyring ~pid:0 in
  (* Build the two conflicting initial chains through the honest code path:
     two Dolev_strong instances sharing the sender identity. *)
  let mk value =
    let st =
      Thc_broadcast.Dolev_strong.create ~keyring ~ident:ident0 ~sender:0 ~f
        ~input:(Some value)
    in
    match Thc_broadcast.Dolev_strong.initial_chain st with
    | Some c -> Thc_util.Codec.encode [ c ]
    | None -> assert false
  in
  let payload_a = mk "A" and payload_b = mk "B" in
  let byz : Thc_rounds.Sync_rounds.msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.send 1 (Thc_rounds.Sync_rounds.inject ~round:1 ~payload:payload_a);
          ctx.send 2 (Thc_rounds.Sync_rounds.inject ~round:1 ~payload:payload_a);
          ctx.send 3 (Thc_rounds.Sync_rounds.inject ~round:1 ~payload:payload_b));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 byz;
  let trace = Thc_sim.Engine.run ~until:60_000L engine in
  let decisions =
    List.filter_map (fun pid -> Thc_sim.Trace.decision_of trace pid) [ 1; 2; 3 ]
  in
  Alcotest.(check int) "everyone decided" 3 (List.length decisions);
  (match List.sort_uniq compare decisions with
  | [ _ ] -> ()
  | ds -> Alcotest.failf "agreement broken: %d distinct decisions" (List.length ds))

let () =
  Alcotest.run "thc_broadcast"
    [
      ( "srb-spec",
        [
          Alcotest.test_case "clean" `Quick test_spec_clean;
          Alcotest.test_case "validity" `Quick test_spec_validity;
          Alcotest.test_case "totality/agreement" `Quick test_spec_totality_and_agreement;
          Alcotest.test_case "sequencing" `Quick test_spec_sequencing;
          Alcotest.test_case "integrity" `Quick test_spec_integrity;
        ] );
      ( "ideal-srb",
        [
          Alcotest.test_case "log/genuine" `Quick test_ideal_srb_log_and_genuine;
          Alcotest.test_case "rx ordering" `Quick test_ideal_srb_rx_order;
        ] );
      ( "trinc-from-srb",
        [ Alcotest.test_case "theorem 1 direct" `Quick test_trinc_from_srb_direct ] );
      ( "srb-from-trinc",
        [
          Alcotest.test_case "clean" `Quick test_srb_from_trinc_clean;
          Alcotest.test_case "echo covers dead link" `Quick test_srb_from_trinc_echo_covers_partition;
          Alcotest.test_case "gap never delivers" `Quick test_srb_from_trinc_gap;
          Alcotest.test_case "concurrent senders" `Quick test_srb_from_trinc_concurrent_senders;
        ] );
      ( "reliable-broadcast",
        [
          Alcotest.test_case "delivers" `Quick test_rb_delivers_everywhere;
          Alcotest.test_case "bound enforced" `Quick test_rb_requires_n_gt_3f;
          Alcotest.test_case "silent fault" `Quick test_rb_tolerates_silent_fault;
        ] );
      ( "srb-from-uni",
        [
          Alcotest.test_case "happy path" `Quick test_srb_uni_happy_path;
          Alcotest.test_case "no sender" `Quick test_srb_uni_no_sender;
          Alcotest.test_case "equivocation safe" `Quick test_srb_uni_equivocation_safe;
          Alcotest.test_case "over sticky driver" `Quick test_srb_uni_over_sticky_driver;
          Alcotest.test_case "over lock-step driver" `Quick test_srb_uni_over_lockstep_driver;
          qcheck prop_srb_uni_schedules;
        ] );
      ( "cursor-rounds",
        [
          Alcotest.test_case "same run as full scan" `Quick test_cursor_board_matches_full_scan;
          Alcotest.test_case "polling bound" `Quick test_cursor_polling_bound;
        ] );
      ( "quiescence",
        [
          Alcotest.test_case "matches the polling reference" `Quick
            test_quiescent_matches_reference;
          Alcotest.test_case "waits for a script" `Quick test_quiescence_waits_for_script;
          Alcotest.test_case "waits for a plain timer" `Quick test_quiescence_waits_for_timer;
          Alcotest.test_case "waits for a crash" `Quick test_quiescence_waits_for_crash;
          Alcotest.test_case "ignores a crashed poller" `Quick
            test_quiescence_ignores_crashed_polls;
          Alcotest.test_case "drained queue" `Quick test_quiescence_drained;
          Alcotest.test_case "same stop in every tracing mode" `Quick
            test_quiescence_tracing_modes;
          qcheck prop_quiescent_outputs;
        ] );
      ( "linear-monitor",
        [
          Alcotest.test_case "match reference on Algorithm 1" `Quick
            test_srb_spec_matches_reference_algorithm1;
          Alcotest.test_case "match reference on hand-built" `Quick
            test_srb_spec_matches_reference_hand_built;
          Alcotest.test_case "linear at scale" `Quick test_srb_spec_linear_at_scale;
        ] );
      ( "neb",
        [
          Alcotest.test_case "correct sender" `Quick test_neb_correct_sender;
          Alcotest.test_case "equivocating sender" `Quick test_neb_equivocating_sender;
        ] );
      ( "dolev-strong",
        [
          Alcotest.test_case "correct sender" `Quick test_ds_correct_sender;
          Alcotest.test_case "silent sender" `Quick test_ds_silent_sender;
          Alcotest.test_case "equivocating sender" `Quick test_ds_equivocating_sender;
        ] );
    ]
