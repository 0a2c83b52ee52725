(* Tests for the agreement layer: the specification monitors and the
   protocols for the paper's three agreement variants. *)

let qcheck = QCheck_alcotest.to_alcotest

let fast = Thc_sim.Delay.Uniform (10L, 400L)

let keyring ?(n = 5) ?(seed = 91L) () =
  Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n

(* --- the spec monitors on synthetic traces -------------------------------------- *)

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

let decided v = Thc_sim.Obs.Decided v

let has prop violations =
  List.exists (fun v -> v.Thc_agreement.Agreement_spec.property = prop) violations

let inputs_of l = Array.of_list (List.map (fun v -> Some v) l)

let test_spec_termination () =
  let trace = synthetic [ [ decided (Some "v") ]; [] ] in
  Alcotest.(check bool) "missing decision flagged" true
    (has `Termination
       (Thc_agreement.Agreement_spec.check `Weak
          ~inputs:(inputs_of [ "v"; "v" ])
          trace))

let test_spec_agreement_weak () =
  let trace = synthetic [ [ decided (Some "a") ]; [ decided (Some "b") ] ] in
  Alcotest.(check bool) "weak flags disagreement" true
    (has `Agreement
       (Thc_agreement.Agreement_spec.check `Weak
          ~inputs:(inputs_of [ "a"; "b" ])
          trace))

let test_spec_agreement_very_weak_allows_bot () =
  (* Inputs differ, so the validity clause does not apply; agreement up to
     ⊥ accepts a value alongside ⊥. *)
  let trace = synthetic [ [ decided (Some "a") ]; [ decided None ] ] in
  Alcotest.(check int) "⊥ is compatible with a value" 0
    (List.length
       (Thc_agreement.Agreement_spec.check `Very_weak
          ~inputs:(inputs_of [ "a"; "b" ])
          trace))

let test_spec_very_weak_validity_needs_all_correct () =
  (* A fault present: very-weak validity imposes nothing, ⊥ everywhere ok. *)
  let n = 2 in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~n ~net () in
  Thc_sim.Engine.set_behavior engine 0 (scripted [ decided None ]);
  Thc_sim.Engine.set_behavior engine 1 (scripted []);
  Thc_sim.Engine.mark_byzantine engine 1;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "no validity violation with a fault" 0
    (List.length
       (Thc_agreement.Agreement_spec.check `Very_weak
          ~inputs:(inputs_of [ "v"; "v" ])
          trace))

let test_spec_very_weak_validity_enforced_when_clean () =
  let trace = synthetic [ [ decided None ]; [ decided None ] ] in
  Alcotest.(check bool) "all-correct common input must be decided" true
    (has `Validity
       (Thc_agreement.Agreement_spec.check `Very_weak
          ~inputs:(inputs_of [ "v"; "v" ])
          trace))

let test_spec_strong_validity_over_correct_only () =
  (* Byzantine input differs; correct processes share "v" and decide it. *)
  let n = 3 in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~n ~net () in
  Thc_sim.Engine.set_behavior engine 0 (scripted [ decided (Some "v") ]);
  Thc_sim.Engine.set_behavior engine 1 (scripted [ decided (Some "v") ]);
  Thc_sim.Engine.set_behavior engine 2 (scripted []);
  Thc_sim.Engine.mark_byzantine engine 2;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "strong validity satisfied" 0
    (List.length
       (Thc_agreement.Agreement_spec.check `Strong
          ~inputs:(inputs_of [ "v"; "v"; "w" ])
          trace));
  (* And violated if a correct process strays. *)
  let trace2 = synthetic [ [ decided (Some "v") ]; [ decided (Some "x") ] ] in
  Alcotest.(check bool) "stray decision flagged" true
    (has `Validity
       (Thc_agreement.Agreement_spec.check `Strong
          ~inputs:(inputs_of [ "v"; "v" ])
          trace2))

(* --- very weak agreement over unidirectional rounds ------------------------------- *)

let run_very_weak ~seed ~inputs ~byz =
  let n = Array.length inputs in
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let states =
    Array.map (fun input -> Thc_agreement.Very_weak.create ~input) inputs
  in
  Array.iteri
    (fun pid st ->
      if not (List.mem pid byz) then
        Thc_sim.Engine.set_behavior engine pid
          (Thc_rounds.Swmr_rounds.behavior ~registers
             ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
             (Thc_agreement.Very_weak.app st)))
    states;
  List.iter (fun pid -> Thc_sim.Engine.mark_byzantine engine pid) byz;
  (engine, registers, keyring, states)

let finish engine = Thc_sim.Engine.run ~until:5_000_000L engine

let test_very_weak_common_input () =
  let engine, _, _, states =
    run_very_weak ~seed:101L ~inputs:(Array.make 4 "v") ~byz:[]
  in
  let trace = finish engine in
  Alcotest.(check int) "spec satisfied" 0
    (List.length
       (Thc_agreement.Agreement_spec.check `Very_weak
          ~inputs:(Array.make 4 (Some "v"))
          trace));
  Array.iter
    (fun st ->
      match Thc_agreement.Very_weak.committed st with
      | Some (Some "v") -> ()
      | _ -> Alcotest.fail "common input not decided")
    states

let test_very_weak_mixed_inputs () =
  let inputs = [| "a"; "a"; "b"; "b" |] in
  let engine, _, _, _ = run_very_weak ~seed:102L ~inputs ~byz:[] in
  let trace = finish engine in
  Alcotest.(check int) "agreement up to ⊥ holds" 0
    (List.length
       (Thc_agreement.Agreement_spec.check `Very_weak
          ~inputs:(Array.map (fun v -> Some v) inputs)
          trace))

let test_very_weak_byzantine_equivocator () =
  (* The Byzantine process publishes two different round-1 values directly
     into its register; correct processes still satisfy the spec. *)
  let inputs = [| "v"; "v"; "v"; "v" |] in
  let engine, registers, keyring, _ =
    run_very_weak ~seed:103L ~inputs ~byz:[ 3 ]
  in
  let ident = Thc_crypto.Keyring.secret keyring ~pid:3 in
  let byz : unit Thc_sim.Engine.behavior =
    {
      init =
        (fun _ ->
          Thc_sharedmem.Swmr.append registers.(3) ~ident (1, "v");
          Thc_sharedmem.Swmr.append registers.(3) ~ident (1, "w"));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 3 byz;
  let trace = finish engine in
  Alcotest.(check int) "agreement survives equivocation" 0
    (List.length
       (Thc_agreement.Agreement_spec.check `Very_weak
          ~inputs:(Array.map (fun v -> Some v) inputs)
          trace))

let prop_very_weak_agreement_random =
  QCheck.Test.make ~name:"very weak agreement over random inputs/schedules"
    ~count:20
    QCheck.(pair int64 (list_of_size (Gen.return 4) (int_bound 1)))
    (fun (seed, ins) ->
      QCheck.assume (List.length ins = 4);
      let inputs = Array.of_list (List.map string_of_int ins) in
      let engine, _, _, _ = run_very_weak ~seed ~inputs ~byz:[] in
      let trace = finish engine in
      Thc_agreement.Agreement_spec.check `Very_weak
        ~inputs:(Array.map (fun v -> Some v) inputs)
        trace
      = [])

(* --- strong validity over bidirectional rounds ------------------------------------ *)

let run_strong ~seed ~n ~f ~inputs ~byz =
  let keyring = keyring ~n ~seed () in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L)) in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  Array.iteri
    (fun pid input ->
      if List.mem pid byz then begin
        Thc_sim.Engine.mark_byzantine engine pid;
        Thc_sim.Engine.set_behavior engine pid Thc_sim.Engine.no_op
      end
      else
        Thc_sim.Engine.set_behavior engine pid
          (Thc_rounds.Sync_rounds.behavior ~period:1_000L
             (Thc_agreement.Strong_validity.app
                (Thc_agreement.Strong_validity.create ~keyring
                   ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                   ~n ~f ~input))))
    inputs;
  Thc_sim.Engine.run ~until:60_000L engine

let test_strong_common_correct_input () =
  let n = 5 and f = 2 in
  let inputs = [| "c"; "c"; "c"; "x"; "y" |] in
  let trace = run_strong ~seed:111L ~n ~f ~inputs ~byz:[ 3; 4 ] in
  Alcotest.(check int) "strong validity satisfied with f silent" 0
    (List.length
       (Thc_agreement.Agreement_spec.check `Strong
          ~inputs:(Array.map (fun v -> Some v) inputs)
          trace))

let test_strong_mixed_correct_inputs_agree () =
  let n = 5 and f = 2 in
  let inputs = [| "a"; "b"; "a"; "b"; "a" |] in
  let trace = run_strong ~seed:112L ~n ~f ~inputs ~byz:[] in
  (* No common correct input: only agreement + termination are required. *)
  let violations =
    Thc_agreement.Agreement_spec.check `Strong
      ~inputs:(Array.map (fun v -> Some v) inputs)
      trace
  in
  Alcotest.(check bool) "no agreement violation" false (has `Agreement violations);
  Alcotest.(check bool) "no termination violation" false
    (has `Termination violations)

(* --- weak validity (single-shot MinBFT over trusted counters) ------------------ *)

(* The run's cost and end state, pinned alongside the verdicts so that a
   change to how the cluster is wired cannot move them unnoticed. *)
let check_run what (o : Thc_agreement.Weak_validity.outcome) ~messages
    ~duration_us ~final_view =
  Alcotest.(check int) (what ^ ": messages") messages o.messages;
  Alcotest.(check int64) (what ^ ": duration") duration_us o.duration_us;
  Alcotest.(check int) (what ^ ": final view") final_view o.final_view

let test_weak_validity_common_input () =
  let o = Thc_agreement.Weak_validity.run ~f:1 ~inputs:[| "v"; "v"; "v" |] () in
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "validity" true o.validity;
  Alcotest.(check bool) "termination" true o.termination;
  Array.iter
    (fun d -> Alcotest.(check (option string)) "decided v" (Some "v") d)
    o.decisions;
  check_run "f = 1, common input" o ~messages:72 ~duration_us:2_000_000L
    ~final_view:0

let test_weak_validity_mixed_inputs () =
  let o = Thc_agreement.Weak_validity.run ~f:2 ~inputs:[| "a"; "b"; "c"; "d"; "e" |] () in
  Alcotest.(check bool) "agreement" true o.agreement;
  Alcotest.(check bool) "termination" true o.termination;
  check_run "f = 2, mixed inputs" o ~messages:300 ~duration_us:2_000_000L
    ~final_view:0

let test_weak_validity_crash_leader () =
  let o =
    Thc_agreement.Weak_validity.run ~f:1 ~inputs:[| "a"; "b"; "c" |]
      ~crash_leader:true ()
  in
  Alcotest.(check bool) "agreement among survivors" true o.agreement;
  Alcotest.(check bool) "termination through view change" true o.termination;
  Alcotest.(check bool) "view advanced" true (o.final_view >= 1);
  check_run "f = 1, crashed leader" o ~messages:64 ~duration_us:2_000_000L
    ~final_view:1

let test_weak_validity_input_arity () =
  Alcotest.(check bool) "wrong arity rejected" true
    (match Thc_agreement.Weak_validity.run ~f:2 ~inputs:[| "a" |] () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let prop_weak_validity_random_seeds =
  QCheck.Test.make ~name:"weak validity across seeds" ~count:5 QCheck.int64
    (fun seed ->
      let o =
        Thc_agreement.Weak_validity.run ~f:1 ~inputs:[| "x"; "y"; "x" |] ~seed ()
      in
      o.agreement && o.termination)

let () =
  Alcotest.run "thc_agreement"
    [
      ( "spec",
        [
          Alcotest.test_case "termination" `Quick test_spec_termination;
          Alcotest.test_case "weak agreement" `Quick test_spec_agreement_weak;
          Alcotest.test_case "very weak allows ⊥" `Quick test_spec_agreement_very_weak_allows_bot;
          Alcotest.test_case "validity needs all correct" `Quick test_spec_very_weak_validity_needs_all_correct;
          Alcotest.test_case "validity enforced" `Quick test_spec_very_weak_validity_enforced_when_clean;
          Alcotest.test_case "strong over correct" `Quick test_spec_strong_validity_over_correct_only;
        ] );
      ( "very-weak",
        [
          Alcotest.test_case "common input" `Quick test_very_weak_common_input;
          Alcotest.test_case "mixed inputs" `Quick test_very_weak_mixed_inputs;
          Alcotest.test_case "byzantine equivocator" `Quick test_very_weak_byzantine_equivocator;
          qcheck prop_very_weak_agreement_random;
        ] );
      ( "strong-validity",
        [
          Alcotest.test_case "common correct input" `Quick test_strong_common_correct_input;
          Alcotest.test_case "mixed inputs agree" `Quick test_strong_mixed_correct_inputs_agree;
        ] );
      ( "weak-validity",
        [
          Alcotest.test_case "common input" `Quick test_weak_validity_common_input;
          Alcotest.test_case "mixed inputs" `Quick test_weak_validity_mixed_inputs;
          Alcotest.test_case "crash leader" `Quick test_weak_validity_crash_leader;
          Alcotest.test_case "input arity" `Quick test_weak_validity_input_arity;
          qcheck prop_weak_validity_random_seeds;
        ] );
    ]
