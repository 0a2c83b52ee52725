type report = {
  verdict : Monitor.verdict;
  messages : int;
  duration_us : int64;
}

type profile = {
  n : int;
  crash_budget : int;
  partition_budget : int;
  horizon : int64;
}

type expectation = Clean | Broken | Vulnerable

type t = {
  name : string;
  summary : string;
  profile : profile;
  expect : expectation;
  run :
    ?network:Thc_network.Model.t ->
    seed:int64 ->
    script:Thc_sim.Adversary.t ->
    unit ->
    report;
}

let pp_expectation ppf e =
  Format.pp_print_string ppf
    (match e with
    | Clean -> "clean"
    | Broken -> "known-bad"
    | Vulnerable -> "outside-model")

(* --- replication -------------------------------------------------------- *)

let smr_run protocol ?network ~seed ~script () =
  let outcome =
    Thc_replication.Harness.run
      (Thc_replication.Harness.Setup.make ~protocol ~f:1 ~ops:6
         ~scenario:(Thc_replication.Harness.Scripted script) ~seed ?network ())
  in
  {
    verdict =
      Monitor.verdict
        (Monitor.of_smr
           (outcome.Thc_replication.Harness.safety_violations
           @ outcome.Thc_replication.Harness.liveness_violations));
    messages = outcome.Thc_replication.Harness.messages;
    duration_us = outcome.Thc_replication.Harness.duration_us;
  }

let unattested_run ?network ~seed ~script () =
  let result =
    Thc_replication.Ablation.unattested_under_script ?network ~seed ~script ()
  in
  {
    verdict = Monitor.verdict (Monitor.of_smr result.Thc_replication.Ablation.violations);
    messages = result.Thc_replication.Ablation.messages;
    duration_us = result.Thc_replication.Ablation.duration_us;
  }

(* --- broadcast ---------------------------------------------------------- *)

let srb_report (r : Thc_broadcast.Srb_harness.report) =
  {
    verdict = Monitor.verdict (Monitor.of_srb r.violations);
    messages = r.messages;
    duration_us = r.duration_us;
  }

(* --- agreement ---------------------------------------------------------- *)

(* Inputs are part of the explored state space: half the seeds give all
   correct processes one common input (arming the validity clause), the
   rest mix two values (arming agreement). *)
let agreement_inputs ~seed ~n =
  let rng = Thc_util.Rng.create (Int64.lognot seed) in
  if Thc_util.Rng.bool rng then Array.make n "c"
  else Array.init n (fun _ -> if Thc_util.Rng.bool rng then "a" else "b")

(* The protocol starts mid-horizon (horizon/8) rather than at time 0: round
   messages already in flight are immune to blocking, so a time-0 start
   would put round 1 — the only round that matters against non-Byzantine
   senders — beyond the reach of any admissible script. *)
let agreement_run ~start ?network ~seed ~script () =
  let n = 5 in
  let r =
    Thc_agreement.Agreement_harness.run ?network ~seed ~script ~n ~f:2 ~start
      ~inputs:(agreement_inputs ~seed ~n) ()
  in
  {
    verdict = Monitor.verdict (Monitor.of_agreement r.violations);
    messages = r.messages;
    duration_us = r.duration_us;
  }

(* --- byzantine attack catalog ------------------------------------------- *)

(* Every in-catalog (attack x target) cell from lib/byz, each under the same
   adversary-script exploration as every other harness.  The MinBFT and
   uBFT sides are [Clean]: whatever the network does on top of the
   corruption, safety must hold and the hardware ledger must record at
   least one refused operation.  The unattested side is [Broken]: the same
   behavior forks it. *)

let byz_violations (r : Thc_byz.Attack.result) =
  match r.Thc_byz.Attack.target with
  | Thc_byz.Attack.Minbft | Thc_byz.Attack.Ubft ->
    (if r.Thc_byz.Attack.safety_violations > 0 then
       [
         {
           Monitor.monitor = "byz-safety";
           info =
             Printf.sprintf "%d safety violations among correct replicas"
               r.Thc_byz.Attack.safety_violations;
         };
       ]
     else [])
    @
    (if r.Thc_byz.Attack.rejections = 0 then
       [
         {
           Monitor.monitor = "byz-rejection";
           info = "attack left no refused operation in the hardware ledger";
         };
       ]
     else [])
  | Thc_byz.Attack.Unattested ->
    if r.Thc_byz.Attack.safety_violations > 0 then
      [ { Monitor.monitor = "byz-divergence"; info = r.Thc_byz.Attack.detail } ]
    else []

let attack_run ~target attack ?network ~seed ~script () =
  let r = Thc_byz.Attack.run ~seed ~script ?network ~target ~attack () in
  {
    verdict = Monitor.verdict (byz_violations r);
    messages = r.Thc_byz.Attack.messages;
    duration_us = r.Thc_byz.Attack.duration_us;
  }

(* Crash budget stays 0: a crashed replica on top of the Byzantine one
   exceeds f = 1, which is outside the model the catalog argues about.
   Partitions are fair game — they only delay attested traffic. *)
let byz_profile =
  { n = 3; crash_budget = 0; partition_budget = 1; horizon = 200_000L }

let byz_harnesses =
  List.concat_map
    (fun attack ->
      let aname = Thc_byz.Attack.name attack in
      List.filter_map
        (fun (target, prefix, what, expect) ->
          if Thc_byz.Attack.applies ~target ~attack then
            Some
              {
                name = prefix ^ "-" ^ aname;
                summary =
                  Printf.sprintf "%s under %s: %s" what aname
                    (Thc_byz.Attack.describe attack);
                profile = byz_profile;
                expect;
                run = attack_run ~target attack;
              }
          else None)
        [
          (Thc_byz.Attack.Minbft, "minbft", "MinBFT", Clean);
          ( Thc_byz.Attack.Unattested,
            "unattested",
            "MinBFT on the unattested world",
            Broken );
          (Thc_byz.Attack.Ubft, "ubft", "uBFT-sim (SWMR registers)", Clean);
        ])
    (Thc_byz.Attack.all @ Thc_byz.Attack.ubft_all @ Thc_byz.Attack.ckpt_all)

(* --- registry ----------------------------------------------------------- *)

let all =
  [
    {
      name = "minbft";
      summary = "MinBFT (2f+1, trusted counters) replicated KV, f = 1";
      profile = { n = 3; crash_budget = 1; partition_budget = 1; horizon = 200_000L };
      expect = Clean;
      run = smr_run Thc_replication.Harness.Minbft;
    };
    {
      name = "pbft";
      summary = "PBFT (3f+1 baseline) replicated KV, f = 1";
      profile = { n = 4; crash_budget = 1; partition_budget = 1; horizon = 200_000L };
      expect = Clean;
      run = smr_run Thc_replication.Harness.Pbft;
    };
    {
      name = "ubft";
      summary = "uBFT-sim (2f+1, SWMR registers) replicated KV, f = 1";
      profile = { n = 3; crash_budget = 1; partition_budget = 1; horizon = 200_000L };
      expect = Clean;
      run = smr_run Thc_replication.Harness.Ubft;
    };
    {
      name = "minbft-unattested";
      summary =
        "ablation: MinBFT message flow without trusted counters, \
         equivocating leader";
      profile = { n = 3; crash_budget = 1; partition_budget = 1; horizon = 200_000L };
      expect = Broken;
      run = unattested_run;
    };
    {
      name = "srb-trinc";
      summary = "sequenced reliable broadcast from TrInc trusted logs, n = 4";
      profile = { n = 4; crash_budget = 1; partition_budget = 2; horizon = 400_000L };
      expect = Clean;
      run =
        (fun ?network ~seed ~script () ->
          srb_report
            (Thc_broadcast.Srb_harness.run_trinc ?network ~seed ~script ()));
    };
    {
      name = "srb-uni";
      summary = "Algorithm 1: SRB from unidirectional SWMR rounds, n = 5, t = 2";
      profile = { n = 5; crash_budget = 2; partition_budget = 0; horizon = 100_000L };
      expect = Clean;
      run =
        (fun ?network ~seed ~script () ->
          srb_report
            (Thc_broadcast.Srb_harness.run_uni ?network ~seed ~script ()));
    };
    {
      name = "agreement";
      summary = "strong-validity agreement over lock-step rounds, n = 5, f = 2";
      profile = { n = 5; crash_budget = 2; partition_budget = 0; horizon = 20_000L };
      expect = Clean;
      run = agreement_run ~start:2_500L;
    };
    {
      name = "agreement-partition";
      summary =
        "strong-validity agreement with partitions breaking its synchrony \
         assumption";
      profile = { n = 5; crash_budget = 0; partition_budget = 2; horizon = 20_000L };
      expect = Vulnerable;
      run = agreement_run ~start:2_500L;
    };
  ]

let all = all @ byz_harnesses

let find name = List.find_opt (fun h -> h.name = name) all

let names () = List.map (fun h -> h.name) all
