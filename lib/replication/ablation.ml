type result = {
  violations : Smr_spec.violation list;
  distinct_ops_at_seq1 : int;
  messages : int;
  duration_us : int64;
  commits : int;
  trusted_ops : (string * int) list;
  detail : string;
}

let pp_result ppf r =
  Format.fprintf ppf
    "safety violations: %d; distinct ops at seq 1: %d; trusted ops: %d — %s"
    (List.length r.violations) r.distinct_ops_at_seq1
    (List.fold_left (fun acc (_, c) -> acc + c) 0 r.trusted_ops)
    r.detail

(* One body for both worlds.  Correct replicas 1..2f run real MinBFT; the
   leader's trinket goes to the attacker, which seals proposal A for slot 1
   and then re-attests proposal B at the counter A just used.  TrInc refuses
   that rewind, so B takes the next counter and hides behind a gap; the
   unattested world grants it, and each half holds a proposal at the same
   counter.  The one client identity at pid n signs both requests. *)
let split_run ?world ~f ~seed ~configure ~until () =
  if f < 1 then invalid_arg "Ablation: the leader is one of f >= 1 faults";
  let c, states =
    Cluster.minbft ?world ~f ~batch:1 ~checkpoint_interval:0 ~clients:1 ~seed
      ~delay:(Thc_sim.Delay.Uniform (50L, 500L))
      ~tracing:Thc_sim.Engine.Outputs_only ()
  in
  let n = c.replicas and engine = c.engine in
  let ident = Thc_crypto.Keyring.secret c.keyring ~pid:n in
  let req_a = Command.make ~ident ~rid:0 (Kv_store.Put ("k", "A")) in
  let req_b = Command.make ~ident ~rid:1 (Kv_store.Put ("k", "B")) in
  (* A trinket is claimed once: the attacker seals on replica 0's link. *)
  let out = Minbft.attack_out states.(0) in
  let wire_a = Minbft.adversarial_prepare ~out ~view:0 ~seq:1 ~request:req_a in
  let rewound = Minbft.rewound_prepare ~out ~view:0 ~seq:1 ~request:req_b in
  let wire_b =
    match rewound with
    | Some w -> w
    | None -> Minbft.adversarial_prepare ~out ~view:0 ~seq:1 ~request:req_b
  in
  (* The equivocating leader: A to replicas 1..f, B to f+1..2f. *)
  Thc_sim.Engine.mark_byzantine engine 0;
  Thc_sim.Engine.set_behavior engine 0
    {
      init =
        (fun ctx ->
          for dst = 1 to f do ctx.send dst wire_a done;
          for dst = f + 1 to n - 1 do ctx.send dst wire_b done);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    };
  configure engine;
  let trace = Thc_sim.Engine.run ~until engine in
  {
    violations = Smr_spec.check_safety trace ~replicas:n;
    distinct_ops_at_seq1 = Smr_spec.distinct_ops_at_seq1 trace ~replicas:n;
    messages = Thc_obsv.Link_stats.sends (Thc_sim.Engine.stats engine);
    duration_us = trace.Thc_sim.Trace.end_time;
    commits = Smr_spec.commits trace ~replicas:n;
    trusted_ops = Thc_obsv.Ledger.rows c.hw;
    detail =
      (if Option.is_some rewound then
         "the rewind is granted: both proposals carry one counter, each half \
          finds an f+1 quorum and commits a different operation at sequence 1"
       else
         "the rewind is refused: the second proposal hides behind a counter \
          gap, at most one operation can commit");
  }

let unattested = Thc_hardware.Trinc.create_unattested_world

let equivocation_splits_unattested ?(f = 1) ?(seed = 3L) () =
  split_run ~world:unattested ~f ~seed ~configure:ignore ~until:1_000_000L ()

let equivocation_fails_against_minbft ?(f = 1) ?(seed = 3L) () =
  split_run ~f ~seed ~configure:ignore ~until:1_000_000L ()

let unattested_under_script ?(f = 1) ?network ~seed ~script () =
  split_run ~world:unattested ~f ~seed
    ~configure:(fun engine ->
      Thc_sim.Adversary.install script engine;
      Option.iter
        (fun m ->
          Thc_network.Model.install m engine ~replicas:((2 * f) + 1) ~script ())
        network)
    ~until:(max 1_000_000L (Int64.add script.Thc_sim.Adversary.horizon 1_000_000L))
    ()
