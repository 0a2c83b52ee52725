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
   counter. *)
let split_run ~world_of ~f ~seed ~configure ~until =
  let config = Minbft.default_config ~f in
  let n = config.Minbft.n in
  let total = n + 1 (* one client identity for signing requests *) in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:total in
  let world = world_of rng ~n in
  let net = Thc_sim.Net.create ~n:total ~default:(Thc_sim.Delay.Uniform (50L, 500L)) in
  let tracing = Thc_sim.Engine.Outputs_only in
  let engine = Thc_sim.Engine.create ~seed ~tracing ~n:total ~net () in
  for pid = 1 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (Minbft.replica
         (Minbft.create_replica ~config ~keyring ~world
            ~trinket:(Thc_hardware.Trinc.trinket world ~owner:pid)
            ~self:pid))
  done;
  let ident = Thc_crypto.Keyring.secret keyring ~pid:n in
  let req_a = Command.make ~ident ~rid:0 (Kv_store.Put ("k", "A")) in
  let req_b = Command.make ~ident ~rid:1 (Kv_store.Put ("k", "B")) in
  let out = Attested_link.Out.create (Thc_hardware.Trinc.trinket world ~owner:0) in
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
    trusted_ops = Thc_obsv.Ledger.rows (Thc_hardware.Trinc.ledger world);
    detail =
      (if Option.is_some rewound then
         "the rewind is granted: both proposals carry one counter, each half \
          finds an f+1 quorum and commits a different operation at sequence 1"
       else
         "the rewind is refused: the second proposal hides behind a counter \
          gap, at most one operation can commit");
  }

let equivocation_splits_unattested ?(f = 1) ?(seed = 3L) () =
  split_run ~world_of:Thc_hardware.Trinc.create_unattested_world ~f ~seed
    ~configure:ignore ~until:1_000_000L

let equivocation_fails_against_minbft ?(f = 1) ?(seed = 3L) () =
  split_run ~world_of:Thc_hardware.Trinc.create_world ~f ~seed
    ~configure:ignore ~until:1_000_000L

let unattested_under_script ?(f = 1) ?network ~seed ~script () =
  split_run ~world_of:Thc_hardware.Trinc.create_unattested_world ~f ~seed
    ~configure:(fun engine ->
      Thc_sim.Adversary.install script engine;
      Option.iter
        (fun m ->
          Thc_network.Model.install m engine ~replicas:((2 * f) + 1) ~script ())
        network)
    ~until:(max 1_000_000L (Int64.add script.Thc_sim.Adversary.horizon 1_000_000L))
