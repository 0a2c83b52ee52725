module R = Thc_replication

type sample = {
  s_ops : int;
  s_completed : int;
  s_commits : int;
  s_duration_us : int64;
  s_log_live : int;
  s_log_hwm : int;
  s_stable_upto : int;
  s_truncations : int;
  s_safety : int;
}

type report = {
  interval : int;
  bound : int;
  samples : sample list;
  baseline : sample list;
  stabilised : bool;
  bound_held : bool;
  baseline_growth : int;
}

let sample_of_outcome ~ops (o : R.Harness.outcome) =
  {
    s_ops = ops;
    s_completed = o.R.Harness.completed;
    s_commits = o.R.Harness.commits;
    s_duration_us = o.R.Harness.duration_us;
    s_log_live = o.R.Harness.durability.R.Durability.live;
    s_log_hwm = o.R.Harness.durability.R.Durability.hwm;
    s_stable_upto = o.R.Harness.durability.R.Durability.stable_upto;
    s_truncations = o.R.Harness.durability.R.Durability.truncations;
    s_safety = List.length o.R.Harness.safety_violations;
  }

let round ~interval ~f ~seed ~ops =
  let setup =
    R.Harness.Setup.make ~ops ~checkpoint_interval:interval
      ~protocol:R.Protocol.Minbft ~f ~seed ()
  in
  sample_of_outcome ~ops (R.Harness.run setup)

(* Doubling horizons make stabilisation a fact, not a trend-reading: the
   uncheckpointed baseline holds the whole log, so its high-water-mark
   grows with the horizon, while a log bounded by the truncation
   discipline stays within the bound at every doubling however long the
   run.  The checkpointed hwm may still move inside the bound from one
   doubling to the next; a step inside the bound is not growth. *)
let report ~interval ~samples ~baseline =
  if samples = [] || baseline = [] then
    invalid_arg "Soak.report: no samples";
  let bound = R.Durability.bound ~checkpoint_interval:interval in
  let bound_held =
    List.for_all (fun s -> s.s_log_hwm <= bound && s.s_safety = 0) samples
  in
  let first = List.hd baseline
  and last = List.nth baseline (List.length baseline - 1) in
  let baseline_growth = last.s_log_hwm - first.s_log_hwm in
  {
    interval;
    bound;
    samples;
    baseline;
    stabilised = bound_held && baseline_growth > 0;
    bound_held;
    baseline_growth;
  }

let run ?(f = 1) ?(interval = 4) ?(rounds = 3) ?(base_ops = 50) ~seed () =
  if interval <= 0 then invalid_arg "Soak.run: interval must be positive";
  if rounds < 2 then invalid_arg "Soak.run: need at least two rounds";
  if base_ops <= 0 then invalid_arg "Soak.run: base_ops must be positive";
  let horizons = List.init rounds (fun i -> base_ops * (1 lsl i)) in
  let samples = List.map (fun ops -> round ~interval ~f ~seed ~ops) horizons in
  let baseline = List.map (fun ops -> round ~interval:0 ~f ~seed ~ops) horizons in
  report ~interval ~samples ~baseline

let pp_sample ppf s =
  Format.fprintf ppf
    "ops %5d  completed %5d  commits %5d  log live %4d  hwm %4d  stable \
     %5d  truncations %4d  %Ldµs"
    s.s_ops s.s_completed s.s_commits s.s_log_live s.s_log_hwm s.s_stable_upto
    s.s_truncations s.s_duration_us

let pp_report ppf r =
  Format.fprintf ppf
    "soak: MinBFT, checkpoint interval %d (truncation bound %d entries)@."
    r.interval r.bound;
  List.iter (fun s -> Format.fprintf ppf "  ckpt     %a@." pp_sample s) r.samples;
  List.iter
    (fun s -> Format.fprintf ppf "  no-ckpt  %a@." pp_sample s)
    r.baseline;
  Format.fprintf ppf
    "  log hwm %s across doublings (bound %s); uncheckpointed baseline grew \
     %+d entries@."
    (if r.stabilised then "stabilised" else "DID NOT stabilise")
    (if r.bound_held then "held" else "VIOLATED")
    r.baseline_growth
