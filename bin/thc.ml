(* thc — command-line front end for the trusted-hardware classification
   library: render/verify the hierarchy, run the separation scenarios, the
   round drivers, and the replication comparison. *)

open Cmdliner

(* Sweep-shaped subcommands (explore, attack, loadtest — and the bench
   binary) share their --runs/--seed/--export/--jobs flags through
   Thc_exec.Cli, so the spellings, defaults and docs cannot drift apart.
   Pool utilization goes to stderr via the obsv registry; stdout stays
   byte-identical at every --jobs value. *)
module Cli = Thc_exec.Cli
module Protocol = Thc_replication.Protocol

(* Every protocol name↔value map below derives from Protocol, the tree's
   one codec; subcommands only add their own extras (both/all). *)
let protocol_assoc = List.map (fun p -> (Protocol.to_string p, p)) Protocol.all

(* Converters that refuse values the run cannot use, so a bad flag exits
   124 with a message naming it instead of dying inside a worker. *)
let checked = Cli.checked
let positive_int = Cli.positive_int
let non_negative_int = checked Arg.int (fun i -> i >= 0) "a non-negative integer"
let positive_float = checked Arg.float (fun r -> r > 0.) "a positive number"
let finite_float = checked Arg.float Float.is_finite "a finite number"
let non_negative_int64 =
  checked Arg.int64 (fun t -> t >= 0L) "a non-negative integer"

let protocol_label = function
  | Protocol.Minbft -> "MinBFT (2f+1, trusted counters)"
  | Protocol.Pbft -> "PBFT (3f+1 baseline)"
  | Protocol.Ubft -> "uBFT-sim (2f+1, SWMR registers)"

(* --- figure1 ------------------------------------------------------------- *)

let figure1_cmd =
  let dot =
    Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz instead of ASCII.")
  in
  let run dot =
    let h = Thc_classify.Hierarchy.paper in
    if dot then print_string (Thc_classify.Hierarchy.to_dot h)
    else print_string (Thc_classify.Hierarchy.figure1 h);
    match Thc_classify.Hierarchy.consistent h with
    | Ok notes ->
      Printf.printf "\nhierarchy consistent (%d side-condition notes)\n"
        (List.length notes)
    | Error problems ->
      Printf.printf "\nhierarchy INCONSISTENT:\n";
      List.iter (Printf.printf "  %s\n") problems;
      exit 1
  in
  Cmd.v
    (Cmd.info "figure1" ~doc:"Render the paper's summary-of-results figure.")
    Term.(const run $ dot)

(* --- verify -------------------------------------------------------------- *)

let verify_cmd =
  let run () =
    let results = Thc_classify.Hierarchy.verify Thc_classify.Hierarchy.paper in
    let failed = ref 0 in
    List.iter
      (fun (label, passed, detail) ->
        if not passed then incr failed;
        Printf.printf "[%s] %-55s %s\n"
          (if passed then "PASS" else "FAIL")
          label detail)
      results;
    Printf.printf "\n%d/%d edge/separation checks passed\n"
      (List.length results - !failed)
      (List.length results);
    if !failed > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Execute every witness construction and separation scenario behind \
          the hierarchy's edges.")
    Term.(const run $ const ())

(* --- scenarios ------------------------------------------------------------ *)

let scenarios_cmd =
  let run () =
    let results =
      [
        Thc_classify.Separations.srb_cannot_implement_unidirectionality ();
        Thc_classify.Separations.rb_cannot_solve_very_weak ();
        Thc_classify.Separations.delta_wait_below_delta_not_unidirectional ();
      ]
    in
    List.iter
      (fun r -> Format.printf "%a@.@." Thc_classify.Separations.pp_result r)
      results;
    if not (List.for_all (fun r -> r.Thc_classify.Separations.holds) results)
    then exit 1
  in
  Cmd.v
    (Cmd.info "scenarios"
       ~doc:"Run the paper's impossibility constructions end to end.")
    Term.(const run $ const ())

(* --- problems --------------------------------------------------------------- *)

let problems_cmd =
  let verify =
    Arg.(value & flag & info [ "verify" ] ~doc:"Execute every checkable cell.")
  in
  let run verify =
    print_string (Thc_classify.Problems.render ());
    if verify then begin
      let results = Thc_classify.Problems.verify () in
      let failed = ref 0 in
      List.iter
        (fun (label, passed, detail) ->
          if not passed then incr failed;
          Printf.printf "[%s] %s — %s\n" (if passed then "PASS" else "FAIL")
            label detail)
        results;
      if !failed > 0 then exit 1
    end
  in
  Cmd.v
    (Cmd.info "problems"
       ~doc:"The paper's problem/model capability matrix (Problems Considered).")
    Term.(const run $ verify)

(* --- rounds --------------------------------------------------------------- *)

let rounds_cmd =
  let driver =
    Arg.(
      value
      & opt (enum
               [ ("swmr", `Swmr); ("sticky", `Sticky); ("peats", `Peats);
                 ("async", `Async); ("sync", `Sync); ("delta", `Delta);
                 ("rb1", `Rb1) ])
          `Swmr
      & info [ "driver" ] ~doc:"Round driver: swmr|sticky|peats|async|sync|delta|rb1.")
  in
  let n = Arg.(value & opt positive_int 5 & info [ "n" ] ~doc:"Processes.") in
  let rounds_n =
    Arg.(value & opt positive_int 4 & info [ "rounds" ] ~doc:"Rounds to run.")
  in
  let seed = Cli.seed ~default:42L () in
  let run driver n rounds seed =
    let rng = Thc_util.Rng.create seed in
    let keyring = Thc_crypto.Keyring.create rng ~n in
    let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 400L)) in
    let app pid : Thc_rounds.Round_app.app =
      {
        first_payload = (fun _ -> Some (Printf.sprintf "r1-p%d" pid));
        on_receive = (fun _ ~round:_ ~from:_ _ -> ());
        on_round_check =
          (fun h ~round ->
            if round >= rounds then Thc_rounds.Round_app.Stop
            else
              Thc_rounds.Round_app.Advance
                (Some (Printf.sprintf "r%d-p%d" (round + 1) h.self)));
      }
    in
    (* Drivers have distinct wire types, so each branch runs its own engine
       and reports through this polymorphic summary. *)
    let report (type m) (trace : m Thc_sim.Trace.t) =
      let uni = Thc_rounds.Directionality.check_unidirectional trace in
      let bi = Thc_rounds.Directionality.check_bidirectional trace in
      Printf.printf "driver ran %d processes; rounds completed per process:" n;
      for pid = 0 to n - 1 do
        Printf.printf " %d"
          (Thc_rounds.Directionality.rounds_completed trace ~pid)
      done;
      Printf.printf "\nunidirectionality violations: %d\n" (List.length uni);
      Printf.printf "bidirectionality violations:  %d\n" (List.length bi);
      Printf.printf "messages sent: %d, virtual duration: %Ld us\n"
        (Thc_sim.Trace.messages_sent trace)
        trace.Thc_sim.Trace.end_time
    in
    let install_and_run engine behavior_of =
      for pid = 0 to n - 1 do
        Thc_sim.Engine.set_behavior engine pid (behavior_of pid)
      done;
      Thc_sim.Engine.run ~until:10_000_000L engine
    in
    match driver with
    | `Async ->
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      report
        (install_and_run engine (fun pid ->
             Thc_rounds.Async_rounds.behavior ~f:((n - 1) / 2) (app pid)))
    | `Sync ->
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      report
        (install_and_run engine (fun pid ->
             Thc_rounds.Sync_rounds.behavior ~period:1_000L (app pid)))
    | `Delta ->
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      report
        (install_and_run engine (fun pid ->
             Thc_rounds.Delta_rounds.behavior ~wait:500L
               ~start_offset:(Int64.of_int (pid * 137))
               (app pid)))
    | `Rb1 ->
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      report
        (install_and_run engine (fun pid ->
             Thc_rounds.Rb_rounds_f1.behavior ~keyring
               ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
               (app pid)))
    | `Swmr ->
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      let registers = Thc_sharedmem.Swmr.log_array ~n in
      report
        (install_and_run engine (fun pid ->
             Thc_rounds.Swmr_rounds.behavior ~registers
               ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
               (app pid)))
    | `Sticky ->
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      let board = Thc_rounds.Sticky_rounds.create_board ~n in
      report
        (install_and_run engine (fun pid ->
             Thc_rounds.Sticky_rounds.behavior ~board
               ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
               (app pid)))
    | `Peats ->
      let engine = Thc_sim.Engine.create ~seed ~n ~net () in
      let space =
        Thc_sharedmem.Peats.create ~policy:Thc_sharedmem.Peats.owned_field_policy
      in
      report
        (install_and_run engine (fun pid ->
             Thc_rounds.Peats_rounds.behavior ~space ~n
               ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
               (app pid)))
  in
  Cmd.v
    (Cmd.info "rounds" ~doc:"Run a round driver and report its directionality.")
    Term.(const run $ driver $ n $ rounds_n $ seed)

(* --- smr ------------------------------------------------------------------ *)

let smr_cmd =
  let protocol =
    Arg.(
      value
      & opt
          (enum
             (List.map (fun (s, p) -> (s, `One p)) protocol_assoc
             @ [ ("both", `Both); ("all", `All) ]))
          `Both
      & info [ "protocol" ]
          ~doc:"minbft|pbft|ubft|both (minbft+pbft)|all.")
  in
  let f = Arg.(value & opt non_negative_int 1 & info [ "f" ] ~doc:"Fault bound.") in
  let ops =
    Arg.(value & opt positive_int 30 & info [ "ops" ] ~doc:"Client requests.")
  in
  let scenario =
    Arg.(
      value
      & opt (enum
               [ ("fault-free", `Ff); ("crash-leader", `Cl); ("silent", `Si);
                 ("restart", `Restart) ])
          `Ff
      & info [ "scenario" ]
          ~doc:
            "fault-free|crash-leader|silent|restart (a non-leader replica \
             crashes mid-run, loses all volatile state and rejoins via \
             verified state transfer; needs $(b,--protocol) minbft and \
             $(b,-f) 1 or more — pair with $(b,--checkpoint-interval)).")
  in
  let ckpt =
    Arg.(
      value & opt non_negative_int 0
      & info [ "checkpoint-interval" ]
          ~doc:
            "Attested-checkpoint cadence in executed slots (0 = off): \
             checkpoint certificates, log truncation and state transfer.")
  in
  let seed = Cli.seed ~default:11L () in
  let run protocol f ops scenario ckpt seed =
    let show scenario p =
      let o =
        Thc_replication.Harness.run
          (Thc_replication.Harness.Setup.make ~protocol:p ~f ~ops ~scenario
             ~checkpoint_interval:ckpt ~seed ())
      in
      Format.printf "=== %s ===@.%a@.@." (protocol_label p)
        Thc_replication.Harness.pp_outcome o
    in
    let run_all scenario =
      (match protocol with
      | `One p -> show scenario p
      | `Both ->
        show scenario Protocol.Minbft;
        show scenario Protocol.Pbft
      | `All -> List.iter (show scenario) Protocol.all);
      `Ok ()
    in
    match (scenario, protocol) with
    | `Ff, _ -> run_all Thc_replication.Harness.Fault_free
    | `Cl, _ -> run_all (Thc_replication.Harness.Crash_leader 40_000L)
    | `Si, _ -> run_all Thc_replication.Harness.Silent_replicas
    | `Restart, `One Protocol.Minbft when f >= 1 ->
      (* Last replica (never the view-0 leader at f >= 1) restarts
         mid-workload. *)
      run_all
        (Thc_replication.Harness.Restart_replica { pid = 2 * f; at = 60_000L })
    | `Restart, _ ->
      `Error
        (false, "--scenario restart needs --protocol minbft and -f 1 or more")
  in
  Cmd.v
    (Cmd.info "smr"
       ~doc:
         "Run the replicated-state-machine comparison (MinBFT vs PBFT vs \
          uBFT-sim).")
    Term.(ret (const run $ protocol $ f $ ops $ scenario $ ckpt $ seed))

(* --- soak ------------------------------------------------------------------ *)

let soak_cmd =
  let f = Arg.(value & opt non_negative_int 1 & info [ "f" ] ~doc:"Fault bound.") in
  let interval =
    Arg.(
      value & opt positive_int 4
      & info [ "checkpoint-interval" ]
          ~doc:"Attested-checkpoint cadence in executed slots (must be > 0).")
  in
  let rounds =
    Arg.(
      value
      & opt (checked int (fun r -> r >= 2) "an integer >= 2") 3
      & info [ "rounds" ] ~doc:"Doubling horizons to run (min 2).")
  in
  let base_ops =
    Arg.(
      value & opt positive_int 50
      & info [ "base-ops" ] ~doc:"Requests in the first (shortest) round.")
  in
  let seed = Cli.seed ~default:11L () in
  let run f interval rounds base_ops seed =
    let r = Thc_workload.Soak.run ~f ~interval ~rounds ~base_ops ~seed () in
    Format.printf "%a" Thc_workload.Soak.pp_report r;
    if not r.Thc_workload.Soak.stabilised then exit 1
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Long-lived-service soak: run MinBFT over doubling horizons with \
          and without attested checkpoints and verify the log \
          high-water-mark stabilises under the truncation bound while the \
          uncheckpointed baseline's grows.  Exits 1 if it does not.")
    Term.(const run $ f $ interval $ rounds $ base_ops $ seed)

(* --- loadtest -------------------------------------------------------------- *)

let loadtest_write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "export written to %s\n" path

let loadtest_cmd =
  let module W = Thc_workload.Workload in
  let module L = Thc_workload.Loadtest in
  let protocol =
    Arg.(
      required
      & pos 0 (some Protocol.conv) None
      & info [] ~docv:"PROTOCOL" ~doc:"minbft|pbft|ubft.")
  in
  let f = Arg.(value & opt non_negative_int 1 & info [ "f" ] ~doc:"Fault bound.") in
  let clients =
    Arg.(value & opt positive_int 4 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let ops =
    Arg.(value & opt positive_int 25 & info [ "ops" ] ~doc:"Requests per client.")
  in
  let rates =
    Arg.(
      value
      & opt (list positive_float) [ 200.; 500.; 1000. ]
      & info [ "rates" ]
          ~doc:"Aggregate offered rates (req/s) swept for open-loop arrivals.")
  in
  let batches =
    Arg.(
      value
      & opt (list positive_int) [ 1; 4 ]
      & info [ "batches" ] ~doc:"Leader batch sizes swept at each rate.")
  in
  let arrival =
    Arg.(
      value
      & opt (enum
               [ ("poisson", `Poisson); ("uniform", `Uniform);
                 ("closed", `Closed) ])
          `Poisson
      & info [ "arrival" ]
          ~doc:
            "poisson|uniform (open loop over $(b,--rates)) or closed \
             (fixed outstanding window; ignores $(b,--rates)).")
  in
  let window =
    Arg.(
      value & opt positive_int 4
      & info [ "window" ] ~doc:"Outstanding requests per closed-loop client.")
  in
  let think =
    Arg.(
      value
      & opt non_negative_int64 0L
      & info [ "think" ] ~doc:"Closed-loop think time (virtual µs).")
  in
  let keys = Arg.(value & opt positive_int 64 & info [ "keys" ] ~doc:"Key-space size.") in
  let theta =
    Arg.(
      value & opt finite_float 0.99
      & info [ "theta" ] ~doc:"Zipf skew; 0 selects the uniform key picker.")
  in
  let seed = Cli.seed () in
  let export =
    Cli.export ~doc:"Write the thc-loadtest/v1 JSONL export to $(docv)." ()
  in
  let jobs = Cli.jobs () in
  let network = Cli.network () in
  let run protocol f clients ops rates batches arrival window think keys theta
      seed export jobs network =
    let key_dist =
      if theta <= 0.0 then W.Keys_uniform { keys }
      else W.Keys_zipf { keys; theta }
    in
    let arrivals =
      match arrival with
      | `Closed -> [ W.Closed { window; think_us = think } ]
      | `Poisson -> List.map (fun r -> W.Open_poisson { rate_rps = r }) rates
      | `Uniform -> List.map (fun r -> W.Open_uniform { rate_rps = r }) rates
    in
    let template =
      {
        L.protocol;
        f;
        batch = 1;
        seed;
        delay = Thc_sim.Delay.Uniform (50L, 500L);
        network;
        spec =
          {
            W.clients;
            requests_per_client = ops;
            arrival = List.hd arrivals;
            keys = key_dist;
            mix = W.default_mix;
          };
      }
    in
    let results =
      L.sweep ~jobs ~stats:(Cli.stats_reporter ~jobs) template ~arrivals
        ~batches
    in
    Printf.printf "=== loadtest: %s  f=%d  clients=%d  ops/client=%d  seed=%Ld ===\n"
      (L.protocol_name protocol) f clients ops seed;
    (* Per-phase p50 columns from the span recorder, in causal order; the
       union across results keeps every point comparable even if a phase
       went untraversed at some operating point. *)
    let phases =
      List.fold_left
        (fun acc (r : L.result) ->
          List.fold_left
            (fun acc (name, _) ->
              if List.mem name acc then acc else acc @ [ name ])
            acc r.L.phase_p50_us)
        [] results
    in
    let t =
      Thc_util.Table.create
        ([ "arrival"; "batch"; "done"; "thru(r/s)"; "p50(µs)"; "p99(µs)" ]
        @ List.map (fun p -> p ^ "(µs)") phases
        @ [ "trusted/req"; "msgs"; "safety" ])
    in
    List.iter
      (fun (r : L.result) ->
        Thc_util.Table.add_row t
          ([
             Format.asprintf "%a" W.pp_arrival r.L.point.L.spec.W.arrival;
             string_of_int r.L.point.L.batch;
             Printf.sprintf "%d/%d" r.L.completed r.L.offered;
             Printf.sprintf "%.1f" r.L.throughput_rps;
             Printf.sprintf "%.0f" r.L.latency.Thc_util.Stats.p50;
             Printf.sprintf "%.0f" r.L.latency.Thc_util.Stats.p99;
           ]
          @ List.map
              (fun p ->
                match List.assoc_opt p r.L.phase_p50_us with
                | Some v -> Printf.sprintf "%.0f" v
                | None -> "-")
              phases
          @ [
              Printf.sprintf "%.3f" r.L.trusted_per_request;
              string_of_int r.L.messages;
              string_of_int r.L.safety_violations;
            ]))
      results;
    Thc_util.Table.print t;
    Option.iter
      (fun file ->
        loadtest_write_file file (L.export ?network ~seed results))
      export;
    let safety =
      List.fold_left (fun acc (r : L.result) -> acc + r.L.safety_violations) 0
        results
    in
    if safety > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadtest"
       ~doc:
         "Sweep offered load and batch size against a replication protocol \
          and report the throughput\xe2\x80\x93latency curve plus trusted-op \
          amortization.")
    Term.(
      const run $ protocol $ f $ clients $ ops $ rates $ batches $ arrival
      $ window $ think $ keys $ theta $ seed $ export $ jobs $ network)

(* --- report ---------------------------------------------------------------- *)

(* Dashboard rendering for the named experiments.  Everything printed here
   is derived from virtual-time metrics, so identical seeds give
   byte-identical dashboards (and exports). *)

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc;
  Printf.printf "export written to %s\n" path

let print_latency_table (h : Thc_obsv.Metrics.Histogram.t) =
  let cell = function None -> "-" | Some v -> Printf.sprintf "%Ld" v in
  print_endline "commit latency (virtual µs):";
  let t = Thc_util.Table.create [ "quantile"; "value" ] in
  Thc_util.Table.add_row t [ "p50"; cell (Thc_obsv.Metrics.Histogram.p50 h) ];
  Thc_util.Table.add_row t [ "p90"; cell (Thc_obsv.Metrics.Histogram.p90 h) ];
  Thc_util.Table.add_row t [ "p99"; cell (Thc_obsv.Metrics.Histogram.p99 h) ];
  Thc_util.Table.add_row t
    [ "p999"; cell (Thc_obsv.Metrics.Histogram.p999 h) ];
  Thc_util.Table.add_row t
    [
      "mean";
      (match Thc_obsv.Metrics.Histogram.mean h with
      | None -> "-"
      | Some m -> Printf.sprintf "%.1f" m);
    ];
  Thc_util.Table.add_row t [ "max"; cell (Thc_obsv.Metrics.Histogram.max h) ];
  Thc_util.Table.add_row t
    [ "samples"; string_of_int (Thc_obsv.Metrics.Histogram.count h) ];
  Thc_util.Table.print t

let print_kind_table breakdown =
  print_endline "message kinds:";
  let t = Thc_util.Table.create [ "kind"; "sent" ] in
  List.iter
    (fun (kind, c) -> Thc_util.Table.add_row t [ kind; string_of_int c ])
    breakdown;
  Thc_util.Table.print t

let print_sends_table ~replicas sends =
  print_endline "sends by process:";
  let t = Thc_util.Table.create [ "process"; "sent" ] in
  List.iter
    (fun (pid, c) ->
      let label =
        if pid < replicas then Printf.sprintf "p%d" pid
        else Printf.sprintf "p%d (client)" pid
      in
      Thc_util.Table.add_row t [ label; string_of_int c ])
    sends;
  Thc_util.Table.print t

let print_net_table (net : (string * int) list) ~in_flight_at_end
    ~held_at_end =
  print_endline "network:";
  let t = Thc_util.Table.create [ "metric"; "value" ] in
  List.iter
    (fun (k, v) -> Thc_util.Table.add_row t [ k; string_of_int v ])
    (net
    @ [
        ("undelivered at horizon", in_flight_at_end);
        ("held at end (trace)", held_at_end);
      ]);
  Thc_util.Table.print t

let print_ledger_table ~commits trusted_ops =
  print_endline "trusted-op ledger:";
  if trusted_ops = [] then
    print_endline "  (empty — no trusted component in this run)"
  else begin
    let t = Thc_util.Table.create [ "op"; "count"; "per commit" ] in
    let rate c =
      if commits <= 0 then "0.00"
      else Printf.sprintf "%.2f" (float_of_int c /. float_of_int commits)
    in
    List.iter
      (fun (op, c) -> Thc_util.Table.add_row t [ op; string_of_int c; rate c ])
      trusted_ops;
    let total = List.fold_left (fun acc (_, c) -> acc + c) 0 trusted_ops in
    Thc_util.Table.add_row t [ "total"; string_of_int total; rate total ];
    Thc_util.Table.print t
  end

let report_smr protocol ~name ~f ~ops ~seed ~export =
  let setup = Thc_replication.Harness.Setup.make ~protocol ~f ~ops ~seed () in
  let o, jsonl = Thc_replication.Harness.run_export setup in
  Printf.printf "=== %s ===\n" name;
  Printf.printf "replicas=%d (+1 client)  f=%d  seed=%Ld  ops=%d\n" o.replicas f
    seed ops;
  Printf.printf
    "completed=%d/%d  commits=%d  messages=%d (%.1f/op)  duration=%Ldµs  \
     final view=%d\n"
    o.completed ops o.commits o.messages o.messages_per_op o.duration_us
    o.final_view;
  Printf.printf "safety violations: %d   liveness violations: %d\n\n"
    (List.length o.safety_violations)
    (List.length o.liveness_violations);
  print_latency_table o.lat_hist;
  print_newline ();
  print_kind_table o.breakdown;
  print_newline ();
  print_sends_table ~replicas:o.replicas o.sends_by_replica;
  print_newline ();
  print_net_table o.net ~in_flight_at_end:o.delivery.in_flight_at_end
    ~held_at_end:o.delivery.held_at_end;
  print_newline ();
  print_ledger_table ~commits:o.commits o.trusted_ops;
  Printf.printf "\ntrusted ops per committed operation: %.2f\n"
    o.trusted_per_commit;
  Option.iter (fun file -> write_file file jsonl) export;
  List.length o.safety_violations + List.length o.liveness_violations

let report_ablation ~f ~seed ~export =
  let ua = Thc_replication.Ablation.equivocation_splits_unattested ~f ~seed () in
  let mb =
    Thc_replication.Ablation.equivocation_fails_against_minbft ~f ~seed ()
  in
  Printf.printf "=== ablation: equivocation with and without trusted counters ===\n";
  Printf.printf "f=%d  seed=%Ld\n\n" f seed;
  let total ops = List.fold_left (fun acc (_, c) -> acc + c) 0 ops in
  let rate (r : Thc_replication.Ablation.result) =
    if r.commits <= 0 then 0.0
    else float_of_int (total r.trusted_ops) /. float_of_int r.commits
  in
  let t =
    Thc_util.Table.create [ "metric"; "unattested (2f+1)"; "minbft (2f+1 + trinc)" ]
  in
  let row name get = Thc_util.Table.add_row t [ name; get ua; get mb ] in
  row "safety violations" (fun (r : Thc_replication.Ablation.result) ->
      string_of_int (List.length r.violations));
  row "distinct ops at seq 1" (fun r -> string_of_int r.distinct_ops_at_seq1);
  row "commits" (fun r -> string_of_int r.commits);
  row "messages" (fun r -> string_of_int r.messages);
  row "trusted ops" (fun r -> string_of_int (total r.trusted_ops));
  row "trusted ops per commit" (fun r -> Printf.sprintf "%.2f" (rate r));
  Thc_util.Table.print t;
  print_newline ();
  print_ledger_table ~commits:mb.commits mb.trusted_ops;
  Printf.printf
    "\nthe unattested run spends 0.00 trusted ops per commit and loses \
     safety;\nminbft pays %.2f per commit and keeps it.\n" (rate mb);
  Option.iter
    (fun file ->
      let module J = Thc_obsv.Json in
      let line (name, (r : Thc_replication.Ablation.result)) =
        J.to_string
          (J.Obj
             [
               ("type", J.Str "ablation");
               ("variant", J.Str name);
               ("violations", J.Int (List.length r.violations));
               ("distinct_ops_at_seq1", J.Int r.distinct_ops_at_seq1);
               ("commits", J.Int r.commits);
               ("messages", J.Int r.messages);
               ( "trusted_ops",
                 J.Obj (List.map (fun (k, v) -> (k, J.Int v)) r.trusted_ops) );
             ])
        ^ "\n"
      in
      write_file file
        (String.concat "" (List.map line [ ("unattested", ua); ("minbft", mb) ])))
    export;
  (* The split succeeding against the unattested variant IS the expected
     outcome; only a violation on real MinBFT is a failure. *)
  List.length mb.violations

let report_srb ~n ~ops ~seed ~export =
  let rng = Thc_util.Rng.create seed in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 400L)) in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st =
      Thc_broadcast.Srb_from_trinc.create ~world
        ~trinket:(Some (Thc_hardware.Trinc.trinket world ~owner:pid))
        ~n ~self:pid
    in
    let plan =
      if pid = 0 then
        List.init ops (fun i ->
            (Int64.add 100L (Int64.mul (Int64.of_int i) 1_000L),
             Printf.sprintf "m%d" (i + 1)))
      else []
    in
    Thc_sim.Engine.set_behavior engine pid
      (Thc_broadcast.Srb_from_trinc.behavior st ~broadcast_plan:plan)
  done;
  let until = Int64.add 2_000_000L (Int64.mul (Int64.of_int ops) 1_000L) in
  let trace = Thc_sim.Engine.run ~until ~max_events:10_000_000 engine in
  let violations = Thc_broadcast.Srb_spec.check trace ~sender:0 in
  let delivered =
    List.fold_left
      (fun acc pid ->
        acc
        + List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid))
      0
      (Thc_sim.Trace.correct_pids trace)
  in
  let delivery = Thc_sim.Metrics.delivery_report trace in
  let hist = Thc_obsv.Metrics.Histogram.create () in
  List.iter
    (fun l -> Thc_obsv.Metrics.Histogram.record hist (Int64.of_float l))
    delivery.Thc_sim.Metrics.latencies;
  let ledger_rows = Thc_obsv.Ledger.rows (Thc_hardware.Trinc.ledger world) in
  Printf.printf "=== SRB from TrInc (sequenced reliable broadcast) ===\n";
  Printf.printf "processes=%d  sender=p0  seed=%Ld  values=%d\n" n seed ops;
  Printf.printf
    "deliveries=%d (of %d expected)  messages=%d  duration=%Ldµs\n"
    delivered (ops * n)
    (Thc_sim.Trace.messages_sent trace)
    trace.Thc_sim.Trace.end_time;
  Printf.printf "SRB spec violations: %d\n\n" (List.length violations);
  print_latency_table hist;
  print_newline ();
  print_kind_table
    (Thc_sim.Metrics.kind_counts trace ~classify:(fun _ -> "attestation"));
  print_newline ();
  print_sends_table ~replicas:n (Thc_sim.Metrics.sends_by_source trace);
  print_newline ();
  print_net_table
    (Thc_obsv.Link_stats.rows (Thc_sim.Engine.stats engine))
    ~in_flight_at_end:delivery.in_flight_at_end
    ~held_at_end:delivery.held_at_end;
  print_newline ();
  print_ledger_table ~commits:delivered ledger_rows;
  Printf.printf
    "\n(per-commit column uses total correct-process deliveries as the \
     denominator)\n";
  Option.iter
    (fun file ->
      let module J = Thc_obsv.Json in
      write_file file
        (Thc_sim.Trace.to_jsonl ~encode_msg:Thc_util.Codec.encode trace
        ^ J.to_string
            (J.Obj
               [
                 ("type", J.Str "ledger");
                 ( "ops",
                   J.Obj (List.map (fun (k, v) -> (k, J.Int v)) ledger_rows) );
                 ("deliveries", J.Int delivered);
               ])
        ^ "\n"))
    export;
  List.length violations

(* Render an exported thc-loadtest/v1 JSONL file: the throughput–latency
   curve plus the batching ablation (trusted ops per request by batch size
   at each operating point). *)
let report_loadtest ~from =
  match from with
  | None ->
    prerr_endline "report loadtest needs --from FILE (a thc loadtest --export)";
    2
  | Some file -> (
    match
      let ic = open_in_bin file in
      let len = in_channel_length ic in
      let text = really_input_string ic len in
      close_in ic;
      text
    with
    | exception Sys_error e ->
      Printf.eprintf "%s\n" e;
      2
    | text ->
    match Thc_workload.Loadtest.parse text with
    | Error e ->
      Printf.printf "%s: %s\n" file e;
      1
    | Ok rows ->
      let module L = Thc_workload.Loadtest in
      Printf.printf "=== loadtest report (%d points, %s) ===\n\n"
        (List.length rows) L.schema;
      print_endline "throughput-latency curve:";
      let phases =
        List.fold_left
          (fun acc (r : L.row) ->
            List.fold_left
              (fun acc (name, _) ->
                if List.mem name acc then acc else acc @ [ name ])
              acc r.L.r_phase_p50)
          [] rows
      in
      let t =
        Thc_util.Table.create
          ([ "protocol"; "arrival"; "rate(r/s)"; "batch"; "done";
             "thru(r/s)"; "p50(µs)"; "p99(µs)" ]
          @ List.map (fun p -> p ^ "(µs)") phases
          @ [ "trusted/req"; "safety" ])
      in
      List.iter
        (fun (r : L.row) ->
          let rate =
            if r.L.r_arrival = "closed" then
              Printf.sprintf "w=%d" r.L.r_window
            else Printf.sprintf "%.0f" r.L.r_rate_rps
          in
          Thc_util.Table.add_row t
            ([
               r.L.r_protocol;
               r.L.r_arrival;
               rate;
               string_of_int r.L.r_batch;
               Printf.sprintf "%d/%d" r.L.r_completed r.L.r_offered;
               Printf.sprintf "%.1f" r.L.r_throughput_rps;
               Printf.sprintf "%.0f" r.L.r_p50_us;
               Printf.sprintf "%.0f" r.L.r_p99_us;
             ]
            @ List.map
                (fun p ->
                  match List.assoc_opt p r.L.r_phase_p50 with
                  | Some v -> Printf.sprintf "%.0f" v
                  | None -> "-")
                phases
            @ [
                Printf.sprintf "%.3f" r.L.r_trusted_per_request;
                string_of_int r.L.r_safety;
              ]))
        rows;
      Thc_util.Table.print t;
      (* Batch ablation: at each operating point, how the per-request
         trusted-op cost moves as the leader batches harder.  Only
         meaningful where trusted hardware is in the path (MinBFT). *)
      let keyed =
        List.filter_map
          (fun (r : L.row) ->
            if
              r.L.r_trusted_total > 0
              || Protocol.of_string r.L.r_protocol = Some Protocol.Minbft
            then
              Some ((r.L.r_protocol, r.L.r_arrival, r.L.r_rate_rps, r.L.r_window), r)
            else None)
          rows
      in
      let points =
        List.sort_uniq compare (List.map fst keyed)
      in
      let multi_batch =
        List.filter
          (fun k ->
            List.length (List.filter (fun (k', _) -> k' = k) keyed) > 1)
          points
      in
      if multi_batch <> [] then begin
        print_newline ();
        print_endline "batch ablation (trusted ops per committed request):";
        let t =
          Thc_util.Table.create
            [ "protocol"; "operating point"; "batch"; "trusted/req";
              "trusted/commit"; "thru(r/s)" ]
        in
        List.iter
          (fun ((proto, arrival, rate, window) as k) ->
            List.iter
              (fun (_, (r : L.row)) ->
                let point_label =
                  if arrival = "closed" then
                    Printf.sprintf "closed w=%d" window
                  else Printf.sprintf "%s %.0f r/s" arrival rate
                in
                Thc_util.Table.add_row t
                  [
                    proto;
                    point_label;
                    string_of_int r.L.r_batch;
                    Printf.sprintf "%.3f" r.L.r_trusted_per_request;
                    Printf.sprintf "%.3f" r.L.r_trusted_per_commit;
                    Printf.sprintf "%.1f" r.L.r_throughput_rps;
                  ])
              (List.sort
                 (fun (_, (a : L.row)) (_, (b : L.row)) ->
                   compare a.L.r_batch b.L.r_batch)
                 (List.filter (fun (k', _) -> k' = k) keyed)))
          multi_batch;
        Thc_util.Table.print t
      end;
      List.fold_left (fun acc (r : L.row) -> acc + r.L.r_safety) 0 rows)

let report_cmd =
  let experiment =
    Arg.(
      required
      & pos 0
          (some (enum
                   [ ("minbft", `Minbft); ("pbft", `Pbft); ("ubft", `Ubft);
                     ("ablation", `Ablation); ("srb", `Srb);
                     ("loadtest", `Loadtest) ]))
          None
      & info [] ~docv:"EXPERIMENT"
          ~doc:"minbft|pbft|ubft|ablation|srb|loadtest.")
  in
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n" ]
          ~doc:
            "Cluster size.  For minbft the fault bound becomes (n-1)/2, for \
             pbft (n-1)/3 (at least 1); for srb this is the process count.")
  in
  let f =
    Arg.(
      value
      & opt (some non_negative_int) None
      & info [ "f" ] ~doc:"Fault bound (overrides the $(b,--n) derivation).")
  in
  let ops =
    Arg.(
      value & opt positive_int 30
      & info [ "ops" ] ~doc:"Client requests (smr) or broadcast values (srb).")
  in
  let seed = Cli.seed () in
  let export =
    Cli.export ~doc:"Write the run's JSONL trace/metrics export to $(docv)." ()
  in
  let from =
    Arg.(
      value
      & opt (some string) None
      & info [ "from" ] ~docv:"FILE"
          ~doc:
            "For $(b,loadtest): render this exported JSONL file instead of \
             running an experiment.")
  in
  let run experiment n f ops seed export from =
    let fault_bound ~per_fault =
      match (f, n) with
      | Some f, _ -> f
      | None, Some n -> max 1 ((n - 1) / per_fault)
      | None, None -> 1
    in
    let problems =
      match experiment with
      | `Minbft ->
        report_smr Thc_replication.Harness.Minbft
          ~name:"MinBFT (2f+1, trusted counters)" ~f:(fault_bound ~per_fault:2)
          ~ops ~seed ~export
      | `Pbft ->
        report_smr Thc_replication.Harness.Pbft
          ~name:"PBFT (3f+1 baseline)" ~f:(fault_bound ~per_fault:3) ~ops ~seed
          ~export
      | `Ubft ->
        report_smr Thc_replication.Harness.Ubft
          ~name:"uBFT-sim (2f+1, SWMR registers)" ~f:(fault_bound ~per_fault:2)
          ~ops ~seed ~export
      | `Ablation -> report_ablation ~f:(fault_bound ~per_fault:2) ~seed ~export
      | `Srb -> report_srb ~n:(Option.value n ~default:4) ~ops ~seed ~export
      | `Loadtest -> report_loadtest ~from
    in
    if problems > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a named experiment and render its telemetry dashboard: commit \
          latency quantiles, message-kind breakdown, per-process sends, \
          network counters, and the trusted-op ledger.  The $(b,loadtest) \
          view instead renders a file exported by $(b,thc loadtest).")
    Term.(const run $ experiment $ n $ f $ ops $ seed $ export $ from)

(* --- explore --------------------------------------------------------------- *)

let protocol_arg =
  let names = Thc_check.Harness.names () in
  Arg.(
    required
    & opt (some (enum (List.map (fun n -> (n, n)) names))) None
    & info [ "protocol" ]
        ~doc:
          (Printf.sprintf "Protocol harness to drive: %s."
             (String.concat "|" names)))

let explore_cmd =
  let runs = Cli.runs ~default:100 ~doc:"Number of (seed, script) pairs." () in
  let seed = Cli.seed () in
  let jobs = Cli.jobs () in
  let crashes =
    Arg.(
      value
      & opt (some int) None
      & info [ "crashes" ] ~doc:"Override the profile's crash budget.")
  in
  let partitions =
    Arg.(
      value
      & opt (some int) None
      & info [ "partitions" ] ~doc:"Override the profile's partition budget.")
  in
  let no_shrink =
    Arg.(value & flag & info [ "no-shrink" ] ~doc:"Report raw counterexamples.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Write one repro file per failing seed into $(docv).")
  in
  let run protocol runs seed jobs crashes partitions no_shrink out network =
    let h = Option.get (Thc_check.Harness.find protocol) in
    (* Periodic progress: one line per tenth of the sweep (virtual-time
       counters only, so repeated runs print identical lines — the pool
       delivers outcomes in seed order at every --jobs value). *)
    let stride = max 1 ((runs + 9) / 10) in
    let progress ~completed ~failures =
      if completed mod stride = 0 || completed = runs then
        Format.printf "[sweep] %d/%d seeds run, %d failure(s)@." completed runs
          failures
    in
    let summary =
      Thc_check.Sweep.sweep h ?crashes ?partitions ?network ~progress ~jobs
        ~stats:(Cli.stats_reporter ~jobs) ~base_seed:seed ~runs ()
    in
    Format.printf "%a@." Thc_check.Sweep.pp_summary summary;
    Format.printf "expectation: %a@." Thc_check.Harness.pp_expectation
      h.Thc_check.Harness.expect;
    let failures = summary.Thc_check.Sweep.failures in
    let shrunk =
      List.map
        (fun (o : Thc_check.Sweep.outcome) ->
          if no_shrink then o
          else
            let last_events = ref (-1) in
            let r =
              Thc_check.Shrink.shrink h ?network
                ~on_round:(fun ~rounds ~attempts ~events ->
                  (* A line when the script actually shrank, plus a
                     heartbeat every 10 rounds of horizon-halving. *)
                  if events <> !last_events || rounds mod 10 = 0 then
                    Format.printf
                      "[shrink] seed %Ld: round %d, %d candidate runs, %d \
                       events left@."
                      o.Thc_check.Sweep.seed rounds attempts events;
                  last_events := events)
                ~seed:o.Thc_check.Sweep.seed ~script:o.Thc_check.Sweep.script
                ~report:o.Thc_check.Sweep.report ()
            in
            Format.printf "seed %Ld: shrunk %d -> %d adversary events (%d runs, %d rounds)@."
              o.Thc_check.Sweep.seed
              (List.length o.Thc_check.Sweep.script.Thc_sim.Adversary.events)
              (List.length r.Thc_check.Shrink.script.Thc_sim.Adversary.events)
              r.Thc_check.Shrink.attempts r.Thc_check.Shrink.rounds;
            {
              o with
              Thc_check.Sweep.script = r.Thc_check.Shrink.script;
              report = r.Thc_check.Shrink.report;
            })
        failures
    in
    (* Full repro sexps for the first few failures; the rest by seed only,
       so large sweeps stay readable (and two identical sweeps stay
       byte-identical). *)
    let shown, rest =
      if List.length shrunk <= 3 then (shrunk, [])
      else (List.filteri (fun i _ -> i < 3) shrunk, List.filteri (fun i _ -> i >= 3) shrunk)
    in
    List.iter
      (fun (o : Thc_check.Sweep.outcome) ->
        let repro = Thc_check.Repro.of_outcome ~protocol o in
        Format.printf "%s@." (Thc_util.Sexp.to_string_hum (Thc_check.Repro.to_sexp repro)))
      shown;
    if rest <> [] then
      Format.printf "... and %d more failing seeds:%s@." (List.length rest)
        (String.concat ""
           (List.map
              (fun (o : Thc_check.Sweep.outcome) ->
                Printf.sprintf " %Ld" o.Thc_check.Sweep.seed)
              rest));
    Option.iter
      (fun dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (o : Thc_check.Sweep.outcome) ->
            let path =
              Filename.concat dir
                (Printf.sprintf "%s-seed%Ld.sexp" protocol o.Thc_check.Sweep.seed)
            in
            Thc_check.Repro.save path (Thc_check.Repro.of_outcome ~protocol o);
            Format.printf "wrote %s@." path)
          shrunk)
      out;
    (* Failures on a Clean protocol are bugs; on Broken/Vulnerable they are
       the documented behaviour, so they don't fail the command. *)
    if failures <> [] && h.Thc_check.Harness.expect = Thc_check.Harness.Clean then
      exit 1
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sweep a protocol harness over random adversary scripts, shrink any \
          counterexamples, and print them as repro S-expressions.")
    Term.(
      const run $ protocol_arg $ runs $ seed $ jobs $ crashes $ partitions
      $ no_shrink $ out $ Cli.network ())

(* --- replay ---------------------------------------------------------------- *)

let replay_cmd =
  let files =
    Arg.(
      non_empty & pos_all file []
      & info [] ~docv:"FILE" ~doc:"Repro files written by $(b,thc explore).")
  in
  let run files =
    let ok = ref true in
    List.iter
      (fun file ->
        match Thc_check.Repro.load file with
        | Error msg ->
          ok := false;
          Format.printf "%s: %s@." file msg
        | Ok repro -> (
          match Thc_check.Repro.replay repro with
          | Error msg ->
            ok := false;
            Format.printf "%s: %s@." file msg
          | Ok r ->
            if not r.Thc_check.Repro.matched then ok := false;
            Format.printf "%s: %a@." file Thc_check.Repro.pp_replay r))
      files;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Re-run persisted repro files deterministically and check each \
          reproduces its documented verdict.")
    Term.(const run $ files)

(* --- attack ---------------------------------------------------------------- *)

let attack_cmd =
  let module A = Thc_byz.Attack in
  let module M = Thc_byz.Matrix in
  let target =
    Arg.(
      value
      & pos 0
          (enum
             [
               ("minbft", `Minbft); ("unattested", `Unattested);
               ("ubft", `Ubft); ("both", `Both); ("all", `All);
             ])
          `Both
      & info [] ~docv:"TARGET"
          ~doc:
            "Protocol to attack: $(b,minbft) (trusted counters), \
             $(b,unattested) (MinBFT on a TrInc world without \
             monotonicity), $(b,ubft) (SWMR \
             registers), $(b,both) (minbft + unattested) or $(b,all).")
  in
  let attack =
    Arg.(
      value & pos 1 string "all"
      & info [] ~docv:"ATTACK"
          ~doc:"Attack name (see $(b,--list)) or $(b,all).")
  in
  let seed = Cli.seed () in
  let f = Arg.(value & opt non_negative_int 1 & info [ "f" ] ~doc:"Fault bound (n = 2f+1).") in
  let corrupt_at =
    Arg.(
      value & opt int64 5_000L
      & info [ "corrupt-at" ]
          ~doc:"Virtual µs at which the corruption fires (single-run mode).")
  in
  let runs =
    Cli.runs ~default:1
      ~doc:
        "Seeds to sweep.  With more than one, every attack runs across \
         seeds x corruption timings and a pass/fail matrix is printed."
      ()
  in
  let export =
    Cli.export ~doc:"Write the sweep as thc-attack/v1 JSONL to $(docv)." ()
  in
  let jobs = Cli.jobs () in
  let top =
    Cli.top ~default:4
      ~doc:
        "Stalled request spans shown per attack in single-run mode (where \
         each injected or starved request's causal trace says which phase \
         the hardware discipline stopped it at)."
      ()
  in
  let list_only =
    Arg.(value & flag & info [ "list" ] ~doc:"List the catalog and exit.")
  in
  (* Single-run drill-down: the causal span of every request that never
     reached its reply — the attacker's conflicting writes die mid-pipeline
     and the furthest mark names the phase that refused them. *)
  let pp_stalled ~top (c : M.cell) =
    match c.M.result.A.stalled_spans with
    | [] -> ()
    | spans ->
      Format.printf "  requests stopped mid-pipeline (%d):@."
        (List.length spans);
      List.iteri
        (fun i (v : Thc_obsv.Span.view) ->
          if i < top then
            match Thc_obsv.Span.last_mark v with
            | Some (mark, at) ->
              Format.printf "    rid %d (client %d): reached %s at %Ldµs, \
                             then nothing@."
                v.Thc_obsv.Span.v_rid v.Thc_obsv.Span.v_client mark at
            | None ->
              Format.printf
                "    rid %d: no marks — refused before any replica \
                 accepted it@."
                v.Thc_obsv.Span.v_rid)
        spans;
      if List.length spans > top then
        Format.printf "    ... and %d more@." (List.length spans - top);
      Format.printf "@."
  in
  let run target attack seed f corrupt_at runs export jobs top list_only
      network =
    if list_only then begin
      let pp_catalog header kinds =
        Format.printf "%s@." header;
        List.iter
          (fun k ->
            Format.printf "%-17s %s@.%-17s claim: %s@." (A.name k)
              (A.describe k) "" (A.paper_claim k))
          kinds
      in
      pp_catalog
        "trusted-log catalog (minbft; equivocation also forks unattested):"
        A.all;
      pp_catalog "register catalog (ubft):" A.ubft_all;
      pp_catalog
        "checkpoint catalog (minbft; named runs only — kept \
         out of the 'all' sweep so its cell grid stays pinned):"
        A.ckpt_all
    end
    else begin
      let attacks =
        if attack = "all" then A.all @ A.ubft_all
        else
          match A.of_name attack with
          | Some k -> [ k ]
          | None ->
            Format.eprintf "unknown attack %S (try --list)@." attack;
            exit 2
      in
      let targets =
        match target with
        | `Minbft -> [ A.Minbft ]
        | `Unattested -> [ A.Unattested ]
        | `Ubft -> [ A.Ubft ]
        | `Both -> [ A.Minbft; A.Unattested ]
        | `All -> [ A.Minbft; A.Unattested; A.Ubft ]
      in
      (* Attacks outside every requested target's catalog would make an
         empty sweep read as success; reject the combination instead. *)
      let attacks =
        List.filter
          (fun a -> List.exists (fun t -> A.applies ~target:t ~attack:a) targets)
          attacks
      in
      if attacks = [] then begin
        Format.eprintf
          "attack %S applies to no requested target (try --list)@." attack;
        exit 2
      end;
      let seeds =
        List.init runs (fun i -> Int64.add seed (Int64.of_int i))
      in
      let timings =
        if runs > 1 then [ 2_000L; 5_000L; 20_000L ] else [ corrupt_at ]
      in
      let m =
        M.sweep ~jobs ~stats:(Cli.stats_reporter ~jobs) ~f ~seeds ~timings
          ~attacks ~targets ?network ()
      in
      if runs > 1 then Format.printf "%a@." M.pp m
      else
        List.iter
          (fun (c : M.cell) ->
            Format.printf "%a@.@." A.pp_result c.M.result;
            pp_stalled ~top c)
          m.M.cells;
      Option.iter
        (fun path ->
          M.export m path;
          Format.printf "wrote %s (%d cells, thc-attack/v1)@." path
            (List.length m.M.cells))
        export;
      if not (M.all_hold m) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:
         "Run the Byzantine attack catalog: scripted active adversaries \
          (equivocation, replay, attestation reuse, forged view-change \
          certificates, selective send, silent-then-lie) against MinBFT, \
          equivocation also against MinBFT on a TrInc world without \
          monotonicity, plus a register catalog (forged slots/acks, frozen \
          reads, withheld appends) against uBFT-sim.  Expected outcome, \
          checked: the attested protocols stay safe and the hardware ledger \
          records the rejection; the unattested one commits a divergent \
          operation.")
    Term.(
      const run $ target $ attack $ seed $ f $ corrupt_at $ runs $ export
      $ jobs $ top $ list_only $ Cli.network ())

(* --- trace ------------------------------------------------------------------ *)

let trace_cmd =
  let module PT = Thc_workload.Phase_trace in
  let module H = Thc_replication.Harness in
  let protocol =
    Arg.(
      required
      & pos 0 (some Protocol.conv) None
      & info [] ~docv:"PROTOCOL" ~doc:"minbft|pbft|ubft.")
  in
  let f = Arg.(value & opt non_negative_int 1 & info [ "f" ] ~doc:"Fault bound.") in
  let ops =
    Arg.(value & opt positive_int 30 & info [ "ops" ] ~doc:"Requests per client.")
  in
  let clients =
    Arg.(
      value & opt positive_int 2 & info [ "clients" ] ~doc:"Concurrent clients.")
  in
  let batch =
    Arg.(value & opt positive_int 4 & info [ "batch" ] ~doc:"Leader batch size.")
  in
  let interval =
    Arg.(
      value & opt non_negative_int64 5_000L
      & info [ "interval" ] ~doc:"µs between each client's requests.")
  in
  let runs = Cli.runs ~default:3 ~doc:"Seeds traced (seed, seed+1, …)." () in
  let seed = Cli.seed () in
  let jobs = Cli.jobs () in
  let top = Cli.top ~doc:"Slowest requests to drill into." () in
  let export =
    Cli.export ~doc:"Write the thc-span/v1 JSONL export to $(docv)." ()
  in
  let run protocol f ops clients batch interval runs seed jobs top export
      network =
    let setup =
      H.Setup.make ~protocol ~f ~ops ~clients ~batch ~interval ~seed ?network ()
    in
    let campaign =
      {
        PT.setup;
        seeds = List.init runs (fun i -> Int64.add seed (Int64.of_int i));
      }
    in
    let report = PT.run ~jobs ~stats:(Cli.stats_reporter ~jobs) campaign in
    Printf.printf
      "=== trace: %s  f=%d  clients=%d  ops/client=%d  batch=%d  seeds=%d \
       (base %Ld) ===\n"
      (Protocol.to_string protocol) f clients ops batch runs seed;
    let completed =
      List.fold_left (fun acc rd -> acc + rd.PT.rd_completed) 0 report.PT.runs
    in
    let commits =
      List.fold_left (fun acc rd -> acc + rd.PT.rd_commits) 0 report.PT.runs
    in
    Printf.printf "completed=%d  commits=%d  spans=%d (%d complete)\n\n"
      completed commits report.PT.summary.Thc_obsv.Span.spans_total
      report.PT.summary.Thc_obsv.Span.spans_complete;
    Format.printf "%a@." (PT.pp_report ~top) report;
    Option.iter
      (fun file -> write_file file (PT.export campaign report))
      export
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Trace every client request through the replication pipeline \
          (submit, leader ingress, batching, prepare, commit, execute, \
          reply) in virtual time and report the per-phase latency \
          breakdown, per-phase trusted-op attribution, and the slowest \
          requests' critical paths.  Deterministic per seed; spans export \
          as thc-span/v1 JSONL.")
    Term.(
      const run $ protocol $ f $ ops $ clients $ batch $ interval $ runs
      $ seed $ jobs $ top $ export $ Cli.network ())

(* --- main ------------------------------------------------------------------ *)

let () =
  let doc = "classifying trusted hardware via unidirectional communication" in
  (* Accept the GNU-ish spellings --n/--f for the single-letter options
     (cmdliner only auto-generates the short forms). *)
  let argv =
    Array.map (function "--n" -> "-n" | "--f" -> "-f" | s -> s) Sys.argv
  in
  exit
    (Cmd.eval ~argv
       (Cmd.group (Cmd.info "thc" ~doc)
          [ figure1_cmd; verify_cmd; scenarios_cmd; problems_cmd; rounds_cmd;
            smr_cmd; soak_cmd; loadtest_cmd; trace_cmd; report_cmd;
            attack_cmd; explore_cmd; replay_cmd ]))
