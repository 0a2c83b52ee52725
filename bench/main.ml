(* Benchmark harness: regenerates every experiment row of EXPERIMENTS.md.

   Each table is one experiment id of DESIGN.md, printed on stdout, and its
   headline numbers go to BENCH_results.json.  Every number is a
   virtual-time metric measured inside the simulator, so a run measures the
   model, never the machine: wall-clock cost belongs to bench/perf.

   The sweep-shaped tables run through Thc_exec.Pool, so `--jobs N` fans
   their cells out over domains; results merge in key order and both
   stdout and BENCH_results.json stay byte-identical at every value. *)

let fast = Thc_sim.Delay.Uniform (10L, 400L)

let keyring ~n ~seed = Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

(* ----------------------------------------------------------------------- *)
(* Machine-readable results (BENCH_results.json)                            *)
(*                                                                          *)
(* Each table also records its headline numbers here; the main function     *)
(* serialises them as                                                       *)
(*   {"schema":"thc-bench/v2","experiments":{<id>:{<metric>:<value>}}}      *)
(* v2 adds the s3.* throughput–latency curve keys produced by table_s3 and  *)
(* the byz.* attack-catalog keys produced by table_byz.                      *)
(* Every key is a virtual-time metric, identical across machines and runs;  *)
(* test_bench_golden pins the whole experiments object against              *)
(* test/corpus/golden/bench_experiments.json.                               *)
(* ----------------------------------------------------------------------- *)

module J = Thc_obsv.Json
module Pool = Thc_exec.Pool

(* Every (label, protocol) pair below goes through the one codec
   (Thc_replication.Protocol) — no hand-copied name maps. *)
let pname = Thc_replication.Protocol.to_string

let with_names ps = List.map (fun p -> (pname p, p)) ps

(* Parallelism for the sweep-shaped tables, set once from --jobs.  Tables
   read it instead of threading a parameter through every section. *)
let jobs = ref 1

(* The shared --network override: when set, the replication-harness and
   loadtest tables run under the named model instead of their legacy
   uniform clique (the S7 grid ignores it — it sweeps its own models). *)
let bench_network : Thc_network.Model.t option ref = ref None

(* Campaign size for the BENCH_results.json envelope: how many sweep cells
   the pooled tables executed.  Independent of --jobs, so the file stays
   byte-identical across parallelism. *)
let pool_keys_total = ref 0

let count_keys keys =
  pool_keys_total := !pool_keys_total + List.length keys;
  keys

(* Fan a table's cells out over the pool at the configured parallelism.
   Cells are pure and deterministic, so a failed job is a bug worth dying
   loudly on, not a hole to paper over. *)
let pool_run f keys =
  let rs, st = Pool.map_stats ~jobs:!jobs f keys in
  if !jobs > 1 then Format.eprintf "%a@." Pool.pp_stats st;
  List.map
    (function Ok r -> r | Error e -> failwith ("bench worker: " ^ e))
    rs

let results : (string, (string * J.t) list ref) Hashtbl.t = Hashtbl.create 16

let record exp name v =
  let rows =
    match Hashtbl.find_opt results exp with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add results exp r;
      r
  in
  rows := (name, v) :: !rows

let record_i exp name i = record exp name (J.Int i)
let record_f exp name f = record exp name (J.Float f)
let record_b exp name b = record exp name (J.Bool b)
let record_s exp name s = record exp name (J.Str s)

let results_path = "BENCH_results.json"

let write_results () =
  let by_name (a, _) (b, _) = compare a b in
  let experiments =
    Hashtbl.fold (fun id rows acc -> (id, !rows) :: acc) results []
    |> List.sort by_name
    |> List.map (fun (id, rows) -> (id, J.Obj (List.sort by_name rows)))
  in
  let doc =
    Thc_obsv.Envelope.header ~typ:"bench" ~schema:"thc-bench/v2"
      ~jobs:!pool_keys_total
      ~git:(Thc_exec.Gitinfo.describe ())
      ~extra:[ ("experiments", J.Obj experiments) ]
      ()
  in
  let oc = open_out_bin results_path in
  output_string oc (J.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "machine-readable results written to %s\n" results_path

(* ----------------------------------------------------------------------- *)
(* F1: hierarchy verification                                               *)
(* ----------------------------------------------------------------------- *)

let table_f1 () =
  section "F1 — Figure 1: hierarchy edges, each backed by a machine check";
  let results = Thc_classify.Hierarchy.verify Thc_classify.Hierarchy.paper in
  let t = Thc_util.Table.create [ "edge / separation"; "status"; "detail" ] in
  List.iter
    (fun (label, passed, detail) ->
      Thc_util.Table.add_row t
        [ label; (if passed then "PASS" else "FAIL"); detail ])
    results;
  Thc_util.Table.print t;
  record_i "f1" "edges_checked" (List.length results);
  record_i "f1" "edges_passed"
    (List.length (List.filter (fun (_, ok, _) -> ok) results));
  (match Thc_classify.Hierarchy.consistent Thc_classify.Hierarchy.paper with
  | Ok notes ->
    record_b "f1" "consistent" true;
    Printf.printf "hierarchy consistent; %d side-condition notes\n"
      (List.length notes)
  | Error ps ->
    record_b "f1" "consistent" false;
    Printf.printf "hierarchy INCONSISTENT (%d problems)\n" (List.length ps));
  let pairs =
    List.length
      (Thc_classify.Hierarchy.same_class_pairs Thc_classify.Hierarchy.paper)
  in
  record_i "f1" "equivalence_pairs" pairs;
  Printf.printf "equivalence classes proven: %d pairs\n" pairs

(* ----------------------------------------------------------------------- *)
(* C1: unidirectional rounds from shared memory — round latency             *)
(* ----------------------------------------------------------------------- *)

let run_driver_once ~driver ~n ~seed ~rounds =
  let keyring = keyring ~n ~seed in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let behavior = Thc_rounds.Shared_rounds.behaviors driver ~n ~keyring in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (behavior ~pid (Thc_rounds.Round_app.chatter ~rounds))
  done;
  Thc_sim.Engine.run ~until:60_000_000L engine

let table_c1 () =
  section "C1 — shared-memory drivers: virtual round latency, uni violations";
  let t =
    Thc_util.Table.create
      [ "driver"; "n"; "rounds"; "sim us/round"; "uni-violations" ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (name, driver) ->
          let rounds = 3 in
          let trace = run_driver_once ~driver ~n ~seed:7L ~rounds in
          let viol = Thc_rounds.Directionality.check_unidirectional trace in
          let us_per_round =
            Int64.to_float trace.Thc_sim.Trace.end_time /. float_of_int rounds
          in
          let key = Printf.sprintf "%s.n%d" name n in
          record_f "c1" (key ^ ".sim_us_per_round") us_per_round;
          record_i "c1" (key ^ ".uni_violations") (List.length viol);
          Thc_util.Table.add_row t
            [
              name;
              string_of_int n;
              string_of_int rounds;
              Printf.sprintf "%.0f" us_per_round;
              string_of_int (List.length viol);
            ])
        Thc_rounds.Shared_rounds.all)
    [ 3; 5; 9 ];
  Thc_util.Table.print t

(* ----------------------------------------------------------------------- *)
(* C2 / A2 / S2-neg: the separation scenarios                                *)
(* ----------------------------------------------------------------------- *)

let table_c2 () =
  section "C2/A2 — impossibility constructions (scenario outcomes)";
  List.iter
    (fun (key, r) ->
      record_b "c2" (key ^ ".holds") r.Thc_classify.Separations.holds;
      record_i "c2" (key ^ ".scenarios")
        (List.length r.Thc_classify.Separations.scenarios);
      Format.printf "%a@.@." Thc_classify.Separations.pp_result r)
    [
      ( "srb_no_uni",
        Thc_classify.Separations.srb_cannot_implement_unidirectionality () );
      ("rb_no_very_weak", Thc_classify.Separations.rb_cannot_solve_very_weak ());
      ( "wait_below_delta",
        Thc_classify.Separations.delta_wait_below_delta_not_unidirectional () );
    ]

(* ----------------------------------------------------------------------- *)
(* L1: SRB latency — Algorithm 1 over uni rounds vs trusted-log SRB          *)
(* ----------------------------------------------------------------------- *)

let srb_latency trace ~sender =
  let first_bcast = ref Int64.max_int in
  let last_dlv = ref 0L in
  List.iter
    (fun (time, _, obs) ->
      match (obs : Thc_sim.Obs.t) with
      | Srb_broadcast _ -> if time < !first_bcast then first_bcast := time
      | Srb_delivered { sender = s; _ } when s = sender ->
        if time > !last_dlv then last_dlv := time
      | _ -> ())
    (Thc_sim.Trace.outputs trace);
  if !last_dlv = 0L then None else Some (Int64.sub !last_dlv !first_bcast)

let messages msgs = List.init msgs (fun i -> Printf.sprintf "m%d" (i + 1))

let run_srb_uni ~n ~faults ~seed ~msgs =
  Thc_sim.Engine.run ~until:5_000_000L ~max_events:10_000_000
    (Thc_broadcast.Srb_harness.uni_cluster ~seed ~n ~faults
       ~values:(messages msgs))

let run_srb_trinc ~n ~seed ~msgs =
  let plan =
    List.mapi (fun i m -> (Int64.of_int (100 + (i * 50)), m)) (messages msgs)
  in
  Thc_sim.Engine.run ~until:5_000_000L
    (fst (Thc_broadcast.Srb_harness.trinc_cluster ~seed ~n ~plan))

let table_l1 () =
  section "L1/T1 — SRB implementations: virtual latency and messages";
  let t =
    Thc_util.Table.create
      [ "implementation"; "n"; "t"; "msgs"; "sim us (bcast->last dlvr)"; "net msgs"; "spec" ]
  in
  List.iter
    (fun (n, faults) ->
      let msgs = 3 in
      let spec v = if v = [] then "ok" else "VIOLATED" in
      let row impl key trace =
        let latency = srb_latency trace ~sender:0 in
        record "l1"
          (Printf.sprintf "%s.n%d.latency_us" key n)
          (match latency with Some l -> J.Int (Int64.to_int l) | None -> J.Null);
        record_i "l1"
          (Printf.sprintf "%s.n%d.net_msgs" key n)
          (Thc_sim.Trace.messages_sent trace);
        let ok = Thc_broadcast.Srb_spec.check trace ~sender:0 = [] in
        record_b "l1" (Printf.sprintf "%s.n%d.spec_ok" key n) ok;
        Thc_util.Table.add_row t
          [
            impl;
            string_of_int n;
            string_of_int faults;
            string_of_int msgs;
            (match latency with Some l -> Int64.to_string l | None -> "-");
            string_of_int (Thc_sim.Trace.messages_sent trace);
            spec (if ok then [] else [ () ]);
          ]
      in
      row "srb-from-uni (Alg. 1)" "uni" (run_srb_uni ~n ~faults ~seed:11L ~msgs);
      row "srb-from-trinc" "trinc" (run_srb_trinc ~n ~seed:11L ~msgs))
    [ (3, 1); (5, 2); (7, 3) ];
  Thc_util.Table.print t;
  print_endline
    "(shape: the trusted-log SRB is cheaper per message; Algorithm 1 pays\n\
    \ three shared-memory rounds per sequence number but needs no hardware)"

(* ----------------------------------------------------------------------- *)
(* A1/A4: agreement latencies                                                *)
(* ----------------------------------------------------------------------- *)

let table_a1 () =
  section "A1/A4 — agreement: decision latency (virtual us)";
  let t =
    Thc_util.Table.create
      [ "protocol"; "model"; "n"; "f"; "sim us to all-decided"; "spec" ]
  in
  (* Very weak agreement over swmr uni rounds. *)
  List.iter
    (fun n ->
      let keyring = keyring ~n ~seed:13L in
      let net = Thc_sim.Net.create ~n ~default:fast in
      let engine = Thc_sim.Engine.create ~seed:13L ~n ~net () in
      let behavior = Thc_rounds.Shared_rounds.(behaviors Swmr) ~n ~keyring in
      for pid = 0 to n - 1 do
        Thc_sim.Engine.set_behavior engine pid
          (behavior ~pid
             (Thc_agreement.Very_weak.app
                (Thc_agreement.Very_weak.create ~input:"v")))
      done;
      let trace = Thc_sim.Engine.run ~until:5_000_000L engine in
      let ok =
        Thc_agreement.Agreement_spec.check `Very_weak
          ~inputs:(Array.make n (Some "v"))
          trace
        = []
      in
      record_i "a1"
        (Printf.sprintf "very_weak.n%d.sim_us" n)
        (Int64.to_int trace.Thc_sim.Trace.end_time);
      record_b "a1" (Printf.sprintf "very_weak.n%d.spec_ok" n) ok;
      Thc_util.Table.add_row t
        [
          "very-weak";
          "unidirectional";
          string_of_int n;
          string_of_int (n - 1);
          Int64.to_string trace.Thc_sim.Trace.end_time;
          (if ok then "ok" else "VIOLATED");
        ])
    [ 3; 5; 9 ];
  (* Strong validity over bidirectional rounds: f+1 lock-step rounds. *)
  List.iter
    (fun (n, f) ->
      let keyring = keyring ~n ~seed:14L in
      let net =
        Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 900L))
      in
      let engine = Thc_sim.Engine.create ~seed:14L ~n ~net () in
      for pid = 0 to n - 1 do
        Thc_sim.Engine.set_behavior engine pid
          (Thc_rounds.Sync_rounds.behavior ~period:1_000L
             (Thc_agreement.Strong_validity.app
                (Thc_agreement.Strong_validity.create ~keyring
                   ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
                   ~n ~f ~input:"v")))
      done;
      let trace = Thc_sim.Engine.run ~until:60_000L engine in
      let ok =
        Thc_agreement.Agreement_spec.check `Strong
          ~inputs:(Array.make n (Some "v"))
          trace
        = []
      in
      record_i "a1"
        (Printf.sprintf "strong.n%d.sim_us" n)
        ((f + 1) * 1_000);
      record_b "a1" (Printf.sprintf "strong.n%d.spec_ok" n) ok;
      Thc_util.Table.add_row t
        [
          "strong-validity";
          "bidirectional";
          string_of_int n;
          string_of_int f;
          Int64.to_string (Int64.mul (Int64.of_int (f + 1)) 1_000L);
          (if ok then "ok" else "VIOLATED");
        ])
    [ (3, 1); (5, 2); (7, 3) ];
  Thc_util.Table.print t

(* ----------------------------------------------------------------------- *)
(* A3: weak-validity agreement with n = 2f+1                                 *)
(* ----------------------------------------------------------------------- *)

let table_a3 () =
  section "A3 — weak-validity agreement on trusted counters (n = 2f+1)";
  let t =
    Thc_util.Table.create
      [ "f"; "n"; "inputs"; "scenario"; "agreement"; "validity"; "termination"; "view"; "msgs" ]
  in
  List.iter
    (fun f ->
      let n = (2 * f) + 1 in
      let common = Array.make n "v" in
      let mixed = Array.init n (fun i -> Printf.sprintf "x%d" i) in
      let row label inputs crash =
        let o =
          Thc_agreement.Weak_validity.run ~f ~inputs ~seed:31L
            ~crash_leader:crash ()
        in
        let key =
          Printf.sprintf "f%d.%s.%s" f label
            (if crash then "crash_leader" else "fault_free")
        in
        record_b "a3" (key ^ ".agreement") o.agreement;
        record_b "a3" (key ^ ".validity") o.validity;
        record_b "a3" (key ^ ".termination") o.termination;
        record_i "a3" (key ^ ".messages") o.messages;
        Thc_util.Table.add_row t
          [
            string_of_int f;
            string_of_int n;
            label;
            (if crash then "crash-leader" else "fault-free");
            string_of_bool o.agreement;
            string_of_bool o.validity;
            string_of_bool o.termination;
            string_of_int o.final_view;
            string_of_int o.messages;
          ]
      in
      row "common" common false;
      row "mixed" mixed false;
      row "mixed" mixed true)
    [ 1; 2; 3 ];
  Thc_util.Table.print t

(* ----------------------------------------------------------------------- *)
(* AB: ablation — remove the trusted hardware, keep the quorums              *)
(* ----------------------------------------------------------------------- *)

let table_ablation () =
  section "AB — ablation: identical split attack, with and without attestation";
  let t =
    Thc_util.Table.create
      [ "variant"; "f"; "safety violations"; "distinct ops at seq 1"; "verdict" ]
  in
  List.iter
    (fun f ->
      let split = Thc_replication.Ablation.equivocation_splits_unattested ~f () in
      let held = Thc_replication.Ablation.equivocation_fails_against_minbft ~f () in
      let trusted_total =
        List.fold_left (fun acc (_, c) -> acc + c) 0 held.trusted_ops
      in
      record_i "ablation"
        (Printf.sprintf "f%d.unattested.violations" f)
        (List.length split.violations);
      record_i "ablation"
        (Printf.sprintf "f%d.unattested.distinct_ops_at_seq1" f)
        split.distinct_ops_at_seq1;
      record_i "ablation"
        (Printf.sprintf "f%d.minbft.violations" f)
        (List.length held.violations);
      record_i "ablation"
        (Printf.sprintf "f%d.minbft.distinct_ops_at_seq1" f)
        held.distinct_ops_at_seq1;
      record_i "ablation"
        (Printf.sprintf "f%d.minbft.trusted_ops" f)
        trusted_total;
      Thc_util.Table.add_row t
        [
          "MinBFT, unattested world (no monotonicity)";
          string_of_int f;
          string_of_int (List.length split.violations);
          string_of_int split.distinct_ops_at_seq1;
          "SPLIT";
        ];
      Thc_util.Table.add_row t
        [
          "MinBFT, TrInc world";
          string_of_int f;
          string_of_int (List.length held.violations);
          string_of_int held.distinct_ops_at_seq1;
          "safe";
        ])
    [ 1; 2; 3 ];
  Thc_util.Table.print t;
  print_endline
    "(the non-equivocation layer — not the quorum arithmetic — carries the\n\
    \ safety of f+1 quorums; removing it re-creates the classic split-brain)"

(* ----------------------------------------------------------------------- *)
(* BYZ: the scripted attack catalog against both targets                     *)
(* ----------------------------------------------------------------------- *)

(* The in-catalog (attack, target) pairs of the MinBFT rig's two worlds. *)
let catalog_cells attacks =
  List.concat_map
    (fun attack ->
      List.filter_map
        (fun target ->
          if Thc_byz.Attack.applies ~target ~attack then Some (attack, target)
          else None)
        [ Thc_byz.Attack.Minbft; Thc_byz.Attack.Unattested ])
    attacks

let table_byz () =
  section "BYZ — attack catalog: six active adversaries, attested vs not";
  let t =
    Thc_util.Table.create
      [
        "attack"; "target"; "violations"; "ops@seq1"; "hw rejections";
        "verdict";
      ]
  in
  let all_hold = ref true in
  let cells = count_keys (catalog_cells Thc_byz.Attack.all) in
  let rows =
    pool_run
      (fun (attack, target) -> Thc_byz.Attack.run ~seed:1L ~target ~attack ())
      cells
  in
  List.iter2
    (fun (attack, target) r ->
      let aname = Thc_byz.Attack.name attack in
      let holds = Thc_byz.Attack.holds r in
          all_hold := !all_hold && holds;
          let tname = Thc_byz.Attack.target_name target in
          record_i "byz"
            (Printf.sprintf "%s.%s.violations" aname tname)
            r.Thc_byz.Attack.safety_violations;
          (match target with
          | Thc_byz.Attack.Minbft | Thc_byz.Attack.Ubft ->
            record_i "byz"
              (Printf.sprintf "%s.%s.rejections" aname tname)
              r.Thc_byz.Attack.rejections
          | Thc_byz.Attack.Unattested ->
            record_i "byz"
              (Printf.sprintf "%s.%s.distinct_ops_at_seq1" aname tname)
              r.Thc_byz.Attack.distinct_ops_at_seq1);
          Thc_util.Table.add_row t
            [
              aname;
              tname;
              string_of_int r.Thc_byz.Attack.safety_violations;
              string_of_int r.Thc_byz.Attack.distinct_ops_at_seq1;
              (match target with
              | Thc_byz.Attack.Minbft | Thc_byz.Attack.Ubft ->
                string_of_int r.Thc_byz.Attack.rejections
              | Thc_byz.Attack.Unattested -> "-");
              (if holds then "as predicted" else "DIVERGES");
            ])
    cells rows;
  record_b "byz" "all_hold" !all_hold;
  Thc_util.Table.print t;
  print_endline
    "(every attack bounces off the attested protocol leaving a ledger\n\
    \ entry; on the unattested world equivocation forks the same MinBFT,\n\
    \ and the other kinds meet non-hardware defences — see ATTACKS.md)"

(* ----------------------------------------------------------------------- *)
(* S1: MinBFT (2f+1) vs PBFT (3f+1)                                          *)
(* ----------------------------------------------------------------------- *)

let table_s1 () =
  section "S1 — replication: MinBFT (trusted counters) vs PBFT baseline";
  let t =
    Thc_util.Table.create
      [
        "protocol"; "f"; "replicas"; "scenario"; "completed"; "msgs/op";
        "mean us"; "p99 us"; "view"; "safe"; "live";
      ]
  in
  let protocols =
    with_names [ Thc_replication.Protocol.Minbft; Thc_replication.Protocol.Pbft ]
  in
  let scenarios =
    [
      ("fault-free", Thc_replication.Harness.Fault_free);
      ("crash-leader", Thc_replication.Harness.Crash_leader 40_000L);
      ("f-silent", Thc_replication.Harness.Silent_replicas);
    ]
  in
  let cells =
    count_keys
      (List.concat_map
         (fun f ->
           List.concat_map
             (fun (pname, protocol) ->
               List.map
                 (fun (sname, scenario) -> (f, pname, protocol, sname, scenario))
                 scenarios)
             protocols)
         [ 1; 2; 3 ])
  in
  let run_cell (f, _, protocol, _, scenario) =
    Thc_replication.Harness.run
      (Thc_replication.Harness.Setup.make ~protocol ~f ~scenario ~seed:17L
         ?network:!bench_network ())
  in
  let outcomes = pool_run run_cell cells in
  List.iter2
    (fun (f, pname, _, sname, _) (o : Thc_replication.Harness.outcome) ->
      let key = Printf.sprintf "%s.f%d.%s" pname f sname in
              record_i "s1" (key ^ ".completed") o.completed;
              record_i "s1" (key ^ ".commits") o.commits;
              record_f "s1" (key ^ ".msgs_per_op") o.messages_per_op;
              record_f "s1" (key ^ ".mean_us") o.latency.mean;
              record_f "s1" (key ^ ".p99_us") o.latency.p99;
              record_f "s1" (key ^ ".trusted_per_commit") o.trusted_per_commit;
              record_b "s1" (key ^ ".safe") (o.safety_violations = []);
              record_b "s1" (key ^ ".live") (o.liveness_violations = []);
              Thc_util.Table.add_row t
                [
                  pname;
                  string_of_int f;
                  string_of_int o.replicas;
                  sname;
                  Printf.sprintf "%d/25" o.completed;
                  Printf.sprintf "%.1f" o.messages_per_op;
                  Printf.sprintf "%.0f" o.latency.mean;
                  Printf.sprintf "%.0f" o.latency.p99;
                  string_of_int o.final_view;
                  (if o.safety_violations = [] then "yes" else "NO");
                  (if o.liveness_violations = [] then "yes" else "NO");
                ])
    cells outcomes;
  Thc_util.Table.print t;
  print_endline
    "(shape: MinBFT commits with 2f+1 replicas, ~1/3 the messages per op and\n\
    \ lower latency than PBFT's 3f+1, at every f — the motivation of the\n\
    \ trusted-hardware line the paper classifies)"

(* ----------------------------------------------------------------------- *)
(* S1b: delay sensitivity + message breakdown                                *)
(* ----------------------------------------------------------------------- *)

let table_s1b () =
  section "S1b — replication: link-delay sensitivity and message breakdown";
  let t =
    Thc_util.Table.create
      [ "protocol"; "link delay"; "mean us"; "p99 us"; "msgs/op"; "breakdown (top kinds)" ]
  in
  let delays =
    [
      ("50-200 us", Thc_sim.Delay.Uniform (50L, 200L));
      ("0.2-1 ms", Thc_sim.Delay.Uniform (200L, 1_000L));
      ("exp(1 ms)", Thc_sim.Delay.Exponential 1_000.0);
    ]
  in
  List.iter
    (fun (pname, protocol) ->
      List.iter
        (fun (dname, delay) ->
          let o =
            Thc_replication.Harness.run
              (Thc_replication.Harness.Setup.make ~protocol ~f:1 ~delay
                 ~seed:19L ?network:!bench_network ())
          in
          let top =
            o.breakdown
            |> List.filteri (fun i _ -> i < 3)
            |> List.map (fun (k, c) -> Printf.sprintf "%s:%d" k c)
            |> String.concat " "
          in
          let key =
            Printf.sprintf "%s.%s" pname
              (String.map (function ' ' | '(' | ')' -> '_' | c -> c) dname)
          in
          record_f "s1b" (key ^ ".mean_us") o.latency.mean;
          record_f "s1b" (key ^ ".p99_us") o.latency.p99;
          record_f "s1b" (key ^ ".msgs_per_op") o.messages_per_op;
          Thc_util.Table.add_row t
            [
              pname;
              dname;
              Printf.sprintf "%.0f" o.latency.mean;
              Printf.sprintf "%.0f" o.latency.p99;
              Printf.sprintf "%.1f" o.messages_per_op;
              top;
            ])
        delays)
    (with_names [ Thc_replication.Protocol.Minbft; Thc_replication.Protocol.Pbft ]);
  Thc_util.Table.print t;
  print_endline
    "(latency tracks the delay distribution with the same protocol-phase\n\
    \ multiplier; the breakdown shows where the message gap lives: PBFT's\n\
    \ all-to-all prepare phase)"

(* ----------------------------------------------------------------------- *)
(* S3: throughput–latency curve with request batching                        *)
(* ----------------------------------------------------------------------- *)

let table_s3 () =
  section
    "S3 — loadtest: throughput-latency curve and trusted-op amortization";
  let module W = Thc_workload.Workload in
  let module L = Thc_workload.Loadtest in
  let t =
    Thc_util.Table.create
      [
        "protocol"; "rate r/s"; "batch"; "completed"; "thru r/s"; "p50 us";
        "p99 us"; "trusted/req";
      ]
  in
  let rates = [ 400.; 1200. ] in
  let batches = [ 1; 4 ] in
  List.iter
    (fun (pname, protocol) ->
      let template =
        {
          L.protocol;
          f = 1;
          batch = 1;
          seed = 29L;
          delay = Thc_sim.Delay.Uniform (50L, 500L);
          network = !bench_network;
          spec =
            {
              W.clients = 4;
              requests_per_client = 20;
              arrival = W.Open_poisson { rate_rps = List.hd rates };
              keys = W.Keys_zipf { keys = 64; theta = 0.99 };
              mix = W.default_mix;
            };
        }
      in
      let arrivals =
        List.map (fun r -> W.Open_poisson { rate_rps = r }) rates
      in
      ignore
        (count_keys
           (List.concat_map (fun a -> List.map (fun b -> (a, b)) batches)
              arrivals));
      let stats st =
        if !jobs > 1 then Format.eprintf "%a@." Pool.pp_stats st
      in
      let results = L.sweep ~jobs:!jobs ~stats template ~arrivals ~batches in
      List.iter
        (fun (r : L.result) ->
          let rate =
            match r.L.point.L.spec.W.arrival with
            | W.Open_poisson { rate_rps } | W.Open_uniform { rate_rps } ->
              rate_rps
            | W.Closed _ -> 0.0
          in
          let key =
            Printf.sprintf "%s.rate%.0f.b%d" pname rate r.L.point.L.batch
          in
          record_i "s3" (key ^ ".completed") r.L.completed;
          record_f "s3" (key ^ ".throughput_rps") r.L.throughput_rps;
          record_f "s3" (key ^ ".p50_us") r.L.latency.Thc_util.Stats.p50;
          record_f "s3" (key ^ ".p99_us") r.L.latency.Thc_util.Stats.p99;
          record_f "s3" (key ^ ".trusted_per_req") r.L.trusted_per_request;
          Thc_util.Table.add_row t
            [
              pname;
              Printf.sprintf "%.0f" rate;
              string_of_int r.L.point.L.batch;
              Printf.sprintf "%d/%d" r.L.completed r.L.offered;
              Printf.sprintf "%.1f" r.L.throughput_rps;
              Printf.sprintf "%.0f" r.L.latency.Thc_util.Stats.p50;
              Printf.sprintf "%.0f" r.L.latency.Thc_util.Stats.p99;
              Printf.sprintf "%.3f" r.L.trusted_per_request;
            ])
        results)
    (with_names [ Thc_replication.Protocol.Minbft; Thc_replication.Protocol.Pbft ]);
  Thc_util.Table.print t;
  print_endline
    "(one trusted-counter attestation seals a whole MinBFT batch, so\n\
    \ trusted ops per committed request fall as the leader batches harder;\n\
    \ PBFT spends none either way — its cost lives in the extra replicas\n\
    \ and the all-to-all phase)"

(* ----------------------------------------------------------------------- *)
(* S2: delta-synchrony sweep                                                 *)
(* ----------------------------------------------------------------------- *)

let table_s2 () =
  section "S2 — delta-synchronous rounds: wait sweep (10 seeds each)";
  let delta = 1_000L in
  let t =
    Thc_util.Table.create
      [ "wait"; "runs with uni violation"; "runs with bi violation"; "classification" ]
  in
  List.iter
    (fun (label, wait) ->
      let uni_bad = ref 0 and bi_bad = ref 0 in
      let seeds = List.init 10 (fun i -> Int64.of_int (1000 + i)) in
      List.iter
        (fun seed ->
          let n = 4 in
          let net =
            Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, delta))
          in
          let engine = Thc_sim.Engine.create ~seed ~n ~net () in
          let rng = Thc_util.Rng.create seed in
          for pid = 0 to n - 1 do
            Thc_sim.Engine.set_behavior engine pid
              (Thc_rounds.Delta_rounds.behavior ~wait
                 ~start_offset:(Int64.of_int (Thc_util.Rng.int rng 3_000))
                 (Thc_rounds.Round_app.chatter ~rounds:3))
          done;
          let trace = Thc_sim.Engine.run ~until:1_000_000L engine in
          if Thc_rounds.Directionality.check_unidirectional trace <> [] then
            incr uni_bad;
          if Thc_rounds.Directionality.check_bidirectional trace <> [] then
            incr bi_bad)
        seeds;
      let classification =
        if !uni_bad > 0 then "zero-directional"
        else if !bi_bad > 0 then "unidirectional (not bi)"
        else "bidirectional"
      in
      let key = Printf.sprintf "wait_%Ldus" wait in
      record_i "s2" (key ^ ".uni_violating_runs") !uni_bad;
      record_i "s2" (key ^ ".bi_violating_runs") !bi_bad;
      record_s "s2" (key ^ ".classification") classification;
      Thc_util.Table.add_row t
        [ label; Printf.sprintf "%d/10" !uni_bad; Printf.sprintf "%d/10" !bi_bad; classification ])
    [ ("0.3 * delta", 300L); ("1.0 * delta", delta); ("2.0 * delta", 2_000L) ];
  Thc_util.Table.print t;
  print_endline
    "(paper: wait < delta gives nothing beyond zero-directionality; wait >=\n\
    \ delta gives unidirectionality; no finite wait gives bidirectionality\n\
    \ without synchronized round starts)"

let table_problems () =
  section "P — problem/model capability matrix (paper: Problems Considered)";
  print_string (Thc_classify.Problems.render ());
  let results = Thc_classify.Problems.verify () in
  let failed = List.filter (fun (_, ok, _) -> not ok) results in
  record_i "problems" "cells_checked" (List.length results);
  record_i "problems" "cells_passed" (List.length results - List.length failed);
  Printf.printf "machine-checkable cells: %d/%d PASS\n"
    (List.length results - List.length failed)
    (List.length results)

(* ----------------------------------------------------------------------- *)
(* S5: request-span phase breakdown — where time and trusted ops go         *)
(* ----------------------------------------------------------------------- *)

let table_s5 () =
  section "S5 — request-span phase breakdown: where time and trusted ops go";
  let t =
    Thc_util.Table.create
      [ "variant"; "phase"; "spans"; "p50 us"; "p99 us"; "mean us"; "trusted ops" ]
  in
  let add_rows vname (summary : Thc_obsv.Span.summary) =
    record_i "s5" (vname ^ ".spans_total") summary.Thc_obsv.Span.spans_total;
    record_i "s5" (vname ^ ".spans_complete")
      summary.Thc_obsv.Span.spans_complete;
    List.iter
      (fun (r : Thc_obsv.Span.phase_row) ->
        let key = Printf.sprintf "%s.%s" vname r.Thc_obsv.Span.p_name in
        record_i "s5" (key ^ ".count") r.Thc_obsv.Span.p_count;
        (match r.Thc_obsv.Span.p_p50 with
        | Some v -> record_i "s5" (key ^ ".p50_us") (Int64.to_int v)
        | None -> ());
        (match r.Thc_obsv.Span.p_p99 with
        | Some v -> record_i "s5" (key ^ ".p99_us") (Int64.to_int v)
        | None -> ());
        (match r.Thc_obsv.Span.p_mean with
        | Some m -> record_f "s5" (key ^ ".mean_us") m
        | None -> ());
        let ops =
          List.fold_left (fun acc (_, c) -> acc + c) 0 r.Thc_obsv.Span.p_ops
        in
        record_i "s5" (key ^ ".trusted_ops") ops;
        Thc_util.Table.add_row t
          [
            vname;
            r.Thc_obsv.Span.p_name;
            string_of_int r.Thc_obsv.Span.p_count;
            (match r.Thc_obsv.Span.p_p50 with
            | Some v -> Int64.to_string v
            | None -> "-");
            (match r.Thc_obsv.Span.p_p99 with
            | Some v -> Int64.to_string v
            | None -> "-");
            (match r.Thc_obsv.Span.p_mean with
            | Some m -> Printf.sprintf "%.0f" m
            | None -> "-");
            string_of_int ops;
          ])
      summary.Thc_obsv.Span.rows
  in
  let setup protocol : Thc_replication.Harness.setup =
    Thc_replication.Harness.Setup.make ~protocol ~f:1 ~clients:2 ~batch:4
      ~seed:17L ?network:!bench_network ()
  in
  List.iter
    (fun (vname, protocol) ->
      let _, views, ops = Thc_replication.Harness.run_spans (setup protocol) in
      add_rows vname (Thc_obsv.Span.summarize ~ops views))
    (with_names [ Thc_replication.Protocol.Minbft; Thc_replication.Protocol.Pbft ]);
  Thc_util.Table.print t;
  print_endline
    "(the prepare and commit phases carry MinBFT's whole trusted-op bill —\n\
    \ one attest per sealed batch plus a check per receiving replica —\n\
    \ while PBFT spends comparable virtual time with zero trusted ops and\n\
    \ f extra replicas.  No unattested row: MinBFT on the unattested world\n\
    \ runs these exact phases in the same virtual time by construction,\n\
    \ with 0 in the trusted-ops column)"

(* ----------------------------------------------------------------------- *)
(* S6: the "strictly stronger" edge, measured — MinBFT vs PBFT vs uBFT-sim  *)
(* ----------------------------------------------------------------------- *)

let table_s6 () =
  section
    "S6 — Figure 1's strictly-stronger edge: trusted logs vs SWMR registers";
  let t =
    Thc_util.Table.create
      [
        "protocol"; "f"; "replicas"; "completed"; "p50 us"; "p90 us";
        "p99 us"; "msgs/op"; "trusted/req"; "safe";
      ]
  in
  let protocols =
    with_names Thc_replication.Protocol.all
  in
  let cells =
    count_keys
      (List.concat_map
         (fun f ->
           List.map (fun (pname, protocol) -> (f, pname, protocol)) protocols)
         [ 1; 2 ])
  in
  (* Same fault-free workload at equal f for all three: the measured gap is
     protocol structure alone.  MinBFT's trusted/req counts counter
     seals/verifies, uBFT's counts register reads/writes/appends — the two
     currencies of adjacent Figure 1 classes; PBFT spends neither. *)
  let run_cell (f, _, protocol) =
    Thc_replication.Harness.run
      (Thc_replication.Harness.Setup.make ~protocol ~f ~clients:2 ~seed:17L
         ?network:!bench_network ())
  in
  let outcomes = pool_run run_cell cells in
  let pq h q =
    match Thc_obsv.Metrics.Histogram.quantile h q with
    | Some v -> Int64.to_int v
    | None -> 0
  in
  List.iter2
    (fun (f, pname, _) (o : Thc_replication.Harness.outcome) ->
      let key = Printf.sprintf "%s.f%d" pname f in
      let p50 = pq o.lat_hist 0.50
      and p90 = pq o.lat_hist 0.90
      and p99 = pq o.lat_hist 0.99 in
      record_i "s6" (key ^ ".completed") o.completed;
      record_i "s6" (key ^ ".p50_us") p50;
      record_i "s6" (key ^ ".p90_us") p90;
      record_i "s6" (key ^ ".p99_us") p99;
      record_f "s6" (key ^ ".msgs_per_op") o.messages_per_op;
      record_f "s6" (key ^ ".trusted_per_req") o.trusted_per_request;
      record_b "s6" (key ^ ".safe") (o.safety_violations = []);
      Thc_util.Table.add_row t
        [
          pname;
          string_of_int f;
          string_of_int o.replicas;
          Printf.sprintf "%d/50" o.completed;
          string_of_int p50;
          string_of_int p90;
          string_of_int p99;
          Printf.sprintf "%.1f" o.messages_per_op;
          Printf.sprintf "%.1f" o.trusted_per_request;
          (if o.safety_violations = [] then "yes" else "NO");
        ])
    cells outcomes;
  Thc_util.Table.print t;
  print_endline
    "(the strictly-stronger edge as latency: registers let uBFT-sim answer\n\
    \ in 3 hops where MinBFT's counter discipline needs 4, so uBFT's p50\n\
    \ undercuts MinBFT's at equal f — paying more trusted ops per request\n\
    \ (register reads are trusted-memory traffic, counter seals are not)\n\
    \ and fewer messages; PBFT needs f extra replicas to buy the same\n\
    \ safety with no hardware at all)"

let table_s7 () =
  section "S7 — protocol x network grid: where the topology moves the ranking";
  let t =
    Thc_util.Table.create
      [
        "protocol"; "network"; "completed"; "p50 us"; "p99 us"; "msgs/op";
        "trusted/req"; "safe";
      ]
  in
  let protocols =
    with_names Thc_replication.Protocol.all
  in
  (* Named presets from the same parser the CLIs use, so every cell of this
     grid is reproducible as `thc ... --network <name>`. *)
  let networks =
    List.map
      (fun name ->
        match Thc_network.Model.of_string name with
        | Ok m -> (name, m)
        | Error e -> failwith ("s7: bad preset " ^ name ^ ": " ^ e))
      [ "lan"; "uniform"; "geo3"; "lossy" ]
  in
  let cells =
    count_keys
      (List.concat_map
         (fun (pname, protocol) ->
           List.map (fun (nname, m) -> (pname, protocol, nname, m)) networks)
         protocols)
  in
  (* Same fault-free workload and seed for every cell: the measured movement
     is the network model alone.  f = 1 keeps uBFT and MinBFT at 3 replicas
     vs PBFT's 4 — under geo3 the fourth replica drags PBFT's quorums
     across the WAN more often. *)
  let run_cell (_, protocol, _, m) =
    Thc_replication.Harness.run
      (Thc_replication.Harness.Setup.make ~protocol ~f:1 ~clients:2 ~seed:17L
         ~network:m ())
  in
  let outcomes = pool_run run_cell cells in
  let pq h q =
    match Thc_obsv.Metrics.Histogram.quantile h q with
    | Some v -> Int64.to_int v
    | None -> 0
  in
  let p50s = ref [] in
  List.iter2
    (fun (pname, _, nname, m) (o : Thc_replication.Harness.outcome) ->
      let key = Printf.sprintf "%s.%s" pname nname in
      let p50 = pq o.lat_hist 0.50 and p99 = pq o.lat_hist 0.99 in
      p50s := ((pname, nname), p50) :: !p50s;
      record_s "s7" (key ^ ".network_tag") (Thc_network.Model.tag m);
      record_i "s7" (key ^ ".completed") o.completed;
      record_i "s7" (key ^ ".p50_us") p50;
      record_i "s7" (key ^ ".p99_us") p99;
      record_f "s7" (key ^ ".msgs_per_op") o.messages_per_op;
      record_f "s7" (key ^ ".trusted_per_req") o.trusted_per_request;
      record_b "s7" (key ^ ".safe") (o.safety_violations = []);
      Thc_util.Table.add_row t
        [
          pname;
          nname;
          Printf.sprintf "%d/50" o.completed;
          string_of_int p50;
          string_of_int p99;
          Printf.sprintf "%.1f" o.messages_per_op;
          Printf.sprintf "%.1f" o.trusted_per_request;
          (if o.safety_violations = [] then "yes" else "NO");
        ])
    cells outcomes;
  Thc_util.Table.print t;
  (* The headline: uBFT's 3-hop register path beats MinBFT on a LAN, but
     every register operation is a network round under geo3's WAN mix, so
     the gap moves with the topology.  Record the ratio so the claim is a
     number, not prose. *)
  let p50 pname nname =
    float_of_int (List.assoc (pname, nname) !p50s)
  in
  let ratio nname = p50 "ubft" nname /. p50 "minbft" nname in
  record_f "s7" "headline.ubft_vs_minbft_p50_ratio_lan" (ratio "lan");
  record_f "s7" "headline.ubft_vs_minbft_p50_ratio_geo3" (ratio "geo3");
  Printf.printf
    "(headline: uBFT p50 / MinBFT p50 = %.2f on lan vs %.2f under geo3 —\n\
    \ the protocol ranking is a property of the network model, which is\n\
    \ why the grid exists; every cell reproduces as\n\
    \ `thc smr <proto> --network <name>`-style runs at seed 17)\n"
    (ratio "lan") (ratio "geo3")

(* ----------------------------------------------------------------------- *)
(* S8: durability — attested checkpoints, truncation, state transfer        *)
(* ----------------------------------------------------------------------- *)

let table_s8 () =
  section
    "S8 — durability: attested checkpoints bound the log, verified state \
     transfer survives attack";
  (* Part 1: the checkpoint-interval sweep.  The live log's high-water-mark
     must stay within Durability.bound (2 x interval); interval 0 is the
     unbounded baseline. *)
  let t =
    Thc_util.Table.create
      [
        "interval"; "completed"; "log hwm"; "bound"; "stable"; "truncations";
        "trusted/req"; "safe";
      ]
  in
  let intervals = count_keys [ 0; 2; 4; 8 ] in
  let run_interval interval =
    Thc_replication.Harness.run
      (Thc_replication.Harness.Setup.make ~ops:60
         ~checkpoint_interval:interval
         ~protocol:Thc_replication.Protocol.Minbft ~f:1 ~seed:11L ())
  in
  let outcomes = pool_run run_interval intervals in
  let all_bounds = ref true in
  List.iter2
    (fun interval (o : Thc_replication.Harness.outcome) ->
      let d = o.Thc_replication.Harness.durability in
      let bound =
        Thc_replication.Durability.bound ~checkpoint_interval:interval
      in
      let ok =
        Thc_replication.Durability.bound_ok ~checkpoint_interval:interval d
      in
      all_bounds := !all_bounds && ok;
      let key = Printf.sprintf "interval%d" interval in
      record_i "s8" (key ^ ".log_hwm") d.Thc_replication.Durability.hwm;
      record_i "s8" (key ^ ".stable_upto")
        d.Thc_replication.Durability.stable_upto;
      record_i "s8" (key ^ ".truncations")
        d.Thc_replication.Durability.truncations;
      record_i "s8" (key ^ ".completed") o.completed;
      record_b "s8" (key ^ ".bound_ok") ok;
      record_f "s8" (key ^ ".trusted_per_req") o.trusted_per_request;
      Thc_util.Table.add_row t
        [
          (if interval = 0 then "off" else string_of_int interval);
          Printf.sprintf "%d/60" o.completed;
          string_of_int d.Thc_replication.Durability.hwm;
          (if interval = 0 then "-" else string_of_int bound);
          string_of_int d.Thc_replication.Durability.stable_upto;
          string_of_int d.Thc_replication.Durability.truncations;
          Printf.sprintf "%.1f" o.trusted_per_request;
          (if o.safety_violations = [] then "yes" else "NO");
        ])
    intervals outcomes;
  record_b "s8" "all_bounds_hold" !all_bounds;
  Thc_util.Table.print t;
  (* Part 2: restart and recovery.  A non-leader replica loses all volatile
     state mid-workload; with checkpoints it rejoins by verified state
     transfer, without them its only donor material is the full log replay
     the truncation already threw away. *)
  let restart interval =
    Thc_replication.Harness.run
      (Thc_replication.Harness.Setup.make ~ops:30
         ~scenario:
           (Thc_replication.Harness.Restart_replica { pid = 2; at = 60_000L })
         ~checkpoint_interval:interval
         ~protocol:Thc_replication.Protocol.Minbft ~f:1 ~seed:11L ())
  in
  let r4 = restart 4 in
  record_i "s8" "restart.interval4.completed" r4.completed;
  record_i "s8" "restart.interval4.stable_upto"
    r4.Thc_replication.Harness.durability.Thc_replication.Durability.stable_upto;
  record_b "s8" "restart.interval4.safe" (r4.safety_violations = []);
  Printf.printf
    "(restart at 60ms, interval 4: %d/30 served, stable checkpoint %d, \
     safety %s)\n"
    r4.completed
    r4.Thc_replication.Harness.durability.Thc_replication.Durability.stable_upto
    (if r4.safety_violations = [] then "intact" else "VIOLATED");
  (* Part 3: the checkpoint attack family — forged certificates, stale
     replays and join-time equivocation bounce off the attested protocol.
     None of them forks the unattested world (f+1 certificates, the NVRAM
     floor and the donor quorum are not hardware), so only minbft runs. *)
  let t =
    Thc_util.Table.create
      [ "attack"; "target"; "violations"; "hw rejections"; "verdict" ]
  in
  let all_hold = ref true in
  let cells = count_keys (catalog_cells Thc_byz.Attack.ckpt_all) in
  let rows =
    pool_run
      (fun (attack, target) -> Thc_byz.Attack.run ~seed:1L ~target ~attack ())
      cells
  in
  List.iter2
    (fun (attack, target) r ->
      let aname = Thc_byz.Attack.name attack in
      let tname = Thc_byz.Attack.target_name target in
      let holds = Thc_byz.Attack.holds r in
      all_hold := !all_hold && holds;
      record_i "s8"
        (Printf.sprintf "%s.%s.violations" aname tname)
        r.Thc_byz.Attack.safety_violations;
      record_i "s8"
        (Printf.sprintf "%s.%s.rejections" aname tname)
        r.Thc_byz.Attack.rejections;
      Thc_util.Table.add_row t
        [
          aname;
          tname;
          string_of_int r.Thc_byz.Attack.safety_violations;
          (match target with
          | Thc_byz.Attack.Minbft | Thc_byz.Attack.Ubft ->
            string_of_int r.Thc_byz.Attack.rejections
          | Thc_byz.Attack.Unattested -> "-");
          (if holds then "as predicted" else "DIVERGES");
        ])
    cells rows;
  record_b "s8" "ckpt_attacks_hold" !all_hold;
  Thc_util.Table.print t;
  (* Part 4: the soak headline — doubling horizons, hwm flat vs growing. *)
  let soak = Thc_workload.Soak.run ~rounds:2 ~base_ops:25 ~seed:11L () in
  record_b "s8" "soak.stabilised" soak.Thc_workload.Soak.stabilised;
  record_i "s8" "soak.baseline_growth" soak.Thc_workload.Soak.baseline_growth;
  Printf.printf
    "(soak: log hwm %s across doubling horizons under interval %d; the\n\
    \ uncheckpointed baseline grew %+d entries — the log is the memory\n\
    \ unless a quorum certifies a prefix and the replicas throw it away)\n"
    (if soak.Thc_workload.Soak.stabilised then "stabilised"
     else "DID NOT stabilise")
    soak.Thc_workload.Soak.interval soak.Thc_workload.Soak.baseline_growth

let tables =
  [
    ("f1", table_f1);
    ("problems", table_problems);
    ("c1", table_c1);
    ("c2", table_c2);
    ("l1", table_l1);
    ("a1", table_a1);
    ("a3", table_a3);
    ("s1", table_s1);
    ("s1b", table_s1b);
    ("s3", table_s3);
    ("ablation", table_ablation);
    ("byz", table_byz);
    ("s2", table_s2);
    ("s5", table_s5);
    ("s6", table_s6);
    ("s7", table_s7);
    ("s8", table_s8);
  ]

let main jobs_n only network =
  jobs := jobs_n;
  bench_network := network;
  (match
     List.filter (fun id -> not (List.mem_assoc id tables)) only
   with
  | [] -> ()
  | unknown ->
    Printf.eprintf "bench: unknown table(s): %s (known: %s)\n"
      (String.concat ", " unknown)
      (String.concat ", " (List.map fst tables));
    exit 2);
  let selected = match only with [] -> List.map fst tables | ids -> ids in
  List.iter
    (fun (id, table) -> if List.mem id selected then table ())
    tables;
  write_results ();
  if only = [] then print_endline "\nbench: all experiment tables regenerated"
  else
    print_endline
      "\nbench: selected tables regenerated (partial run: \
       BENCH_results.json holds only the selected tables)"

let () =
  let open Cmdliner in
  let only =
    Arg.(
      value
      & opt (list string) []
      & info [ "only" ] ~docv:"TABLES"
          ~doc:
            "Comma-separated experiment table ids to run (e.g. s1,byz). A \
             partial run writes BENCH_results.json with just the selected \
             tables' keys.")
  in
  let cmd =
    Cmd.v
      (Cmd.info "bench" ~doc:"Regenerate the thwclass experiment tables")
      Term.(const main $ Thc_exec.Cli.jobs () $ only $ Thc_exec.Cli.network ())
  in
  exit (Cmd.eval cmd)
