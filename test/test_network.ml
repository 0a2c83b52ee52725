(* Tests for the lib/network model layer: the topology/model codecs, the
   geo delay matrix, the seeded lossy pattern, the rational strategies,
   the `--network` determinism promise (jobs=1 and jobs=2 exports are
   byte-identical), and envelope compatibility — pre-S7 exports (with and
   without headers) and S7 exports carrying the network tag must all parse
   with the same readers. *)

module T = Thc_network.Topology
module Rat = Thc_network.Rational
module Model = Thc_network.Model
module Delay = Thc_sim.Delay
module Sexp = Thc_util.Sexp

let str = Alcotest.string

(* --- sexp codecs ---------------------------------------------------------- *)

(* One value per constructor, parameters chosen to exercise every field,
   plus a Clique with per-link overrides (the part presets never hit). *)
let topology_samples =
  [
    T.Clique { delay = Delay.Uniform (50L, 500L); links = [] };
    T.Clique
      {
        delay = Delay.Const 100L;
        links =
          [ ((0, 1), Delay.Exponential 250.); ((2, 0), Delay.Const 9_000L) ];
      };
    T.Geo_regions
      {
        regions = 3;
        lan = Delay.Uniform (5L, 50L);
        wan = Delay.Uniform (2_000L, 10_000L);
      };
    T.Asymmetric
      { fast = Delay.Uniform (50L, 500L); slow = Delay.Uniform (2_000L, 8_000L) };
    T.Lossy
      {
        base = Delay.Uniform (50L, 500L);
        drop = 0.2;
        heal_at = 300_000L;
        seed = 7L;
      };
  ]

let test_topology_sexp_roundtrip () =
  List.iter
    (fun t ->
      let s = Sexp.to_string (T.to_sexp t) in
      Alcotest.(check bool)
        (Printf.sprintf "round-trip %s" s)
        true
        (T.of_sexp (T.to_sexp t) = t);
      (* of_string accepts the rendered sexp form too *)
      match T.of_string s with
      | Ok t' -> Alcotest.(check bool) ("of_string " ^ s) true (t' = t)
      | Error e -> Alcotest.failf "of_string %s: %s" s e)
    topology_samples

let test_presets_roundtrip () =
  List.iter
    (fun (name, t) ->
      (match T.of_string name with
      | Ok t' -> Alcotest.(check bool) ("preset " ^ name) true (t' = t)
      | Error e -> Alcotest.failf "preset %s: %s" name e);
      Alcotest.(check bool)
        (name ^ " sexp round-trip")
        true
        (T.of_sexp (T.to_sexp t) = t))
    T.presets

let test_model_roundtrip () =
  let terms =
    [ "geo3"; "lan+race:0.5"; "lossy+lazy:0.3,2000"; "asym+race:1+lazy:0.5" ]
  in
  List.iter
    (fun term ->
      match Model.of_string term with
      | Error e -> Alcotest.failf "of_string %s: %s" term e
      | Ok m ->
        Alcotest.(check bool)
          (term ^ " sexp round-trip")
          true
          (Model.of_sexp (Model.to_sexp m) = m))
    terms;
  (* alpha outside [0, 1] is a parse error, not a silent clamp *)
  Alcotest.(check bool)
    "race alpha > 1 rejected" true
    (Result.is_error (Model.of_string "lan+race:1.5"));
  Alcotest.(check bool)
    "unknown preset rejected" true
    (Result.is_error (Model.of_string "campus"));
  (* Values the simulator cannot run as written are parse errors, not a
     crash in Delay.sample or a silent 0 µs link. *)
  List.iter
    (fun term ->
      Alcotest.(check bool)
        (term ^ " rejected") true
        (Result.is_error (Model.of_string term)))
    [
      "(clique (delay (uniform 500 50)))";
      "(clique (delay (uniform -5 -1)))";
      "(clique (delay (const -5)))";
      "(clique (delay (exp inf)))";
      "(clique (delay (exp nan)))";
      "(clique (delay (exp 0)))";
      "(clique (delay (const 10)) (links (0 1 (uniform 9 3))))";
      "(geo (regions 0) (lan (uniform 5 50)) (wan (uniform 2000 10000)))";
      "(geo (regions -2) (lan (uniform 5 50)) (wan (uniform 2000 10000)))";
      "(lossy (base (uniform 50 500)) (drop 1.5) (heal 300000) (seed 7))";
      "(lossy (base (uniform 50 500)) (drop -0.1) (heal 300000) (seed 7))";
      "(model (asym (fast (const -1)) (slow (uniform 2000 8000))))";
      (* the s-expression form refuses what race:/lazy: terms refuse *)
      "(model (clique (delay (const 1))) (rational (race 5)))";
      "(model (clique (delay (const 1))) (rational (race nan)))";
      "(model (clique (delay (const 1))) (rational (race -1)))";
      "(model (clique (delay (const 1))) (rational (lazy 0.5 -3)))";
    ];
  (* The bounds themselves are accepted. *)
  List.iter
    (fun term ->
      match Model.of_string term with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "of_string %s: %s" term e)
    [
      "(clique (delay (uniform 0 0)))";
      "(clique (delay (const 0)))";
      "(geo (regions 1) (lan (const 0)) (wan (exp 0.5)))";
      "(lossy (base (const 5)) (drop 0) (heal 0) (seed 1))";
      "(lossy (base (const 5)) (drop 1) (heal 0) (seed 1))";
    ]

(* --- geo delay matrix ----------------------------------------------------- *)

let test_geo_intra_faster_than_inter () =
  let t =
    T.Geo_regions
      {
        regions = 3;
        lan = Delay.Uniform (5L, 50L);
        wan = Delay.Uniform (2_000L, 10_000L);
      }
  in
  (* pids 0 and 3 share region 0; pid 1 lives in region 1 *)
  let mean ~src ~dst = Delay.mean_us (T.delay_between t ~src ~dst) in
  Alcotest.(check bool)
    "intra-region link is LAN-fast" true
    (mean ~src:0 ~dst:3 < mean ~src:0 ~dst:1);
  Alcotest.(check bool)
    "matrix is symmetric in regime" true
    (mean ~src:3 ~dst:0 = mean ~src:0 ~dst:3);
  Alcotest.(check bool)
    "cross-region pairs all WAN" true
    (mean ~src:1 ~dst:2 = mean ~src:0 ~dst:1)

(* --- lossy pattern determinism -------------------------------------------- *)

(* The drop/block pattern must be a pure function of the topology's own
   seed: same seed, same per-link policies, whatever engine it lands on. *)
let lossy_policies ~seed =
  let n = 5 in
  let net = Thc_sim.Net.create ~n ~default:(Delay.Const 50L) in
  let engine = Thc_sim.Engine.create ~seed:99L ~n ~net () in
  T.apply
    (T.Lossy
       {
         base = Delay.Uniform (50L, 500L);
         drop = 0.4;
         heal_at = 300_000L;
         seed;
       })
    engine;
  List.concat_map
    (fun src ->
      List.map
        (fun dst ->
          match Thc_sim.Net.get net ~src ~dst with
          | Thc_sim.Net.Deliver _ -> 'd'
          | Thc_sim.Net.Block -> 'b'
          | Thc_sim.Net.Drop -> 'x')
        (List.init n Fun.id))
    (List.init n Fun.id)

let test_lossy_pattern_deterministic () =
  Alcotest.(check bool)
    "same topology seed, same pattern" true
    (lossy_policies ~seed:7L = lossy_policies ~seed:7L);
  Alcotest.(check bool)
    "different seed, different pattern" true
    (lossy_policies ~seed:7L <> lossy_policies ~seed:8L);
  Alcotest.(check bool)
    "drop=0.4 afflicts some link" true
    (List.exists (fun c -> c <> 'd') (lossy_policies ~seed:7L))

(* --- rational strategies --------------------------------------------------- *)

let test_racing_quorum () =
  let topology =
    T.Geo_regions
      {
        regions = 3;
        lan = Delay.Uniform (5L, 50L);
        wan = Delay.Uniform (2_000L, 10_000L);
      }
  in
  let race = Rat.Racing_client { alpha = 1.0 } in
  (* client pid 3 shares region 0 with replica 0: the f+1 = 2 fastest set
     must contain replica 0 and have exactly f+1 members. *)
  let q = Rat.racing_quorum race ~topology ~client:3 ~replicas:3 ~f:1 in
  Alcotest.(check int) "f+1 replicas raced" 2 (List.length q);
  Alcotest.(check bool) "co-located replica is raced" true (List.mem 0 q);
  Alcotest.(check bool)
    "lazy replica races nothing" true
    (Rat.racing_quorum
       (Rat.Lazy_replica { alpha = 1.0; slack_us = 2_000L })
       ~topology ~client:3 ~replicas:3 ~f:1
    = [])

(* --- jobs=1 vs jobs=2 byte-identity under --network ------------------------ *)

let test_explore_identical_across_jobs () =
  let h = Option.get (Thc_check.Harness.find "minbft") in
  let network =
    match Model.of_string "geo3+race:0.5" with
    | Ok m -> m
    | Error e -> Alcotest.failf "model: %s" e
  in
  let rendered jobs =
    Format.asprintf "%a" Thc_check.Sweep.pp_summary
      (Thc_check.Sweep.sweep h ~network ~jobs ~base_seed:5L ~runs:4 ())
  in
  let a = rendered 1 in
  Alcotest.check str "explore summary identical across jobs" a (rendered 2);
  Alcotest.(check bool) "summary mentions the harness" true
    (String.length a > 0)

let loadtest_template ~network =
  let module W = Thc_workload.Workload in
  let module L = Thc_workload.Loadtest in
  {
    L.protocol = L.Minbft;
    f = 1;
    batch = 1;
    seed = 5L;
    delay = Delay.Uniform (50L, 500L);
    network;
    spec =
      {
        W.clients = 2;
        requests_per_client = 6;
        arrival = W.Open_poisson { rate_rps = 400. };
        keys = W.Keys_zipf { keys = 16; theta = 0.99 };
        mix = W.default_mix;
      };
  }

let loadtest_doc ~network jobs =
  let module W = Thc_workload.Workload in
  let module L = Thc_workload.Loadtest in
  let results =
    L.sweep ~jobs
      (loadtest_template ~network)
      ~arrivals:[ W.Open_poisson { rate_rps = 400. } ]
      ~batches:[ 1; 2 ]
  in
  L.export ?network ~seed:5L results

let test_loadtest_identical_across_jobs () =
  let network =
    match Model.of_string "lossy+lazy:0.5,2000" with
    | Ok m -> Some m
    | Error e -> Alcotest.failf "model: %s" e
  in
  let a = loadtest_doc ~network 1 in
  Alcotest.check str "loadtest export identical across jobs" a
    (loadtest_doc ~network 2);
  Alcotest.(check bool) "envelope records the network tag" true
    (let header = List.hd (String.split_on_char '\n' a) in
     let tag = Model.tag (Option.get network) in
     let affix = Printf.sprintf "\"network\":%S" tag in
     let n = String.length affix and m = String.length header in
     let rec go i = i + n <= m && (String.sub header i n = affix || go (i + 1)) in
     go 0)

(* --- envelope compatibility ------------------------------------------------ *)

(* Readers must accept all three generations of a loadtest/span document:
   headerless v1 rows, a v2 envelope without the network field, and an
   S7 envelope carrying it. *)

let test_parsers_accept_network_field () =
  let module L = Thc_workload.Loadtest in
  let with_net = loadtest_doc ~network:(Result.to_option (Model.of_string "lan")) 1 in
  let without_net = loadtest_doc ~network:None 1 in
  (match L.parse with_net with
  | Ok rows -> Alcotest.(check bool) "S7 envelope parses" true (rows <> [])
  | Error e -> Alcotest.failf "S7 envelope: %s" e);
  (match L.parse without_net with
  | Ok rows -> Alcotest.(check bool) "pre-S7 envelope parses" true (rows <> [])
  | Error e -> Alcotest.failf "pre-S7 envelope: %s" e);
  (* headerless v1: the same point rows with the envelope line stripped *)
  let headerless =
    String.concat "\n"
      (List.filter
         (fun l ->
           not (String.starts_with ~prefix:"{\"type\":\"loadtest\"" l))
         (String.split_on_char '\n' without_net))
  in
  match L.parse headerless with
  | Ok rows -> Alcotest.(check bool) "headerless v1 parses" true (rows <> [])
  | Error e -> Alcotest.failf "headerless: %s" e

let test_phase_trace_accepts_network_field () =
  let module PT = Thc_workload.Phase_trace in
  let module H = Thc_replication.Harness in
  let setup network =
    H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:4 ~batch:2 ~seed:3L ?network ()
  in
  let doc network =
    let campaign = { PT.setup = setup network; seeds = [ 3L ] } in
    PT.export campaign (PT.run campaign)
  in
  let geo = Result.to_option (Model.of_string "geo2") in
  List.iter
    (fun (name, network) ->
      match PT.parse (doc network) with
      | Ok rows ->
        Alcotest.(check bool) (name ^ " parses nonempty") true (rows <> [])
      | Error e -> Alcotest.failf "%s: %s" name e)
    [ ("span export without network", None); ("span export with network", geo) ]

let () =
  Alcotest.run "thc_network"
    [
      ( "codec",
        [
          Alcotest.test_case "topology sexp round-trip" `Quick
            test_topology_sexp_roundtrip;
          Alcotest.test_case "presets round-trip" `Quick test_presets_roundtrip;
          Alcotest.test_case "model term round-trip" `Quick test_model_roundtrip;
        ] );
      ( "semantics",
        [
          Alcotest.test_case "geo intra faster than inter" `Quick
            test_geo_intra_faster_than_inter;
          Alcotest.test_case "lossy pattern deterministic" `Quick
            test_lossy_pattern_deterministic;
          Alcotest.test_case "racing quorum" `Quick test_racing_quorum;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "explore identical across jobs" `Quick
            test_explore_identical_across_jobs;
          Alcotest.test_case "loadtest identical across jobs" `Quick
            test_loadtest_identical_across_jobs;
        ] );
      ( "compat",
        [
          Alcotest.test_case "loadtest parser accepts network field" `Quick
            test_parsers_accept_network_field;
          Alcotest.test_case "phase trace parser accepts network field" `Quick
            test_phase_trace_accepts_network_field;
        ] );
    ]
