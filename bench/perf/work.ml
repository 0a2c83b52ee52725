(* The four workloads.  Each is a fixed list of calls into public entry
   points, built from the seed before timing starts; a pass runs the list
   once, one call after the other (a closed loop with one caller). *)

module H = Thc_replication.Harness
module L = Thc_workload.Loadtest
module W = Thc_workload.Workload
module Ch = Thc_check.Harness

type outcome = {
  ok : bool;  (* the call's own correctness check held *)
  items : int;  (* units of work completed, counted by [items_per_s] *)
  repr : string;  (* its virtual-time results, rendered deterministically *)
}

type call = { shape : string; run : unit -> outcome }

(* [warmup]: one small untimed call per call shape, run during set-up. *)
type plan = { calls : call list; warmup : call list }

type t = { name : string; plan : seed:int64 -> quick:bool -> plan }

let seed_plus seed i = Int64.add seed (Int64.of_int i)

(* --- explore ------------------------------------------------------------ *)

let family name =
  let ckpt = List.map (fun k -> "minbft-" ^ Thc_byz.Attack.name k) Thc_byz.Attack.ckpt_all in
  if List.mem name [ "minbft"; "pbft"; "ubft" ] then Some name
  else if List.mem name ckpt then Some "minbft-ckpt"
  else if String.starts_with ~prefix:"minbft-" name then Some "minbft-attack"
  else if String.starts_with ~prefix:"ubft-" name then Some "ubft-attack"
  else None

let families = [ "minbft"; "pbft"; "ubft"; "minbft-attack"; "ubft-attack"; "minbft-ckpt" ]

(* The explorer's Clean replication harnesses: minbft, pbft, ubft and the
   attack and checkpoint rigs that must hold under every admissible script. *)
let explore_harnesses =
  List.filter (fun (h : Ch.t) -> h.expect = Ch.Clean && family h.name <> None) Ch.all

let explore_call (h : Ch.t) seed =
  {
    shape = "explore." ^ h.name;
    run =
      (fun () ->
        let r = (Thc_check.Sweep.run_one h ~seed ()).report in
        {
          ok = not (Thc_check.Monitor.failed r.verdict);
          items = 1;
          repr =
            Printf.sprintf "%s %Ld %d %Ld %s" h.name seed r.messages r.duration_us
              (String.concat "," (Thc_check.Monitor.monitors_of r.verdict));
        });
  }

let explore =
  {
    name = "explore";
    plan =
      (fun ~seed ~quick ->
        let seeds = if quick then 2 else 125 in
        {
          calls =
            List.concat_map
              (fun h -> List.init seeds (fun i -> explore_call h (seed_plus seed i)))
              explore_harnesses;
          warmup = List.map (fun h -> explore_call h seed) explore_harnesses;
        });
  }

(* --- smr_long ----------------------------------------------------------- *)

let smr_cells ~ops ~seed =
  let make ?scenario ?checkpoint_interval protocol =
    H.Setup.make ~protocol ~f:1 ~ops ~clients:4 ?scenario ?checkpoint_interval ~seed ()
  in
  [
    ("minbft", make H.Minbft);
    ("pbft", make H.Pbft);
    ("ubft", make H.Ubft);
    ("minbft-ckpt8", make ~checkpoint_interval:8 H.Minbft);
    ("minbft-crash-leader", make ~scenario:(H.Crash_leader 40_000L) H.Minbft);
  ]

let smr_call (name, (setup : H.setup)) =
  {
    shape = "smr." ^ name;
    run =
      (fun () ->
        let o = H.run setup in
        {
          ok =
            o.safety_violations = [] && o.liveness_violations = []
            && o.completed = setup.ops * setup.clients;
          items = o.completed;
          repr =
            Printf.sprintf "%s %d %d %d %Ld %h %h %d %d" name o.completed o.commits
              o.messages o.duration_us o.latency.p50 o.latency.p99 o.final_view o.events;
        });
  }

let smr_long =
  {
    name = "smr_long";
    plan =
      (fun ~seed ~quick ->
        {
          calls = List.map smr_call (smr_cells ~ops:(if quick then 10 else 250) ~seed);
          warmup = List.map smr_call (smr_cells ~ops:10 ~seed);
        });
  }

(* --- loadtest ----------------------------------------------------------- *)

let arrivals =
  [
    ("poisson2000_b1", W.Open_poisson { rate_rps = 2000. }, 1);
    ("poisson4000_b8", W.Open_poisson { rate_rps = 4000. }, 8);
    ("closed4_b4", W.Closed { window = 4; think_us = 0L }, 4);
  ]

let load_spec ~clients ~requests arrival =
  {
    W.clients;
    requests_per_client = requests;
    arrival;
    keys = W.Keys_zipf { keys = 64; theta = 0.99 };
    mix = W.default_mix;
  }

(* The protocol x arrival grid, named "<protocol>.<arrival>". *)
let load_points ~clients ~requests ~seed =
  List.concat_map
    (fun protocol ->
      List.map
        (fun (label, arrival, batch) ->
          ( Thc_replication.Protocol.to_string protocol ^ "." ^ label,
            {
              L.protocol;
              f = 1;
              spec = load_spec ~clients ~requests arrival;
              batch;
              seed;
              delay = Thc_sim.Delay.Uniform (50L, 500L);
              network = None;
            } ))
        arrivals)
    Thc_replication.Protocol.all

let load_call (name, point) =
  {
    shape = "loadtest." ^ name;
    run =
      (fun () ->
        let r = L.run_point point in
        {
          ok = r.safety_violations = 0 && r.completed = r.offered;
          items = r.completed;
          repr =
            Printf.sprintf "%s %d %d %d %Ld %Ld %h %h %d %d" name r.offered r.completed
              r.commits r.duration_us r.makespan_us r.latency.p50 r.latency.p99
              r.trusted_total r.messages;
        });
  }

let loadtest =
  {
    name = "loadtest";
    plan =
      (fun ~seed ~quick ->
        let clients, requests = if quick then (2, 5) else (8, 100) in
        {
          calls = List.map load_call (load_points ~clients ~requests ~seed);
          warmup = List.map load_call (load_points ~clients:2 ~requests:5 ~seed);
        });
  }

(* --- classify ----------------------------------------------------------- *)

module Wit = Thc_classify.Witnesses
module E = Thc_sim.Engine

(* Algorithm 1's witness cell rebuilt from public APIs: n=5, t=2, three
   values broadcast by process 0 over SWMR-register rounds, run for [until]
   of virtual time.  [ledger], when given, counts the register operations. *)
let srb_cell ?ledger ~seed ~until () =
  let n = 5 in
  let keyring = Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n in
  let ident pid = Thc_crypto.Keyring.secret keyring ~pid in
  let net = Thc_sim.Net.create ~n ~default:(Thc_sim.Delay.Uniform (10L, 400L)) in
  let engine : unit E.t = E.create ~seed ~n ~net () in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  Option.iter (Thc_sharedmem.Swmr.attach_ledger_all registers) ledger;
  let srbs =
    Array.init n (fun pid ->
        Thc_broadcast.Srb_from_uni.create ~keyring ~ident:(ident pid) ~sender:0 ~faults:2)
  in
  List.iter (Thc_broadcast.Srb_from_uni.broadcast srbs.(0)) [ "alpha"; "beta"; "gamma" ];
  for pid = 0 to n - 1 do
    E.set_behavior engine pid
      (Thc_rounds.Swmr_rounds.behavior ~registers ~ident:(ident pid)
         (Thc_broadcast.Srb_from_uni.app srbs.(pid)))
  done;
  let trace = E.run ~until ~max_events:10_000_000 engine in
  (trace, E.events_processed engine)

(* The witness's own acceptance: every process delivered all three values. *)
let srb_complete trace =
  List.for_all
    (fun pid -> List.length (Thc_broadcast.Srb_spec.deliveries trace ~sender:0 ~pid) = 3)
    (List.init 5 Fun.id)

let srb_call ~seed ~until =
  {
    shape = "classify.srb_from_uni";
    run =
      (fun () ->
        let trace, events = srb_cell ~seed ~until () in
        {
          ok = Thc_broadcast.Srb_spec.check trace ~sender:0 = [] && srb_complete trace;
          items = 1;
          repr = Printf.sprintf "srb-from-uni %Ld %d %Ld" seed events trace.end_time;
        });
  }

let witness_call (w : Wit.t) =
  {
    shape = "classify.witness";
    run =
      (fun () ->
        let ok, detail = w.run () in
        { ok; items = 1; repr = w.id ^ " " ^ detail });
  }

(* Every witness but Algorithm 1's, which alone takes seconds. *)
let cheap_witnesses = List.filter (fun (w : Wit.t) -> w.id <> "srb-from-uni") Wit.all

(* The Figure 1 witnesses with Algorithm 1's cell at the witness's first
   seed: a fifth of [Hierarchy.verify]'s srb-from-uni witness plus the rest,
   so a window holds several passes.  Seedless like the verifier: at equal
   event counts the cell's cost moves by up to a fifth from seed to seed. *)
let classify =
  {
    name = "classify";
    plan =
      (fun ~seed:_ ~quick ->
        {
          calls =
            srb_call ~seed:1L ~until:(if quick then 2_000_000L else 20_000_000L)
            :: List.map witness_call cheap_witnesses;
          warmup = List.map witness_call cheap_witnesses;
        });
  }

let all = [ explore; smr_long; loadtest; classify ]

let find name = List.find_opt (fun w -> w.name = name) all

(* --- passes ------------------------------------------------------------- *)

type pass = {
  wall : float;
  items : int;
  attempted : int;
  failed : int;
  digest : string;  (* over every call's [repr], in call order *)
  call_s : float list;
  segment_s : float list;  (* per run of consecutive calls of one shape, in order *)
}

(* Run one call under its checks; an exception is a failed call. *)
let checked (c : call) =
  match Tracer.time ~call:true c.shape c.run with
  | o, dt ->
    if not o.ok then prerr_endline ("perf: check failed: " ^ c.shape ^ ": " ^ o.repr);
    (o, dt)
  | exception e ->
    let repr = "raised " ^ Printexc.to_string e in
    prerr_endline ("perf: " ^ c.shape ^ ": " ^ repr);
    ({ ok = false; items = 0; repr }, 0.)

(* [settle] runs a full major collection before each call, so that the
   heap each call grows is its own alone. *)
let run_pass ?(settle = false) calls =
  let b = Buffer.create 65536 in
  let items = ref 0 and failed = ref 0 and call_s = ref [] and segments = ref [] in
  let (), wall =
    Tracer.time "pass" (fun () ->
        List.iter
          (fun c ->
            if settle then Gc.full_major ();
            let o, dt = checked c in
            if not o.ok then incr failed;
            items := !items + o.items;
            call_s := dt :: !call_s;
            segments :=
              (match !segments with
              | (shape, t) :: rest when shape = c.shape -> (shape, t +. dt) :: rest
              | l -> (c.shape, dt) :: l);
            Buffer.add_string b o.repr;
            Buffer.add_char b '\n')
          calls)
  in
  {
    wall;
    items = !items;
    attempted = List.length calls;
    failed = !failed;
    digest = Digest.to_hex (Digest.string (Buffer.contents b));
    call_s = !call_s;
    segment_s = List.rev_map snd !segments;
  }
