(* Tests for the replication layer: the kv state machine, attested links,
   client plumbing, and both protocols under the harness's fault scenarios. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- kv store ---------------------------------------------------------------- *)

let test_kv_semantics () =
  let s = Thc_replication.Kv_store.create () in
  Alcotest.(check bool) "get missing" true
    (Thc_replication.Kv_store.apply s (Get "k") = Value None);
  Alcotest.(check bool) "put" true
    (Thc_replication.Kv_store.apply s (Put ("k", "v")) = Stored);
  Alcotest.(check bool) "get" true
    (Thc_replication.Kv_store.apply s (Get "k") = Value (Some "v"));
  Alcotest.(check bool) "incr fresh" true
    (Thc_replication.Kv_store.apply s (Incr "c") = Counter 1);
  Alcotest.(check bool) "incr again" true
    (Thc_replication.Kv_store.apply s (Incr "c") = Counter 2);
  Alcotest.(check bool) "incr over garbage counts from 0" true
    (Thc_replication.Kv_store.apply s (Incr "k") = Counter 1);
  Alcotest.(check bool) "delete" true
    (Thc_replication.Kv_store.apply s (Delete "k") = Stored);
  Alcotest.(check bool) "deleted gone" true
    (Thc_replication.Kv_store.apply s (Get "k") = Value None)

let test_kv_digest_reflects_content () =
  let a = Thc_replication.Kv_store.create () in
  let b = Thc_replication.Kv_store.create () in
  ignore (Thc_replication.Kv_store.apply a (Put ("x", "1")));
  ignore (Thc_replication.Kv_store.apply b (Put ("x", "1")));
  Alcotest.(check int64) "equal content equal digest"
    (Thc_replication.Kv_store.digest a)
    (Thc_replication.Kv_store.digest b);
  ignore (Thc_replication.Kv_store.apply b (Put ("y", "2")));
  Alcotest.(check bool) "different content different digest" true
    (Thc_replication.Kv_store.digest a <> Thc_replication.Kv_store.digest b)

let prop_kv_digest_order_insensitive =
  QCheck.Test.make ~name:"digest independent of insertion order" ~count:100
    QCheck.(list_of_size Gen.(1 -- 10) (pair small_string small_string))
    (fun bindings ->
      (* Distinct keys: with duplicates the last write wins and order would
         legitimately matter. *)
      let bindings =
        List.sort_uniq (fun (a, _) (b, _) -> compare a b) bindings
      in
      let build order =
        let s = Thc_replication.Kv_store.create () in
        List.iter
          (fun (k, v) -> ignore (Thc_replication.Kv_store.apply s (Put (k, v))))
          order;
        Thc_replication.Kv_store.digest s
      in
      build bindings = build (List.rev bindings))

let test_kv_op_roundtrip () =
  let ops =
    Thc_replication.Kv_store.
      [ Get "a"; Put ("b", "v"); Delete "c"; Incr "d" ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool) "op roundtrips" true
        (Thc_replication.Kv_store.decode_op (Thc_replication.Kv_store.encode_op op)
        = op))
    ops

(* --- attested links ------------------------------------------------------------- *)

let trinc_world () =
  Thc_hardware.Trinc.create_world (Thc_util.Rng.create 121L) ~n:3

let test_link_seal_dense () =
  let world = trinc_world () in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:0)
  in
  let a1 = Thc_replication.Attested_link.Out.seal out "m1" in
  let a2 = Thc_replication.Attested_link.Out.seal out "m2" in
  Alcotest.(check (pair int int)) "dense counters" (1, 2) (a1.counter, a2.counter);
  Alcotest.(check int) "prev chains" 1 a2.prev;
  Alcotest.(check int) "sent log" 2
    (List.length (Thc_replication.Attested_link.Out.sent_log out))

let test_link_in_order_release () =
  let world = trinc_world () in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:0)
  in
  let a1 = Thc_replication.Attested_link.Out.seal out "m1" in
  let a2 = Thc_replication.Attested_link.Out.seal out "m2" in
  let a3 = Thc_replication.Attested_link.Out.seal out "m3" in
  let inbox = Thc_replication.Attested_link.In.create ~world ~n:3 in
  Alcotest.(check int) "gap buffers" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox a2));
  Alcotest.(check int) "filling the gap releases both" 2
    (List.length (Thc_replication.Attested_link.In.accept inbox a1));
  Alcotest.(check int) "third releases immediately" 1
    (List.length (Thc_replication.Attested_link.In.accept inbox a3));
  Alcotest.(check int) "delivered upto" 3
    (Thc_replication.Attested_link.In.delivered_upto inbox ~owner:0);
  Alcotest.(check int) "duplicate ignored" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox a2))

let test_link_check_log () =
  let world = trinc_world () in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:1)
  in
  ignore (Thc_replication.Attested_link.Out.seal out "a");
  ignore (Thc_replication.Attested_link.Out.seal out "b");
  let log = Thc_replication.Attested_link.Out.sent_log out in
  (match Thc_replication.Attested_link.check_log ~world ~owner:1 log with
  | Some [ "a"; "b" ] -> ()
  | Some _ | None -> Alcotest.fail "honest log rejected");
  (match log with
  | [ _; b ] ->
    Alcotest.(check bool) "log with hidden head rejected" true
      (Thc_replication.Attested_link.check_log ~world ~owner:1 [ b ] = None)
  | _ -> Alcotest.fail "unexpected log shape");
  Alcotest.(check bool) "wrong owner rejected" true
    (Thc_replication.Attested_link.check_log ~world ~owner:0 log = None)

let test_link_rejection_ledger () =
  (* Each rejection class charges its own ledger label, and they all roll
     up into [Ledger.rejections] — the attack catalog's observable. *)
  let world = trinc_world () in
  let ledger = Thc_hardware.Trinc.ledger world in
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:0)
  in
  let a1 = Thc_replication.Attested_link.Out.seal out "m1" in
  let inbox = Thc_replication.Attested_link.In.create ~world ~n:3 in
  Alcotest.(check int) "fresh accepted" 1
    (List.length (Thc_replication.Attested_link.In.accept inbox a1));
  (* replay: counter already released *)
  Alcotest.(check int) "replay dropped" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox a1));
  Alcotest.(check int) "replay charged" 1
    (Thc_obsv.Ledger.count ledger "link.reject_replay");
  (* forged: well-formed fields, tag from nowhere *)
  let forged =
    Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:1 ~counter:2
      ~message:"forged" ~tag:99L
  in
  Alcotest.(check int) "forged dropped" 0
    (List.length (Thc_replication.Attested_link.In.accept inbox forged));
  Alcotest.(check int) "forged charged" 1
    (Thc_obsv.Ledger.count ledger "link.reject_forged");
  (* malformed: owner outside the cluster, and a broken prev chain *)
  let bad_owner =
    Thc_hardware.Trinc.counterfeit ~owner:7 ~prev:0 ~counter:1 ~message:"x"
      ~tag:0L
  in
  let bad_prev =
    Thc_hardware.Trinc.counterfeit ~owner:1 ~prev:3 ~counter:2 ~message:"x"
      ~tag:0L
  in
  ignore (Thc_replication.Attested_link.In.accept inbox bad_owner);
  ignore (Thc_replication.Attested_link.In.accept inbox bad_prev);
  Alcotest.(check int) "malformed charged" 2
    (Thc_obsv.Ledger.count ledger "link.reject_malformed");
  Alcotest.(check bool) "rejections rolls them up" true
    (Thc_obsv.Ledger.rejections ledger >= 4)

(* The insert-then-drain body [Attested_link.In.accept] had before its
   in-order fast path, kept as the reference the fast path must match:
   the same releases, in the same order, and the same ledger charges. *)
module Ref_inbox = struct
  module Trinc = Thc_hardware.Trinc

  type stream = {
    pending : (int, Trinc.attestation) Hashtbl.t;
    mutable released : int;
  }

  type t = { world : Trinc.world; streams : stream array }

  let create ~world ~n =
    {
      world;
      streams =
        Array.init n (fun _ -> { pending = Hashtbl.create 8; released = 0 });
    }

  let reject t label =
    Thc_obsv.Ledger.bump (Trinc.ledger t.world) label;
    []

  let accept t (a : Trinc.attestation) =
    if a.owner < 0 || a.owner >= Array.length t.streams || a.prev <> a.counter - 1
    then reject t "link.reject_malformed"
    else if not (Trinc.check t.world a ~id:a.owner) then
      reject t "link.reject_forged"
    else begin
      let s = t.streams.(a.owner) in
      if a.counter <= s.released || Hashtbl.mem s.pending a.counter then
        reject t "link.reject_replay"
      else begin
        Hashtbl.replace s.pending a.counter a;
        let out = ref [] in
        let rec drain () =
          match Hashtbl.find_opt s.pending (s.released + 1) with
          | Some next ->
            Hashtbl.remove s.pending next.counter;
            s.released <- next.counter;
            out := next :: !out;
            drain ()
          | None -> ()
        in
        drain ();
        List.rev !out
      end
    end
end

(* Random reorderings of three sealed streams, with duplicates, replays
   below the released counter, forged tags and malformed attestations
   mixed in, fed to the real inbox and to the reference.  Three worlds
   built from one seed share their trinket keys: one seals, and each inbox
   checks against its own, so each ledger holds only its inbox's
   charges. *)
let prop_link_accept_matches_reference =
  QCheck.Test.make ~name:"accept matches insert-then-drain reference"
    ~count:200 QCheck.int64 (fun seed ->
      let module Trinc = Thc_hardware.Trinc in
      let module Link = Thc_replication.Attested_link in
      let n = 3 in
      let rng = Thc_util.Rng.create seed in
      let world () = Trinc.create_world (Thc_util.Rng.create 121L) ~n in
      let sealer = world () and w_real = world () and w_ref = world () in
      let streams =
        Array.init n (fun owner ->
            let out = Link.Out.create (Trinc.trinket sealer ~owner) in
            Array.init
              (1 + Thc_util.Rng.int rng 8)
              (fun i -> Link.Out.seal out (Printf.sprintf "m%d.%d" owner i)))
      in
      let pick () =
        let s = streams.(Thc_util.Rng.int rng n) in
        s.(Thc_util.Rng.int rng (Array.length s))
      in
      let odd () =
        let a = pick () in
        match Thc_util.Rng.int rng 4 with
        | 0 -> a (* a duplicate, or a replay once released *)
        | 1 ->
          Trinc.counterfeit ~owner:a.owner ~prev:a.prev ~counter:a.counter
            ~message:"forged" ~tag:a.tag
        | 2 ->
          Trinc.counterfeit ~owner:(n + Thc_util.Rng.int rng 2) ~prev:a.prev
            ~counter:a.counter ~message:a.message ~tag:a.tag
        | _ ->
          Trinc.counterfeit ~owner:a.owner ~prev:(a.prev + 1)
            ~counter:a.counter ~message:a.message ~tag:a.tag
      in
      let inputs =
        Array.concat
          (Array.init 12 (fun _ -> odd ()) :: Array.to_list streams)
      in
      Thc_util.Rng.shuffle rng inputs;
      let real = Link.In.create ~world:w_real ~n
      and reference = Ref_inbox.create ~world:w_ref ~n in
      let key (a : Trinc.attestation) = (a.owner, a.counter, a.message) in
      Array.iteri
        (fun i a ->
          let got = List.map key (Link.In.accept real a)
          and want = List.map key (Ref_inbox.accept reference a) in
          if got <> want then
            QCheck.Test.fail_reportf "input %d: released lists differ" i)
        inputs;
      List.for_all
        (fun owner ->
          Link.In.delivered_upto real ~owner
          = reference.Ref_inbox.streams.(owner).Ref_inbox.released)
        (List.init n Fun.id)
      && Thc_obsv.Ledger.rows (Trinc.ledger w_real)
         = Thc_obsv.Ledger.rows (Trinc.ledger w_ref))

(* --- client collector -------------------------------------------------------------- *)

let test_collector_quorum () =
  let module Co = Thc_replication.Command.Collector in
  let c = Co.create ~quorum:2 in
  let reply ?(rid = 0) replica result : Thc_replication.Command.reply =
    { replica; rid; result }
  in
  let add r = Option.map (fun (d : Co.completion) -> d.result) (Co.add c r) in
  Alcotest.(check (option string)) "first vote pending" None (add (reply 0 "r"));
  Alcotest.(check (option string)) "duplicate replica ignored" None
    (add (reply 0 "r"));
  Alcotest.(check (option string)) "disagreeing vote pending" None
    (add (reply 1 "other"));
  Alcotest.(check (option string)) "matching quorum completes" (Some "r")
    (add (reply 2 "r"));
  Alcotest.(check bool) "marked complete" true (Co.completed c ~rid:0);
  Alcotest.(check (option string)) "late votes ignored" None (add (reply 3 "r"));
  Alcotest.(check bool) "completion drops every vote" false
    (Co.outstanding c ~rid:0);
  (* Send times ride with the votes and retire with them. *)
  let completion r =
    Option.map (fun (d : Co.completion) -> (d.result, d.sent_at)) (Co.add c r)
  in
  let done_with = Alcotest.(option (pair string (option int64))) in
  Co.sent c ~rid:1 ~at:100L;
  Co.sent c ~rid:1 ~at:150L;
  Alcotest.(check bool) "sent, outstanding" true (Co.outstanding c ~rid:1);
  Alcotest.check done_with "one vote pending" None (completion (reply ~rid:1 0 "x"));
  Alcotest.check done_with "completes with the latest send time"
    (Some ("x", Some 150L))
    (completion (reply ~rid:1 1 "x"));
  Alcotest.(check bool) "send time retired" false (Co.outstanding c ~rid:1);
  Co.sent c ~rid:1 ~at:200L;
  Alcotest.(check bool) "no send time kept after completion" false
    (Co.outstanding c ~rid:1);
  Alcotest.check done_with "late reply after a resend" None
    (completion (reply ~rid:1 2 "x"));
  (* Replies can complete a request this client never sent. *)
  Alcotest.check done_with "unsent, pending" None (completion (reply ~rid:2 0 "y"));
  Alcotest.(check bool) "its votes are held" true (Co.outstanding c ~rid:2);
  Alcotest.check done_with "completes without a send time" (Some ("y", None))
    (completion (reply ~rid:2 1 "y"));
  Alcotest.(check bool) "and keeps nothing" false (Co.outstanding c ~rid:2)

let test_command_validation () =
  let keyring = Thc_crypto.Keyring.create (Thc_util.Rng.create 122L) ~n:4 in
  let sr =
    Thc_replication.Command.make
      ~ident:(Thc_crypto.Keyring.secret keyring ~pid:3)
      ~rid:7
      (Thc_replication.Kv_store.Get "k")
  in
  Alcotest.(check bool) "valid request" true
    (Thc_replication.Command.valid keyring sr);
  let forged = { sr with Thc_crypto.Signature.value = { sr.value with rid = 8 } } in
  Alcotest.(check bool) "tampered request rejected" false
    (Thc_replication.Command.valid keyring forged)

(* --- end-to-end scenarios ------------------------------------------------------------- *)

let setup protocol scenario seed =
  Thc_replication.Harness.Setup.make ~protocol ~f:1 ~ops:15 ~scenario ~seed ()

let healthy o =
  o.Thc_replication.Harness.safety_violations = []
  && o.Thc_replication.Harness.liveness_violations = []
  && o.Thc_replication.Harness.completed = 15

let scenarios =
  [
    ("fault-free", Thc_replication.Harness.Fault_free);
    ("crash-leader", Thc_replication.Harness.Crash_leader 35_000L);
    ("silent-replicas", Thc_replication.Harness.Silent_replicas);
  ]

let test_minbft_scenarios () =
  List.iter
    (fun (name, scenario) ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Minbft scenario 7L)
      in
      if not (healthy o) then
        Alcotest.failf "minbft %s: %d/%d completed, %d safety, %d liveness"
          name o.completed 15
          (List.length o.safety_violations)
          (List.length o.liveness_violations))
    scenarios

let test_pbft_scenarios () =
  List.iter
    (fun (name, scenario) ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Pbft scenario 7L)
      in
      if not (healthy o) then
        Alcotest.failf "pbft %s: %d/%d completed, %d safety, %d liveness"
          name o.completed 15
          (List.length o.safety_violations)
          (List.length o.liveness_violations))
    scenarios

let test_minbft_beats_pbft_on_messages () =
  let m =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         Thc_replication.Harness.Fault_free 9L)
  in
  let p =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Pbft
         Thc_replication.Harness.Fault_free 9L)
  in
  Alcotest.(check bool) "fewer replicas" true (m.replicas < p.replicas);
  Alcotest.(check bool) "fewer messages per op" true
    (m.messages_per_op < p.messages_per_op);
  Alcotest.(check bool) "lower mean latency" true
    (m.latency.mean < p.latency.mean)

let test_crash_leader_forces_view_change () =
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Crash_leader 35_000L)
         13L)
  in
  Alcotest.(check bool) "view advanced" true (o.final_view >= 1);
  Alcotest.(check bool) "still healthy" true (healthy o)

let prop_minbft_random_seeds =
  QCheck.Test.make ~name:"minbft safe and live across seeds" ~count:5
    QCheck.int64
    (fun seed ->
      healthy
        (Thc_replication.Harness.run
           (setup Thc_replication.Harness.Minbft
              Thc_replication.Harness.Fault_free seed)))

let prop_minbft_crash_random_seeds =
  QCheck.Test.make ~name:"minbft recovers leader crashes across seeds"
    ~count:5 QCheck.int64
    (fun seed ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Minbft
             (Thc_replication.Harness.Crash_leader 35_000L)
             seed)
      in
      healthy o)

let test_harness_deterministic () =
  (* Whole-cluster determinism: identical setup, identical outcome. *)
  let run () =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Crash_leader 35_000L)
         21L)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcomes"
    (Thc_util.Codec.encode (a.completed, a.messages, a.final_view, a.latency))
    (Thc_util.Codec.encode (b.completed, b.messages, b.final_view, b.latency))

let test_workload_deterministic () =
  Alcotest.(check bool) "same seed same workload" true
    (Thc_replication.Harness.default_workload ~ops:20 ~seed:5L
    = Thc_replication.Harness.default_workload ~ops:20 ~seed:5L)

(* --- uBFT-sim on SWMR registers ------------------------------------------------------ *)

let test_ubft_scenarios () =
  List.iter
    (fun (name, scenario) ->
      let o =
        Thc_replication.Harness.run
          (setup Thc_replication.Harness.Ubft scenario 7L)
      in
      if not (healthy o) then
        Alcotest.failf "ubft %s: %d/%d completed, %d safety, %d liveness"
          name o.completed 15
          (List.length o.safety_violations)
          (List.length o.liveness_violations))
    scenarios

let test_ubft_beats_minbft () =
  (* The "strictly stronger" edge as a measurement: the register protocol's
     3-hop common case undercuts MinBFT's 4 hops at equal f, on both the
     median and the wire bill — while spending register ops where MinBFT
     spends counter seals. *)
  let u =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Ubft
         Thc_replication.Harness.Fault_free 9L)
  in
  let m =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         Thc_replication.Harness.Fault_free 9L)
  in
  let p50 o =
    match Thc_obsv.Metrics.Histogram.p50 o.Thc_replication.Harness.lat_hist with
    | Some v -> v
    | None -> Alcotest.fail "empty latency histogram"
  in
  Alcotest.(check bool) "same replica count" true (u.replicas = m.replicas);
  Alcotest.(check bool) "lower p50 latency" true (p50 u < p50 m);
  Alcotest.(check bool) "fewer messages per op" true
    (u.messages_per_op < m.messages_per_op);
  Alcotest.(check bool) "spends register ops" true (u.trusted_per_request > 0.)

let test_ubft_crash_leader_forces_view_change () =
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Ubft
         (Thc_replication.Harness.Crash_leader 35_000L)
         13L)
  in
  Alcotest.(check bool) "view advanced" true (o.final_view >= 1);
  Alcotest.(check bool) "still healthy" true (healthy o)

let test_ubft_deterministic () =
  let run () =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Ubft
         (Thc_replication.Harness.Crash_leader 35_000L)
         21L)
  in
  let a = run () and b = run () in
  Alcotest.(check string) "identical outcomes"
    (Thc_util.Codec.encode (a.completed, a.messages, a.final_view, a.latency))
    (Thc_util.Codec.encode (b.completed, b.messages, b.final_view, b.latency))

let prop_ubft_random_seeds =
  QCheck.Test.make ~name:"ubft safe and live across seeds" ~count:5
    QCheck.int64
    (fun seed ->
      healthy
        (Thc_replication.Harness.run
           (setup Thc_replication.Harness.Ubft
              Thc_replication.Harness.Fault_free seed)))

let test_ubft_registers_bounded () =
  (* The truncate-on-checkpoint discipline: run well past several checkpoint
     intervals and check no register grew linearly with history.  40 slots
     at checkpoint_interval 16 means a leader register that would hold 40+
     records without truncation. *)
  let f = 1 in
  let config = Thc_replication.Ubft.default_config ~f in
  let n = config.Thc_replication.Ubft.n in
  let seed = 11L in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let registers = Thc_sharedmem.Swmr.log_array ~n in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  let replicas =
    Array.init n (fun pid ->
        Thc_replication.Ubft.create_replica ~config ~keyring ~registers
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~self:pid)
  in
  Array.iteri
    (fun pid r ->
      Thc_sim.Engine.set_behavior engine pid (Thc_replication.Ubft.replica r))
    replicas;
  let ops = 40 in
  let plan =
    List.init ops (fun i ->
        (Int64.of_int ((i + 1) * 3_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Ubft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  let trace =
    Thc_sim.Engine.run ~until:400_000L ~max_events:20_000_000 engine
  in
  Alcotest.(check int) "safety clean" 0
    (List.length (Thc_replication.Smr_spec.check_safety trace ~replicas:n));
  Alcotest.(check bool) "all slots executed" true
    (Array.for_all
       (fun r -> Thc_replication.Ubft.executed_upto r = ops)
       replicas);
  Array.iteri
    (fun pid r ->
      let len = Thc_replication.Ubft.register_len r in
      if len <= 0 || len > 2 * config.Thc_replication.Ubft.checkpoint_interval + 4
      then
        Alcotest.failf "replica %d register has %d records (interval %d)" pid
          len config.Thc_replication.Ubft.checkpoint_interval)
    replicas

(* --- Byzantine replica attacks ------------------------------------------------------ *)

(* A Byzantine non-leader replica with a real trinket, throwing everything it
   has: counterfeit attestations, replayed genuine attestations, prepares it
   is not entitled to send, and garbage payloads. *)
let byzantine_replica ~world ~keyring ~byz_pid () :
    Thc_replication.Minbft.msg Thc_sim.Engine.behavior =
  let out =
    Thc_replication.Attested_link.Out.create
      (Thc_hardware.Trinc.trinket world ~owner:byz_pid)
  in
  let forged_request =
    (* Self-signed request claiming to be from the real client (pid 3):
       signature will not verify as that client. *)
    Thc_crypto.Signature.seal
      (Thc_crypto.Keyring.secret keyring ~pid:byz_pid)
      ({ client = 3; rid = 99; op = Thc_replication.Kv_store.encode_op (Put ("k", "evil")) }
        : Thc_replication.Command.request)
  in
  let replays = ref 0 in
  {
    init = (fun ctx -> ctx.set_timer ~delay:1_000L ~tag:0);
    on_message =
      (fun ctx ~src:_ msg ->
        (* Replay what it hears, verbatim (bounded so the self-echo does not
           amplify without limit). *)
        if !replays < 200 then begin
          incr replays;
          ctx.broadcast msg
        end);
    on_timer =
      (fun ctx _ ->
        (* Counterfeit attestation from the leader. *)
        ctx.broadcast
          (Thc_replication.Minbft.adversarial_wire
             (Thc_hardware.Trinc.counterfeit ~owner:0 ~prev:7 ~counter:8
                ~message:"junk" ~tag:0xBADL));
        (* A prepare it is not entitled to send (not the leader). *)
        ctx.broadcast
          (Thc_replication.Minbft.adversarial_prepare ~out ~view:0 ~seq:1
             ~request:forged_request);
        (* Garbage sealed payload (undecodable proto). *)
        ctx.broadcast
          (Thc_replication.Minbft.adversarial_wire
             (Thc_hardware.Trinc.counterfeit ~owner:byz_pid ~prev:0 ~counter:1
                ~message:"not-a-proto" ~tag:1L));
        ctx.set_timer ~delay:5_000L ~tag:0);
  }

let test_minbft_byzantine_replica_flood () =
  let f = 1 in
  let config = Thc_replication.Minbft.default_config ~f in
  let n = config.Thc_replication.Minbft.n in
  let byz_pid = n - 1 in
  let seed = 41L in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  for pid = 0 to n - 2 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_replication.Minbft.replica
         (Thc_replication.Minbft.create_replica ~config ~keyring ~world
            ~trinket:(Thc_hardware.Trinc.trinket world ~owner:pid)
            ~self:pid))
  done;
  Thc_sim.Engine.mark_byzantine engine byz_pid;
  Thc_sim.Engine.set_behavior engine byz_pid
    (byzantine_replica ~world ~keyring ~byz_pid ());
  let plan =
    List.init 10 (fun i ->
        (Int64.of_int ((i + 1) * 5_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Minbft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  let trace =
    Thc_sim.Engine.run ~until:200_000L ~max_events:20_000_000 engine
  in
  Alcotest.(check int) "safety clean under flood" 0
    (List.length (Thc_replication.Smr_spec.check_safety trace ~replicas:n));
  Alcotest.(check int) "all requests complete" 0
    (List.length
       (Thc_replication.Smr_spec.check_liveness trace
          ~expected:[ (n, List.init 10 Fun.id) ]))

let test_pbft_byzantine_replica_flood () =
  (* PBFT's counterpart: a Byzantine non-leader spams forged signed wires
     and replays; 3f+1 quorums absorb it. *)
  let f = 1 in
  let config = Thc_replication.Pbft.default_config ~f in
  let n = config.Thc_replication.Pbft.n in
  let byz_pid = n - 1 in
  let seed = 43L in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  for pid = 0 to n - 2 do
    Thc_sim.Engine.set_behavior engine pid
      (Thc_replication.Pbft.replica
         (Thc_replication.Pbft.create_replica ~config ~keyring
            ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
            ~self:pid))
  done;
  Thc_sim.Engine.mark_byzantine engine byz_pid;
  let replays = ref 0 in
  let byz : Thc_replication.Pbft.msg Thc_sim.Engine.behavior =
    {
      init = (fun _ -> ());
      on_message =
        (fun ctx ~src:_ msg ->
          if !replays < 200 then begin
            incr replays;
            ctx.broadcast msg
          end);
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine byz_pid byz;
  let plan =
    List.init 10 (fun i ->
        (Int64.of_int ((i + 1) * 5_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Pbft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  let trace = Thc_sim.Engine.run ~until:200_000L ~max_events:20_000_000 engine in
  Alcotest.(check int) "safety clean" 0
    (List.length (Thc_replication.Smr_spec.check_safety trace ~replicas:n));
  Alcotest.(check int) "liveness clean" 0
    (List.length
       (Thc_replication.Smr_spec.check_liveness trace
          ~expected:[ (n, List.init 10 Fun.id) ]))

(* --- random admissible adversaries ------------------------------------------------ *)

let run_minbft_under_adversary seed =
  let f = 1 in
  let config = Thc_replication.Minbft.default_config ~f in
  let n = config.Thc_replication.Minbft.n in
  let rng = Thc_util.Rng.create seed in
  let keyring = Thc_crypto.Keyring.create rng ~n:(n + 1) in
  let world = Thc_hardware.Trinc.create_world rng ~n in
  let net =
    Thc_sim.Net.create ~n:(n + 1) ~default:(Thc_sim.Delay.Uniform (50L, 500L))
  in
  let engine = Thc_sim.Engine.create ~seed ~n:(n + 1) ~net () in
  let adv_rng = Thc_util.Rng.create (Int64.add seed 1000L) in
  let script =
    Thc_sim.Adversary.random adv_rng ~n ~horizon:200_000L ~crash_budget:f ()
  in
  Array.iteri
    (fun pid st ->
      Thc_sim.Engine.set_behavior engine pid (Thc_replication.Minbft.replica st))
    (Array.init n (fun self ->
         Thc_replication.Minbft.create_replica ~config ~keyring ~world
           ~trinket:(Thc_hardware.Trinc.trinket world ~owner:self)
           ~self));
  let plan =
    List.init 10 (fun i ->
        (Int64.of_int ((i + 1) * 5_000), Thc_replication.Kv_store.Incr "c"))
  in
  Thc_sim.Engine.set_behavior engine n
    (Thc_replication.Minbft.client ~rid_base:0 ~config ~keyring
       ~ident:(Thc_crypto.Keyring.secret keyring ~pid:n)
       ~plan);
  Thc_sim.Adversary.install script engine;
  let trace = Thc_sim.Engine.run ~until:2_000_000L ~max_events:20_000_000 engine in
  ( Thc_replication.Smr_spec.check_safety trace ~replicas:n,
    Thc_replication.Smr_spec.check_liveness trace ~expected:[ (n, List.init 10 Fun.id) ] )

let prop_minbft_random_adversaries =
  QCheck.Test.make
    ~name:"minbft safe and live under random crashes + healed partitions"
    ~count:8 QCheck.int64
    (fun seed ->
      let safety, liveness = run_minbft_under_adversary seed in
      safety = [] && liveness = [])

(* --- ablation: non-equivocation is load-bearing ---------------------------------- *)

let test_ablation_unattested_splits () =
  let r = Thc_replication.Ablation.equivocation_splits_unattested () in
  Alcotest.(check bool) "safety violated" true (r.violations <> []);
  Alcotest.(check int) "two ops committed at seq 1" 2 r.distinct_ops_at_seq1

let test_ablation_minbft_holds () =
  let r = Thc_replication.Ablation.equivocation_fails_against_minbft () in
  Alcotest.(check int) "no safety violations" 0 (List.length r.violations);
  Alcotest.(check bool) "at most one op at seq 1" true (r.distinct_ops_at_seq1 <= 1)

(* The unattested world changes nothing a correct run can observe: on a
   dense counter stream its attestations are TrInc's, so fault-free MinBFT
   traces are byte-identical on both worlds. *)
let test_ablation_worlds_identical_fault_free () =
  let trace ~world ~f ~seed =
    let c, _ =
      Thc_replication.Cluster.minbft ~world ~f ~batch:1 ~checkpoint_interval:0
        ~clients:1 ~seed ~delay:(Thc_sim.Delay.Uniform (50L, 500L))
        ~tracing:Thc_sim.Engine.Full ()
    in
    let n = c.replicas in
    Thc_sim.Engine.set_behavior c.engine n
      (c.client ~rid_base:0
         ~ident:(Thc_crypto.Keyring.secret c.keyring ~pid:n)
         ~plan:
           (List.init 8 (fun i ->
                (Int64.of_int (i * 4_000), Thc_replication.Kv_store.Incr "c"))));
    Thc_sim.Trace.to_jsonl ~encode_msg:Thc_util.Codec.encode
      (Thc_sim.Engine.run ~until:200_000L c.engine)
  in
  List.iter
    (fun (f, seed) ->
      Alcotest.(check string)
        (Printf.sprintf "f=%d seed=%Ld" f seed)
        (trace ~world:Thc_hardware.Trinc.create_world ~f ~seed)
        (trace ~world:Thc_hardware.Trinc.create_unattested_world ~f ~seed))
    [ (1, 1L); (1, 7L); (2, 1L); (2, 7L) ]

(* The equivocating leader is one of the f faults: every entry point
   refuses f = 0 before building a cluster. *)
let test_ablation_f0_refused () =
  let module Ab = Thc_replication.Ablation in
  let refused run =
    match run () with _ -> false | exception Invalid_argument _ -> true
  in
  let script = { Thc_sim.Adversary.events = []; horizon = 0L } in
  Alcotest.(check bool) "splits_unattested" true
    (refused (fun () -> Ab.equivocation_splits_unattested ~f:0 ()));
  Alcotest.(check bool) "fails_against_minbft" true
    (refused (fun () -> Ab.equivocation_fails_against_minbft ~f:0 ()));
  Alcotest.(check bool) "unattested_under_script" true
    (refused (fun () -> Ab.unattested_under_script ~f:0 ~seed:1L ~script ()))

let prop_ablation_across_f =
  QCheck.Test.make ~name:"ablation holds for f in 1..3" ~count:3
    QCheck.(int_range 1 3)
    (fun f ->
      let split = Thc_replication.Ablation.equivocation_splits_unattested ~f () in
      let held = Thc_replication.Ablation.equivocation_fails_against_minbft ~f () in
      split.violations <> []
      && split.distinct_ops_at_seq1 = 2
      && held.violations = []
      && held.distinct_ops_at_seq1 <= 1)

(* --- scripted faults and the replay monitor ------------------------------- *)

let test_scripted_scenario_minbft () =
  (* One replica crash (= f) plus a healed partition: MinBFT must stay safe
     and, because the script stays within the fault bound, live. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 30_000L; action = Thc_sim.Adversary.Crash 2 };
          {
            at = 60_000L;
            action = Thc_sim.Adversary.Block_groups [ [ 0 ]; [ 1; 2 ] ];
          };
          { at = 90_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 120_000L;
    }
  in
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Scripted script)
         17L)
  in
  Alcotest.(check int) "no safety violations" 0
    (List.length o.safety_violations);
  Alcotest.(check int) "no liveness violations" 0
    (List.length o.liveness_violations)

let test_scripted_over_budget_waives_liveness () =
  (* Crashing 2 of 3 replicas (> f) cannot keep the cluster live; the
     harness must demand safety only. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 20_000L; action = Thc_sim.Adversary.Crash 1 };
          { at = 20_000L; action = Thc_sim.Adversary.Crash 2 };
        ];
      horizon = 100_000L;
    }
  in
  let o =
    Thc_replication.Harness.run
      (setup Thc_replication.Harness.Minbft
         (Thc_replication.Harness.Scripted script)
         19L)
  in
  Alcotest.(check int) "still safe" 0 (List.length o.safety_violations);
  Alcotest.(check int) "liveness not demanded" 0
    (List.length o.liveness_violations)

let fast = Thc_sim.Delay.Uniform (50L, 500L)

(* One rule for every scenario: liveness is owed iff it crashes at most f
   replicas.  A crashed leader or a restarting replica at f = 0 is one
   crash too many, so its stalled requests are not violations; at f = 1 the
   monitors still run, and under a network that delivers nothing before the
   horizon they report every request. *)
let test_liveness_owed_within_bound () =
  let module H = Thc_replication.Harness in
  let run ?network ~f scenario =
    H.run
      (H.Setup.make ~protocol:H.Minbft ~f ~ops:30 ~scenario ?network ~seed:11L
         ())
  in
  List.iter
    (fun (what, scenario) ->
      let o = run ~f:0 scenario in
      Alcotest.(check bool) (what ^ " at f = 0: requests stall") true
        (o.completed < 30);
      Alcotest.(check int) (what ^ " at f = 0: liveness not demanded") 0
        (List.length o.liveness_violations))
    [
      ("crash-leader", H.Crash_leader 40_000L);
      ("restart", H.Restart_replica { pid = 0; at = 60_000L });
    ];
  let silent =
    Thc_network.Model.make
      (Thc_network.Topology.Lossy
         { base = fast; drop = 1.0; heal_at = 100_000_000L; seed = 7L })
  in
  let o = run ~network:silent ~f:1 (H.Crash_leader 40_000L) in
  Alcotest.(check int) "crash-leader at f = 1: nothing completes" 0 o.completed;
  Alcotest.(check int) "crash-leader at f = 1: every request is a violation" 30
    (List.length o.liveness_violations);
  (* A script counts the replicas it crashes, not its crash events: crashing
     one replica twice is still one crash. *)
  let crashes events =
    H.Scripted
      {
        Thc_sim.Adversary.horizon = 200_000L;
        events =
          List.map
            (fun (at, pid) -> { Thc_sim.Adversary.at; action = Crash pid })
            events;
      }
  in
  List.iter
    (fun (what, events, violations) ->
      let o = run ~network:silent ~f:1 (crashes events) in
      Alcotest.(check int) (what ^ " at f = 1: liveness violations") violations
        (List.length o.liveness_violations))
    [
      ("crash 1", [ (20_000L, 1) ], 30);
      ("crash 1 twice", [ (20_000L, 1); (30_000L, 1) ], 30);
      ("crash 1 and 2", [ (20_000L, 1); (30_000L, 2) ], 0);
    ]

(* --- batching and multiple clients ------------------------------------------ *)

let total_trusted (o : Thc_replication.Harness.outcome) =
  List.fold_left (fun acc (_, c) -> acc + c) 0 o.trusted_ops

let test_multi_client_disjoint_rids () =
  (* Three clients, each with its own rid block; every request must complete
     and the per-client latency map must cover all three client pids. *)
  let o =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Minbft
           Thc_replication.Harness.Fault_free 23L)
        with
        clients = 3;
      }
  in
  Alcotest.(check int) "all clients' requests completed" 45 o.completed;
  Alcotest.(check int) "no safety violations" 0
    (List.length o.safety_violations);
  Alcotest.(check int) "no liveness violations" 0
    (List.length o.liveness_violations);
  Alcotest.(check (list int)) "per-client latency groups"
    [ o.replicas; o.replicas + 1; o.replicas + 2 ]
    (List.map fst o.latency_by_client);
  List.iter
    (fun (_, (s : Thc_util.Stats.summary)) ->
      Alcotest.(check int) "15 latencies per client" 15 s.count)
    o.latency_by_client

let test_batching_amortizes_attestations () =
  (* One attestation seals a whole Prepare/Commit batch, so at batch 4 the
     per-request trusted-op rate must fall strictly below batch 1's. *)
  let run batch =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Minbft
           Thc_replication.Harness.Fault_free 29L)
        with
        clients = 2;
        batch;
        interval = 1_000L;
      }
  in
  let b1 = run 1 and b4 = run 4 in
  Alcotest.(check int) "batch 1 completes all" 30 b1.completed;
  Alcotest.(check int) "batch 4 completes all" 30 b4.completed;
  Alcotest.(check bool) "fewer slots with batching" true
    (b4.commits < b1.commits);
  Alcotest.(check bool)
    (Printf.sprintf "fewer trusted ops per request (%.2f < %.2f)"
       b4.trusted_per_request b1.trusted_per_request)
    true
    (b4.trusted_per_request < b1.trusted_per_request);
  Alcotest.(check bool) "fewer trusted ops in total" true
    (total_trusted b4 < total_trusted b1)

let test_batched_safety_under_scripted_adversary () =
  (* Batch 4 with two clients under a crash (= f) plus a healed partition:
     the linearizability monitors (pairwise prefixes + dense sequential
     replay) and liveness must still pass, and attestations stay per batch:
     strictly fewer trusted ops than the same script at batch 1. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 30_000L; action = Thc_sim.Adversary.Crash 2 };
          {
            at = 60_000L;
            action = Thc_sim.Adversary.Block_groups [ [ 0 ]; [ 1; 2 ] ];
          };
          { at = 90_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 120_000L;
    }
  in
  let run batch =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Minbft
           (Thc_replication.Harness.Scripted script) 31L)
        with
        clients = 2;
        batch;
      }
  in
  let b4 = run 4 in
  Alcotest.(check int) "all requests completed" 30 b4.completed;
  Alcotest.(check int) "linearizable prefixes (safety)" 0
    (List.length b4.safety_violations);
  Alcotest.(check int) "liveness within fault budget" 0
    (List.length b4.liveness_violations);
  let b1 = run 1 in
  Alcotest.(check int) "unbatched run is the baseline" 0
    (List.length b1.safety_violations);
  Alcotest.(check bool) "per-batch attestations beat per-request" true
    (total_trusted b4 < total_trusted b1)

let test_pbft_batched_under_scripted_adversary () =
  let script =
    {
      Thc_sim.Adversary.events =
        [ { at = 30_000L; action = Thc_sim.Adversary.Crash 2 } ];
      horizon = 100_000L;
    }
  in
  let o =
    Thc_replication.Harness.run
      {
        (setup Thc_replication.Harness.Pbft
           (Thc_replication.Harness.Scripted script) 37L)
        with
        clients = 2;
        batch = 4;
      }
  in
  Alcotest.(check int) "all requests completed" 30 o.completed;
  Alcotest.(check int) "no safety violations" 0
    (List.length o.safety_violations);
  Alcotest.(check int) "no liveness violations" 0
    (List.length o.liveness_violations)

(* A synthetic trace exercising the replay monitor without a protocol: one
   process that just records Executed observations. *)
let replay_trace observations =
  let engine =
    Thc_sim.Engine.create ~n:1
      ~net:(Thc_sim.Net.create ~n:1 ~default:(Thc_sim.Delay.Const 10L))
      ()
  in
  Thc_sim.Engine.set_behavior engine 0
    {
      Thc_sim.Engine.init =
        (fun ctx -> List.iter (fun obs -> ctx.output obs) observations);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    };
  Thc_sim.Engine.run engine

let executed ~seq op =
  let store = Thc_replication.Kv_store.create () in
  Thc_sim.Obs.Executed
    {
      seq;
      op = Thc_replication.Kv_store.encode_op op;
      result =
        Thc_replication.Kv_store.encode_result
          (Thc_replication.Kv_store.apply store op);
    }

let test_state_determinism_accepts_sequential () =
  (* incr;incr replayed from scratch gives Counter 1, Counter 2 — record
     exactly that. *)
  let trace =
    replay_trace
      [
        Thc_sim.Obs.Executed
          {
            seq = 1;
            op = Thc_replication.Kv_store.encode_op (Incr "c");
            result = Thc_replication.Kv_store.encode_result (Counter 1);
          };
        Thc_sim.Obs.Executed
          {
            seq = 2;
            op = Thc_replication.Kv_store.encode_op (Incr "c");
            result = Thc_replication.Kv_store.encode_result (Counter 2);
          };
      ]
  in
  Alcotest.(check int) "clean history accepted" 0
    (List.length (Thc_replication.Smr_spec.check_state_determinism trace ~replicas:1))

let test_state_determinism_rejects_stale_result () =
  (* Both observations record the result of applying to a FRESH store, so
     the second Incr claims Counter 1 where sequential replay gives 2. *)
  let trace = replay_trace [ executed ~seq:1 (Incr "c"); executed ~seq:2 (Incr "c") ] in
  (match Thc_replication.Smr_spec.check_state_determinism trace ~replicas:1 with
  | [ { property = `Replay; _ } ] -> ()
  | vs -> Alcotest.failf "expected one replay violation, got %d" (List.length vs))

let test_state_determinism_rejects_gap () =
  let trace = replay_trace [ executed ~seq:1 (Incr "c"); executed ~seq:3 (Incr "c") ] in
  (match Thc_replication.Smr_spec.check_state_determinism trace ~replicas:1 with
  | [ { property = `Replay; _ } ] -> ()
  | vs -> Alcotest.failf "expected one replay violation, got %d" (List.length vs))

(* --- linear monitors --------------------------------------------------------------- *)

(* The list-scanning monitor bodies the linear ones replaced, kept as
   references: each linear fold must return exactly what its reference
   returns, violations and their order included. *)
module Reference = struct
  module Trace = Thc_sim.Trace
  module S = Thc_replication.Smr_spec

  let crashed_pids (t : _ Trace.t) =
    List.filter_map
      (function Trace.Crashed { pid; _ } -> Some pid | _ -> None)
      t.entries

  let correct (t : _ Trace.t) pid =
    (not (List.mem pid t.byzantine)) && not (List.mem pid (crashed_pids t))

  let correct_pids (t : _ Trace.t) =
    List.filter (correct t) (List.init t.n (fun i -> i))

  let executions trace pid =
    List.filter_map
      (fun obs ->
        match (obs : Thc_sim.Obs.t) with
        | Executed { seq; op; result } -> Some (seq, (op, result))
        | _ -> None)
      (Trace.outputs_of trace pid)

  let check_safety trace ~replicas =
    let violations = ref [] in
    let add property info = violations := { S.property; info } :: !violations in
    let correct = List.filter (fun p -> p < replicas) (correct_pids trace) in
    let execs = List.map (fun pid -> (pid, executions trace pid)) correct in
    List.iter
      (fun (p, ep) ->
        List.iter
          (fun (q, eq) ->
            if p < q then
              List.iter
                (fun (seq, (op, result)) ->
                  match List.assoc_opt seq eq with
                  | None -> ()
                  | Some (op', result') ->
                    if not (String.equal op op') then
                      add `Order (Printf.sprintf "p%d/p%d differ at seq %d" p q seq)
                    else if not (String.equal result result') then
                      add `Result
                        (Printf.sprintf "p%d/p%d diverge at seq %d" p q seq))
                ep)
          execs)
      execs;
    List.rev !violations

  let check_liveness trace ~expected =
    let violations = ref [] in
    List.iter
      (fun (client, rids) ->
        let done_rids =
          List.filter_map
            (fun obs ->
              match (obs : Thc_sim.Obs.t) with
              | Client_done { rid; _ } -> Some rid
              | _ -> None)
            (Trace.outputs_of trace client)
        in
        List.iter
          (fun rid ->
            if not (List.mem rid done_rids) then
              violations :=
                {
                  S.property = `Liveness;
                  info = Printf.sprintf "client p%d request #%d incomplete" client rid;
                }
                :: !violations)
          rids)
      expected;
    List.rev !violations

  let commits trace ~replicas =
    List.filter_map
      (fun (_, pid, obs) ->
        match (obs : Thc_sim.Obs.t) with
        | Committed { seq; _ } when pid < replicas && correct trace pid ->
          Some seq
        | _ -> None)
      (Trace.outputs trace)
    |> List.sort_uniq compare |> List.length
end

let violation = Alcotest.testable Thc_replication.Smr_spec.pp_violation ( = )

(* Every linear monitor against its reference at every replica count the
   trace admits.  Each pid is expected to have completed rids
   0 .. max rid + 2, so completed and missing requests are both judged. *)
let check_matches_reference name (trace : _ Thc_sim.Trace.t) =
  let module S = Thc_replication.Smr_spec in
  let at what = name ^ ": " ^ what in
  Alcotest.(check (list int)) (at "correct_pids")
    (Reference.correct_pids trace) (Thc_sim.Trace.correct_pids trace);
  for replicas = 0 to trace.n do
    let at what = at (Printf.sprintf "%s, %d replicas" what replicas) in
    Alcotest.(check int) (at "commits")
      (Reference.commits trace ~replicas) (S.commits trace ~replicas);
    Alcotest.(check (list violation)) (at "check_safety")
      (Reference.check_safety trace ~replicas) (S.check_safety trace ~replicas)
  done;
  let max_rid =
    List.fold_left
      (fun acc (_, _, obs) ->
        match (obs : Thc_sim.Obs.t) with Client_done { rid; _ } -> max acc rid | _ -> acc)
      0 (Thc_sim.Trace.outputs trace)
  in
  let expected = List.init trace.n (fun pid -> (pid, List.init (max_rid + 3) Fun.id)) in
  Alcotest.(check (list violation)) (at "check_liveness")
    (Reference.check_liveness trace ~expected) (S.check_liveness trace ~expected)

let test_monitors_match_reference_golden () =
  let dir = List.find Sys.file_exists [ "corpus/golden"; "test/corpus/golden" ] in
  let parse name =
    let path = Filename.concat dir (name ^ ".jsonl") in
    let data = In_channel.with_open_bin path In_channel.input_all in
    match Thc_sim.Trace.of_jsonl data with
    | Ok trace -> trace
    | Error e -> Alcotest.failf "%s: %s" path e
  in
  let traces =
    List.map
      (fun name -> (name, parse name))
      [ "attack"; "bench_s1"; "explore"; "loadtest" ]
  in
  (* The faults the references must be matched under. *)
  Alcotest.(check (list int)) "attack export has Byzantine p0" [ 0 ]
    (List.assoc "attack" traces).byzantine;
  Alcotest.(check bool) "explore export has a crash" true
    (List.exists
       (function Thc_sim.Trace.Crashed _ -> true | _ -> false)
       (List.assoc "explore" traces).entries);
  List.iter (fun (name, trace) -> check_matches_reference name trace) traces

(* Pids 0..3 are replicas and 4, 5 clients.  Outputs come from the Byzantine
   and the crashed replica (before its crash), p0 and p1 each execute seq 3
   twice with different ops, seq 4 diverges on result only, p2 installs a
   state transfer, and client p4 never completes rid 2. *)
let hand_trace ~byzantine ~crashed =
  let op k = Thc_replication.Kv_store.encode_op (Put ("k", string_of_int k)) in
  let exec pid seq k r =
    `Out (pid, Thc_sim.Obs.Executed { seq; op = op k; result = string_of_int r })
  in
  let commit pid seq k = `Out (pid, Thc_sim.Obs.Committed { view = 0; seq; op = op k }) in
  let both pid seq k = [ commit pid seq k; exec pid seq k k ] in
  let client_done pid rid =
    `Out (pid, Thc_sim.Obs.Client_done { rid; latency_us = 10L })
  in
  let events =
    List.concat
      [
        both 0 1 1; both 1 1 1; both 2 1 1; both 3 1 9;
        both 0 2 2; both 1 2 2; both 2 2 2; both 3 2 2;
        [ client_done 4 0 ];
        List.map (fun pid -> `Crash pid) (Option.to_list crashed);
        [ exec 0 3 3 3; exec 1 3 3 3; exec 1 3 7 7; exec 2 3 8 8; exec 3 3 8 8 ];
        [ exec 0 3 6 6 ];
        [ exec 0 4 4 4; exec 1 4 4 5; exec 2 4 4 4 ];
        [ `Out (2, Thc_sim.Obs.Recovered { upto = 4; exec_count = 4 }) ];
        [ commit 2 5 5; exec 2 5 5 5; commit 3 5 6; exec 3 5 6 6 ];
        [ client_done 4 1; client_done 4 3; client_done 5 10 ];
      ]
  in
  let entries =
    List.mapi
      (fun i event ->
        let time = Int64.of_int i in
        match event with
        | `Out (pid, obs) -> Thc_sim.Trace.Output { time; pid; obs }
        | `Crash pid -> Thc_sim.Trace.Crashed { time; pid })
      events
  in
  { Thc_sim.Trace.n = 6; byzantine; entries;
    end_time = Int64.of_int (List.length entries) }

let test_monitors_match_reference_hand_built () =
  List.iter
    (fun (name, byzantine, crashed) ->
      check_matches_reference name (hand_trace ~byzantine ~crashed))
    [
      ("fault-free", [], None);
      ("byzantine p3, p2 crashed", [ 3 ], Some 2);
      ("byzantine p0, p1 crashed", [ 0 ], Some 1);
    ];
  (* p0's second seq-3 op is checked against p1's first, which matches
     p0's first: one order violation, where a last-wins index gives two. *)
  let safety =
    Thc_replication.Smr_spec.check_safety
      (hand_trace ~byzantine:[] ~crashed:None)
      ~replicas:4
  in
  Alcotest.(check int) "first execution of a seq decides" 1
    (List.length
       (List.filter
          (fun (v : Thc_replication.Smr_spec.violation) ->
            v.info = "p0/p1 differ at seq 3")
          safety))

(* 6000 slots on replicas 0..3 and client 4, padded with message traffic to
   240k entries; p3 crashes half way.  The list-scanning [commits] walked
   the whole trace once per commit here (~5e9 steps). *)
let test_monitors_linear_at_scale () =
  let module S = Thc_replication.Smr_spec in
  let slots = 6000 and replicas = 4 and client = 4 in
  let entries = ref [] and clock = ref 0L in
  let now () = clock := Int64.succ !clock; !clock in
  let push (e : unit Thc_sim.Trace.entry) = entries := e :: !entries in
  for seq = 1 to slots do
    for src = 0 to replicas - 1 do
      for dst = 0 to replicas - 1 do
        push (Sent { time = now (); src; dst; seq; msg = () });
        push (Delivered { time = now (); src; dst; seq; msg = () })
      done
    done;
    let op = string_of_int seq in
    for pid = 0 to replicas - 1 do
      if pid <> 3 || seq <= slots / 2 then begin
        push (Output { time = now (); pid; obs = Committed { view = 0; seq; op } });
        push (Output { time = now (); pid; obs = Executed { seq; op; result = op } })
      end
    done;
    if seq = slots / 2 then push (Crashed { time = now (); pid = 3 });
    let obs = Thc_sim.Obs.Client_done { rid = seq - 1; latency_us = 1L } in
    push (Output { time = now (); pid = client; obs })
  done;
  let trace =
    { Thc_sim.Trace.n = replicas + 1; byzantine = []; entries = List.rev !entries;
      end_time = now () }
  in
  let size = List.length trace.entries in
  let decided =
    Thc_sim.Trace.outputs_matching trace (fun _ obs ->
        match obs with Committed _ | Executed _ -> Some () | _ -> None)
  in
  Alcotest.(check bool) ">= 200k entries" true (size >= 200_000);
  Alcotest.(check bool) ">= 20k Committed/Executed" true (List.length decided >= 20_000);
  let within_a_second name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    if dt >= 1.0 then Alcotest.failf "%s took %.2f s on %d entries" name dt size;
    r
  in
  Alcotest.(check int) "commits" slots
    (within_a_second "commits" (fun () -> S.commits trace ~replicas));
  Alcotest.(check (list violation)) "check_safety" []
    (within_a_second "check_safety" (fun () -> S.check_safety trace ~replicas));
  Alcotest.(check (list violation)) "check_liveness" []
    (within_a_second "check_liveness" (fun () ->
         S.check_liveness trace ~expected:[ (client, List.init slots Fun.id) ]))

(* --- outputs-only runs --------------------------------------------------------- *)

(* [run] and [run_spans] record outputs only and read every network number
   off the engine's counters; [run_export] records the [Full] trace.  The
   reference is that trace itself, parsed back from the export: each count
   of [run]'s outcome must equal the fold that used to compute it, and the
   whole outcome must equal [run_export]'s and [run_spans']. *)
module H = Thc_replication.Harness

let decoded classify s = classify (Thc_util.Codec.decode s)

let classify_exported = function
  | H.Minbft -> decoded Thc_replication.Minbft.classify_msg
  | H.Pbft -> decoded Thc_replication.Pbft.classify_msg
  | H.Ubft -> decoded Thc_replication.Ubft.classify_msg

(* The registry counters that the trace folds fed before the engine's
   counters did. *)
let network_counter name =
  List.mem name [ "net.sent"; "net.held_at_end"; "net.in_flight_at_end" ]
  || String.starts_with ~prefix:"msg.kind." name
  || String.starts_with ~prefix:"net.sends.p" name

let network_counters (o : H.outcome) =
  List.filter_map
    (function
      | name, Thc_obsv.Metrics.Count c when network_counter name -> Some (name, c)
      | _ -> None)
    (Thc_obsv.Metrics.snapshot o.metrics)

let exported_snapshot export =
  List.find_map
    (fun line ->
      match Thc_obsv.Json.parse line with
      | Ok j when Thc_obsv.Json.(member "type" j = Some (Str "metrics")) ->
        Option.map Thc_obsv.Json.to_string (Thc_obsv.Json.member "snapshot" j)
      | _ -> None)
    (String.split_on_char '\n' export)

let check_outputs_only label (setup : H.setup) =
  let o = H.run setup in
  let full, export = H.run_export setup in
  let spans, _, _ = H.run_spans setup in
  let trace = Result.get_ok (Thc_sim.Trace.of_jsonl export) in
  let field name = label ^ ": " ^ name in
  let messages = Thc_sim.Trace.messages_sent trace in
  let breakdown =
    Thc_sim.Metrics.kind_counts trace
      ~classify:(classify_exported setup.protocol)
  in
  let sends = Thc_sim.Metrics.sends_by_source trace in
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) (field "messages") messages o.messages;
  Alcotest.(check (list (pair string int))) (field "breakdown") breakdown
    o.breakdown;
  Alcotest.(check (list (pair int int))) (field "sends_by_replica") sends
    o.sends_by_replica;
  Alcotest.(check (list int)) (field "delivery")
    [ r.delivered; r.held_at_end; r.dropped; r.in_flight_at_end ]
    [
      o.delivery.delivered;
      o.delivery.held_at_end;
      o.delivery.dropped;
      o.delivery.in_flight_at_end;
    ];
  Alcotest.(check (list (pair string int))) (field "snapshot network counters")
    (List.sort compare
       ([
          ("net.sent", messages);
          ("net.held_at_end", r.held_at_end);
          ("net.in_flight_at_end", r.in_flight_at_end);
        ]
       @ List.map (fun (kind, c) -> ("msg.kind." ^ kind, c)) breakdown
       @ List.map (fun (pid, c) -> (Printf.sprintf "net.sends.p%d" pid, c)) sends))
    (network_counters o);
  Alcotest.(check (option string)) (field "exported snapshot")
    (Some
       (Thc_obsv.Json.to_string
          (Thc_obsv.Metrics.snapshot_to_json (Thc_obsv.Metrics.snapshot o.metrics))))
    (exported_snapshot export);
  (* [run] counts the idle tail that [run_export]'s [Full] trace runs. *)
  Alcotest.(check int) (field "events") full.events o.events;
  Alcotest.(check int64) (field "duration_us") full.duration_us o.duration_us;
  Alcotest.(check bool) (field "run = run_export") true (o = full);
  Alcotest.(check bool) (field "run = run_spans") true (o = spans)

(* The explorer's setup (ops 6, f = 1) under 50 of its admissible scripts
   with up to one crash and two partitions: partitions hold messages, and
   some are released towards a replica that has crashed since.  Ten more
   crash two or all three replicas, so crashed replicas' queued check
   ticks end the run, and with every replica down it drains. *)
let test_outputs_only_scripted protocol () =
  let name = Thc_replication.Protocol.to_string protocol in
  let h = Option.get (Thc_check.Harness.find name) in
  for i = 1 to 60 do
    let seed = Int64.of_int i in
    let crashes = if i <= 50 then 1 else 2 + (i mod 2) in
    let script =
      Thc_check.Sweep.script_for h ~crashes ~partitions:2 ~seed ()
    in
    check_outputs_only
      (Printf.sprintf "%s seed %d" name i)
      (H.Setup.make ~protocol ~f:1 ~ops:6 ~scenario:(H.Scripted script) ~seed ())
  done

let test_outputs_only_scenarios () =
  let model name = Result.get_ok (Thc_network.Model.of_string name) in
  List.iter
    (fun protocol ->
      let make = H.Setup.make ~protocol ~f:1 ~ops:30 ~seed:11L in
      List.iter
        (fun (what, setup) ->
          check_outputs_only
            (Thc_replication.Protocol.to_string protocol ^ " " ^ what)
            setup)
        ([
           ("crash-leader", make ~scenario:(H.Crash_leader 40_000L) ());
           ("silent", make ~scenario:H.Silent_replicas ());
           ("checkpoint 8", make ~checkpoint_interval:8 ());
           ("lossy", make ~network:(model "lossy") ());
           ("geo3", make ~network:(model "geo3") ());
           ( "crash-leader, lossy",
             make ~scenario:(H.Crash_leader 40_000L) ~network:(model "lossy") () );
         ]
        @
        if protocol = H.Minbft then
          [
            ( "restart",
              make
                ~scenario:(H.Restart_replica { pid = 2; at = 60_000L })
                ~checkpoint_interval:4 () );
            ( "restart, lossy",
              make
                ~scenario:(H.Restart_replica { pid = 2; at = 60_000L })
                ~checkpoint_interval:4 ~network:(model "lossy") () );
          ]
        else []))
    Thc_replication.Protocol.all

(* --- shared decode ----------------------------------------------------------------- *)

module M = Thc_replication.Minbft

(* Every sealed attestation in the golden MinBFT exports decodes through the
   shared table to a value structurally equal to a fresh [decode_proto]:
   first as a miss that fills its slot, then as a hit that returns the
   stored value itself.  A lookalike carrying the same tag over the
   previous attestation's message decodes to its own message. *)
let test_shared_decode_golden () =
  let dir = List.find Sys.file_exists [ "corpus/golden"; "test/corpus/golden" ] in
  let fresh message =
    match M.decode_proto message with p -> Some p | exception _ -> None
  in
  List.iter
    (fun name ->
      let path = Filename.concat dir (name ^ ".jsonl") in
      let trace =
        match
          Thc_sim.Trace.of_jsonl (In_channel.with_open_bin path In_channel.input_all)
        with
        | Ok trace -> trace
        | Error e -> Alcotest.failf "%s: %s" path e
      in
      let checked = ref 0 in
      let previous = ref "" in
      List.iter
        (function
          | Thc_sim.Trace.Sent { msg; _ } | Thc_sim.Trace.Delivered { msg; _ } -> (
            match M.attestation_of (Thc_util.Codec.decode msg) with
            | None -> ()
            | Some a ->
              incr checked;
              let where = Printf.sprintf "%s: p%d counter %d" name a.owner a.counter in
              let miss = M.decode_sealed a in
              let hit = M.decode_sealed a in
              if miss <> fresh a.message || hit <> fresh a.message then
                Alcotest.failf "%s decodes differently" where;
              (match (miss, hit) with
              | Some p, Some q when p != q -> Alcotest.failf "%s decoded twice" where
              | _ -> ());
              let lookalike =
                Thc_hardware.Trinc.counterfeit ~owner:a.owner ~prev:a.prev
                  ~counter:a.counter ~message:!previous ~tag:a.tag
              in
              if M.decode_sealed lookalike <> fresh !previous then
                Alcotest.failf "%s: a lookalike decodes to the stored proto" where;
              previous := a.message)
          | _ -> ())
        trace.entries;
      Alcotest.(check bool) (name ^ ": has sealed attestations") true (!checked > 0))
    [ "attack"; "bench_s1"; "explore"; "loadtest" ]

(* The shared decode table and the keyring memos outlive a run.  They hold
   host work only, so an export must not depend on what ran earlier in the
   process: run once, run twice in a row, and run after an unrelated
   MinBFT run give the same bytes. *)
let test_run_order_keeps_bytes () =
  let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s) in
  let make = H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:30 ~seed:11L in
  List.iter
    (fun (what, setup) ->
      let export () = md5 (snd (H.run_export setup)) in
      let once = export () in
      let again = export () in
      ignore
        (H.run (H.Setup.make ~protocol:H.Minbft ~f:1 ~ops:40 ~clients:3 ~seed:5L ()));
      let after = export () in
      Alcotest.(check string) (what ^ ": twice in a row") once again;
      Alcotest.(check string) (what ^ ": after another run") once after)
    [
      ("crash-leader", make ~scenario:(H.Crash_leader 40_000L) ());
      ( "restart",
        make
          ~scenario:(H.Restart_replica { pid = 2; at = 60_000L })
          ~checkpoint_interval:4 () );
    ]

(* --- replica core ----------------------------------------------------------- *)

(* [Replica_core] driven directly through a recording context.  The core's
   wire type here is [Command.reply] itself, so a send records the reply. *)
module RC = Thc_replication.Replica_core

let core_keyring () = Thc_crypto.Keyring.create (Thc_util.Rng.create 7L) ~n:6

(* Replicas are pids 0-2 (view 0's leader is 0); clients are 3-5. *)
let core kr ~self =
  RC.create ~self ~n:3 ~keyring:kr ~request_timeout:30_000L
    ~check_interval:10_000L ~batch_size:2 ~batch_delay:2_000L ~reply:Fun.id

let core_request kr (client, rid) =
  Thc_replication.Command.make
    ~ident:(Thc_crypto.Keyring.secret kr ~pid:client)
    ~rid
    (Thc_replication.Kv_store.Incr "k")

type recorded =
  | Sent of int * Thc_replication.Command.reply
  | Output of Thc_sim.Obs.t
  | Timer of int64 * int
  | Idle_timer of int64 * int

let recording_ctx ~self =
  let log = ref [] in
  let record e = log := e :: !log in
  let ctx : Thc_replication.Command.reply Thc_sim.Engine.ctx =
    {
      self;
      n = 6;
      now = (fun () -> 0L);
      send = (fun dst m -> record (Sent (dst, m)));
      broadcast = (fun _ -> Alcotest.fail "core broadcast");
      others = (fun _ -> Alcotest.fail "core sent to others");
      set_timer = (fun ~delay ~tag -> record (Timer (delay, tag)));
      set_poll = (fun ~delay:_ ~tag:_ -> Alcotest.fail "core polled");
      set_idle_timer = (fun ~delay ~tag -> record (Idle_timer (delay, tag)));
      quiet = (fun _ -> ());
      output = (fun o -> record (Output o));
      rng = Thc_util.Rng.create 1L;
      spans = Thc_obsv.Span.nop;
    }
  in
  (ctx, fun () -> List.rev !log)

let keys_of (c : _ RC.t) =
  List.map
    (fun (sr : Thc_replication.Command.signed_request) ->
      Thc_replication.Command.key sr.value)
    (List.of_seq (Queue.to_seq c.queue))

let test_core_intake () =
  let kr = core_keyring () in
  let follower = core kr ~self:1 in
  let ctx, log = recording_ctx ~self:1 in
  let sr = core_request kr (3, 1) in
  let forged = { sr with value = { sr.value with rid = 2 } } in
  Alcotest.(check bool) "invalid: dropped" false (RC.intake follower ctx forged);
  Alcotest.(check int) "invalid: not tracked" 0 (Thc_util.Keyed.Pair.length follower.pending);
  Alcotest.(check bool) "follower: false" false (RC.intake follower ctx sr);
  Alcotest.(check bool) "follower: tracked" true
    (Thc_util.Keyed.Pair.mem follower.pending (3, 1));
  Alcotest.(check int) "follower: nothing queued" 0 (Queue.length follower.queue);
  RC.execute_slot follower ctx [ sr ];
  Alcotest.(check bool) "executed: no longer pending" false
    (Thc_util.Keyed.Pair.mem follower.pending (3, 1));
  let result = Thc_replication.Kv_store.(encode_result (Counter 1)) in
  let replied = Sent (3, { replica = 1; rid = 1; result }) in
  Alcotest.(check bool) "executed: output then reply" true
    (log () = [ Output (Executed { seq = 1; op = sr.value.op; result }); replied ]);
  Alcotest.(check bool) "executed: false" false (RC.intake follower ctx sr);
  Alcotest.(check bool) "executed: re-replied" true
    (List.length (log ()) = 3 && List.nth (log ()) 2 = replied);
  Alcotest.(check bool) "executed: not tracked again" false
    (Thc_util.Keyed.Pair.mem follower.pending (3, 1));
  let leader = core kr ~self:0 in
  leader.status <- RC.Changing 1;
  Alcotest.(check bool) "changing leader: false" false
    (RC.intake leader ctx (core_request kr (3, 2)));
  Alcotest.(check bool) "changing leader: tracked" true
    (Thc_util.Keyed.Pair.mem leader.pending (3, 2));
  leader.status <- RC.Normal;
  Alcotest.(check bool) "normal leader: true" true
    (RC.intake leader ctx (core_request kr (3, 3)));
  Alcotest.(check (list (pair int int))) "normal leader: queued" [ (3, 3) ]
    (keys_of leader)

let test_core_flush () =
  let kr = core_keyring () in
  let c = core kr ~self:0 in
  let ctx, log = recording_ctx ~self:0 in
  let propose proposed _ (batch : Thc_replication.Command.batch) =
    proposed :=
      !proposed
      @ [ List.map (fun (sr : Thc_replication.Command.signed_request) ->
              Thc_replication.Command.key sr.value) batch ]
  in
  let proposed = ref [] in
  List.iter
    (fun key -> ignore (RC.intake c ctx (core_request kr key)))
    [ (3, 1); (3, 2); (3, 3) ];
  RC.arm_batch_timer c ctx;
  RC.arm_batch_timer c ctx;
  Alcotest.(check bool) "batch timer armed once" true
    (log () = [ Timer (2_000L, RC.batch_timer_tag) ]);
  RC.flush c ctx ~force:false propose proposed;
  Alcotest.(check (list (list (pair int int)))) "full batches only"
    [ [ (3, 1); (3, 2) ] ] !proposed;
  RC.flush c ctx ~force:true propose proposed;
  Alcotest.(check (list (list (pair int int)))) "forced: the rest"
    [ [ (3, 1); (3, 2) ]; [ (3, 3) ] ] !proposed;
  Alcotest.(check bool) "timer fires at the leader" true (RC.batch_timer_fired c);
  Alcotest.(check bool) "and disarms" false c.batch_armed;
  proposed := [];
  List.iter
    (fun key -> ignore (RC.intake c ctx (core_request kr key)))
    [ (4, 1); (4, 2); (4, 3) ];
  RC.mark_proposed c 7 [ core_request kr (4, 1) ];
  Thc_util.Keyed.Pair.replace c.executed (4, 2) "done";
  RC.flush c ctx ~force:true propose proposed;
  Alcotest.(check (list (list (pair int int))))
    "proposed and executed keys skipped" [ [ (4, 3) ] ] !proposed;
  Alcotest.(check int) "queue drained" 0 (Thc_util.Keyed.Pair.length c.queued)

(* The check tick is idle exactly while nothing is pending: then firing
   it only re-arms it, which lets the engine count an idle tail. *)
let test_core_check_timer () =
  let kr = core_keyring () in
  let c = core kr ~self:1 in
  let ctx, log = recording_ctx ~self:1 in
  RC.arm_check_timer c ctx;
  ignore (RC.intake c ctx (core_request kr (3, 1)));
  RC.arm_check_timer c ctx;
  RC.execute_slot c ctx [ core_request kr (3, 1) ];
  RC.arm_check_timer c ctx;
  let timers =
    List.filter (function Timer _ | Idle_timer _ -> true | _ -> false) (log ())
  in
  Alcotest.(check bool) "idle, plain while pending, idle again" true
    (timers
    = [
        Idle_timer (10_000L, RC.check_timer_tag);
        Timer (10_000L, RC.check_timer_tag);
        Idle_timer (10_000L, RC.check_timer_tag);
      ])

let test_core_escalation () =
  let kr = core_keyring () in
  let c = core kr ~self:1 in
  let ctx, _ = recording_ctx ~self:1 in
  Alcotest.(check int) "idle" 0 (RC.escalation c ~now:100_000L);
  ignore (RC.intake c ctx (core_request kr (3, 1)));
  Alcotest.(check int) "at exactly request_timeout" 0
    (RC.escalation c ~now:30_000L);
  Alcotest.(check int) "past it: view + 1" 1 (RC.escalation c ~now:30_001L);
  Alcotest.(check (pair int int64)) "attempt recorded" (1, 30_001L)
    (c.max_vc_sent, c.last_vc_at);
  Alcotest.(check int) "not again within request_timeout" 0
    (RC.escalation c ~now:60_001L);
  Alcotest.(check int) "after another request_timeout" 2
    (RC.escalation c ~now:60_002L)

let test_core_requeue () =
  let kr = core_keyring () in
  let c = core kr ~self:1 in
  let ctx, _ = recording_ctx ~self:1 in
  List.iter
    (fun key -> ignore (RC.intake c ctx (core_request kr key)))
    [ (5, 3); (4, 7); (4, 2); (3, 9) ];
  RC.mark_proposed c 4 [ core_request kr (4, 7) ];
  RC.requeue_pending c;
  Alcotest.(check (list (pair int int))) "key order, proposed skipped"
    [ (3, 9); (4, 2); (5, 3) ] (keys_of c);
  RC.requeue_pending c;
  Alcotest.(check int) "queued once" 3 (Queue.length c.queue)

let test_core_reset () =
  let kr = core_keyring () in
  let c = core kr ~self:0 in
  let ctx, _ = recording_ctx ~self:0 in
  c.view <- 3;
  c.next_seq <- 9;
  Alcotest.(check bool) "leads view 3" true
    (RC.intake c ctx (core_request kr (3, 1)));
  RC.arm_batch_timer c ctx;
  RC.execute_slot c ctx [ core_request kr (4, 1) ];
  Alcotest.(check int) "escalates" 4 (RC.escalation c ~now:40_000L);
  c.status <- RC.Changing 4;
  RC.reset c;
  Alcotest.(check (list int)) "view, next_seq, escalation clock kept"
    [ 3; 9; 4; 40_000 ]
    [ c.view; c.next_seq; c.max_vc_sent; Int64.to_int c.last_vc_at ];
  Alcotest.(check bool) "status normal" true (c.status = RC.Normal);
  Alcotest.(check (list int)) "indexes, queue and tables cleared"
    [ 0; 0; 0; 0; 0; 0; 0 ]
    [
      c.exec_upto;
      c.exec_count;
      Queue.length c.queue;
      Thc_util.Keyed.Pair.length c.queued;
      Thc_util.Keyed.Pair.length c.pending;
      Thc_util.Keyed.Pair.length c.proposed_keys;
      Thc_util.Keyed.Pair.length c.executed;
    ];
  Alcotest.(check bool) "batch timer disarmed" false c.batch_armed;
  Alcotest.(check int64) "store emptied"
    (Thc_replication.Kv_store.digest (Thc_replication.Kv_store.create ()))
    (Thc_replication.Kv_store.digest c.store)

(* --- retention: decided slots keep no quorum state ---------------------- *)

(* Four clients of 250 requests each, wired as Harness wires a fault-free
   smr cell at f = 1 and seed 1, run to that cell's horizon.  What the
   engine still reaches afterwards, per commit, is what a replica and a
   client keep per decided slot or completed request.  The bounds sit
   above what a run keeps (340, 501 and 164 words for MinBFT, PBFT and
   uBFT) and below what it keeps when every vote set, proposal and send
   time lives to the end (537, 965 and 211). *)
let retained_words_per_commit protocol =
  let module C = Thc_replication.Cluster in
  let ops = 250 and clients = 4 and interval = 5_000L and seed = 1L in
  let (C.Cluster c) =
    C.create protocol ~f:1 ~batch:1 ~checkpoint_interval:0 ~clients ~seed
      ~delay:(Thc_sim.Delay.Uniform (50L, 500L))
      ~tracing:Thc_sim.Engine.Outputs_only
  in
  for k = 0 to clients - 1 do
    let pid = c.replicas + k in
    let plan =
      List.mapi
        (fun i op -> (Int64.mul (Int64.of_int (i + 1)) interval, op))
        (H.default_workload ~ops ~seed:(Int64.add seed (Int64.of_int (7919 * k))))
    in
    Thc_sim.Engine.set_behavior c.engine pid
      (c.client ~rid_base:(k * ops)
         ~ident:(Thc_crypto.Keyring.secret c.keyring ~pid)
         ~plan)
  done;
  let until = Int64.add (Int64.mul (Int64.of_int (ops + 2)) interval) 2_000_000L in
  let trace = Thc_sim.Engine.run ~until c.engine in
  let commits = Thc_replication.Smr_spec.commits trace ~replicas:c.replicas in
  (commits, Obj.reachable_words (Obj.repr c.engine) / max 1 commits)

let test_retained_words () =
  List.iter
    (fun (protocol, bound) ->
      let name = Thc_replication.Protocol.to_string protocol in
      let commits, words = retained_words_per_commit protocol in
      Alcotest.(check int) (name ^ " commits") 1_000 commits;
      if words > bound then
        Alcotest.failf "%s keeps %d words per commit, above %d" name words bound)
    [ (H.Minbft, 400); (H.Pbft, 600); (H.Ubft, 190) ]

(* --- byte pins for the three protocols ------------------------------------ *)

(* The golden traces and the checkpoint MD5 pins cover MinBFT's fault-free
   and checkpoint paths; these pin each protocol's full exports on the paths
   the golden corpus misses: batching with several clients, a crashed
   leader, an explorer script with and without a network model (a rational
   client strategy), a heal that the model must be re-lowered after, an
   open- and a closed-loop loadtest point, and MinBFT's restart.  The PBFT
   and uBFT pins were recorded before the replica front ends moved into
   [Replica_core], the rest before the clusters moved into [Cluster]; a
   change that moves a byte on purpose re-records them. *)
let model term = Result.get_ok (Thc_network.Model.of_string term)

let export_pins protocol =
  let make = H.Setup.make ~protocol ~f:1 ~ops:30 ~seed:11L in
  let n = if protocol = H.Pbft then 4 else 3 in
  (* The explorer's shape: an admissible random script over every replica
     of the protocol at f = 1. *)
  let script =
    Thc_sim.Adversary.random
      (Thc_util.Rng.create 42L)
      ~n ~horizon:200_000L ~crash_budget:1 ~partition_budget:1 ()
  in
  let explore ?network () =
    H.Setup.make ~protocol ~f:1 ~ops:6 ~delay:fast ~scenario:(H.Scripted script)
      ?network ~seed:42L ()
  in
  (* The explorer's scripts heal after their six requests are done; this one
     isolates the leader and heals while requests are still flowing, so the
     network model's re-lowering after the heal shapes the run. *)
  let heal_mid_run =
    {
      Thc_sim.Adversary.horizon = 100_000L;
      events =
        [
          {
            at = 20_000L;
            action = Block_groups [ [ 0 ]; List.init (n - 1) succ ];
          };
          { at = 60_000L; action = Heal };
        ];
    }
  in
  [
    ("batch 4, 3 clients", make ~batch:4 ~clients:3 ());
    ("crash-leader", make ~scenario:(H.Crash_leader 40_000L) ());
    ("explore script", explore ());
    ( "explore script, lan+race:0.5",
      explore ~network:(model "lan+race:0.5") () );
    ( "heal mid-run, lan+race:0.5",
      make ~scenario:(H.Scripted heal_mid_run)
        ~network:(model "lan+race:0.5") () );
  ]
  @
  if protocol = H.Minbft then
    [
      ( "restart, ckpt 4",
        make ~checkpoint_interval:4
          ~scenario:(H.Restart_replica { pid = 2; at = 60_000L })
          () );
    ]
  else []

(* The golden loadtest point's spec (test_engine_golden), open loop as
   recorded there and closed loop under a lossy network with lazy
   replicas. *)
let loadtest_points protocol =
  let module W = Thc_workload.Workload in
  let golden =
    {
      Thc_workload.Loadtest.protocol;
      f = 1;
      batch = 4;
      seed = 29L;
      delay = fast;
      network = None;
      spec =
        {
          W.clients = 4;
          requests_per_client = 20;
          arrival = W.Open_poisson { rate_rps = 400.0 };
          keys = W.Keys_zipf { keys = 64; theta = 0.99 };
          mix = W.default_mix;
        };
    }
  in
  [
    ("loadtest point", golden);
    ( "loadtest closed, lossy+lazy:0.3,2000",
      {
        golden with
        network = Some (model "lossy+lazy:0.3,2000");
        spec =
          {
            golden.spec with
            W.arrival = W.Closed { window = 2; think_us = 0L };
          };
      } );
  ]

let test_exports_pinned protocol pins () =
  let md5 s = Stdlib.Digest.to_hex (Stdlib.Digest.string s) in
  let name = Thc_replication.Protocol.to_string protocol in
  let runs =
    List.map
      (fun (what, setup) ->
        let o, export = H.run_export setup in
        if what = "crash-leader" then
          Alcotest.(check int) (name ^ " crash-leader: final view") 1 o.final_view;
        (what, md5 export))
      (export_pins protocol)
  in
  let points =
    List.map
      (fun (what, point) ->
        let r, export = Thc_workload.Loadtest.run_point_export point in
        Alcotest.(check int)
          (Printf.sprintf "%s %s: every request completes" name what)
          r.offered r.completed;
        (what, md5 export))
      (loadtest_points protocol)
  in
  Alcotest.(check (list (pair string string)))
    (name ^ " export MD5s") pins (runs @ points)

let minbft_pins =
  [
    ("batch 4, 3 clients", "a02f2b2c2b51dd113837ec08bf3e593c");
    ("crash-leader", "007c7b823b27efbe2bc080b6d59a5a2a");
    ("explore script", "f1696197e2026ac8bf6d624906505b8e");
    ("explore script, lan+race:0.5", "00debe3c22fc6d4b4cd7c063302d7328");
    ("heal mid-run, lan+race:0.5", "21076356f180fccba7a6a4f1d197ca2e");
    ("restart, ckpt 4", "e0f22cb112f84bd7dedaae6c71f2ad1e");
    ("loadtest point", "2bdc5b6d9e7fe86967d41772480fa436");
    ( "loadtest closed, lossy+lazy:0.3,2000",
      "c386d17e5217820d3a65eb5247948880" );
  ]

let pbft_pins =
  [
    ("batch 4, 3 clients", "b44c644879db766c08103cc6d1156b57");
    ("crash-leader", "1fcd3002b2bdd45dcd8e4b303ddedd90");
    ("explore script", "9b3f0b6081417835c7cef2bfaa53f140");
    ("explore script, lan+race:0.5", "7905e4d4436aeaab93bc2a09d2486e2b");
    ("heal mid-run, lan+race:0.5", "968ac9276cd07be58e9a10cfc58c01a6");
    ("loadtest point", "7d041e9f77a2c0ab2c3f8008dddcf0d0");
    ( "loadtest closed, lossy+lazy:0.3,2000",
      "a6b17469f406ec1caf6c8be6ca6ffb11" );
  ]

let ubft_pins =
  [
    ("batch 4, 3 clients", "80c194c1fc4519f56244beeb1d651e3d");
    ("crash-leader", "ecaf7415e64b479c5873beefa2db4b1b");
    ("explore script", "4b19de7e2b5fd86c2949373c2c66ebae");
    ("explore script, lan+race:0.5", "a2208dea98f4ec2375c25c187684b2a8");
    ("heal mid-run, lan+race:0.5", "5dcb22ab0a8b340a16890a8bcd723154");
    ("loadtest point", "00fa232543c18a4381efa8f119236a26");
    ( "loadtest closed, lossy+lazy:0.3,2000",
      "eea3bf04f9fed67cf7b9dcb67c03a29c" );
  ]

let () =
  Alcotest.run "thc_replication"
    [
      ( "kv-store",
        [
          Alcotest.test_case "semantics" `Quick test_kv_semantics;
          Alcotest.test_case "digest" `Quick test_kv_digest_reflects_content;
          Alcotest.test_case "op roundtrip" `Quick test_kv_op_roundtrip;
          qcheck prop_kv_digest_order_insensitive;
        ] );
      ( "attested-link",
        [
          Alcotest.test_case "seal dense" `Quick test_link_seal_dense;
          Alcotest.test_case "in-order release" `Quick test_link_in_order_release;
          Alcotest.test_case "check log" `Quick test_link_check_log;
          Alcotest.test_case "rejection ledger" `Quick
            test_link_rejection_ledger;
          qcheck prop_link_accept_matches_reference;
        ] );
      ( "client",
        [
          Alcotest.test_case "collector quorum" `Quick test_collector_quorum;
          Alcotest.test_case "command validation" `Quick test_command_validation;
        ] );
      ( "scenarios",
        [
          Alcotest.test_case "minbft all scenarios" `Quick test_minbft_scenarios;
          Alcotest.test_case "pbft all scenarios" `Quick test_pbft_scenarios;
          Alcotest.test_case "minbft beats pbft" `Quick test_minbft_beats_pbft_on_messages;
          Alcotest.test_case "crash forces view change" `Quick test_crash_leader_forces_view_change;
          Alcotest.test_case "workload deterministic" `Quick test_workload_deterministic;
          Alcotest.test_case "harness deterministic" `Quick test_harness_deterministic;
          qcheck prop_minbft_random_seeds;
          qcheck prop_minbft_crash_random_seeds;
          Alcotest.test_case "ubft all scenarios" `Quick test_ubft_scenarios;
          Alcotest.test_case "ubft beats minbft" `Quick test_ubft_beats_minbft;
          Alcotest.test_case "ubft crash forces view change" `Quick
            test_ubft_crash_leader_forces_view_change;
          Alcotest.test_case "ubft deterministic" `Quick test_ubft_deterministic;
          Alcotest.test_case "ubft registers bounded" `Quick
            test_ubft_registers_bounded;
          qcheck prop_ubft_random_seeds;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "byzantine replica flood" `Quick
            test_minbft_byzantine_replica_flood;
          Alcotest.test_case "pbft byzantine flood" `Quick
            test_pbft_byzantine_replica_flood;
          qcheck prop_minbft_random_adversaries;
        ] );
      ( "ablation",
        [
          Alcotest.test_case "unattested splits" `Quick test_ablation_unattested_splits;
          Alcotest.test_case "minbft holds" `Quick test_ablation_minbft_holds;
          Alcotest.test_case "worlds identical fault-free" `Quick
            test_ablation_worlds_identical_fault_free;
          qcheck prop_ablation_across_f;
          Alcotest.test_case "zero f refused" `Quick test_ablation_f0_refused;
        ] );
      ( "scripted",
        [
          Alcotest.test_case "within budget" `Quick test_scripted_scenario_minbft;
          Alcotest.test_case "over budget waives liveness" `Quick
            test_scripted_over_budget_waives_liveness;
          Alcotest.test_case "liveness owed iff crashes within f" `Quick
            test_liveness_owed_within_bound;
        ] );
      ( "batching",
        [
          Alcotest.test_case "multi-client disjoint rids" `Quick
            test_multi_client_disjoint_rids;
          Alcotest.test_case "amortizes attestations" `Quick
            test_batching_amortizes_attestations;
          Alcotest.test_case "safe under scripted adversary" `Quick
            test_batched_safety_under_scripted_adversary;
          Alcotest.test_case "pbft batched under script" `Quick
            test_pbft_batched_under_scripted_adversary;
        ] );
      ( "replay-monitor",
        [
          Alcotest.test_case "accepts sequential history" `Quick
            test_state_determinism_accepts_sequential;
          Alcotest.test_case "rejects stale result" `Quick
            test_state_determinism_rejects_stale_result;
          Alcotest.test_case "rejects gap" `Quick test_state_determinism_rejects_gap;
        ] );
      ( "linear-monitor",
        [
          Alcotest.test_case "match reference on golden exports" `Quick
            test_monitors_match_reference_golden;
          Alcotest.test_case "match reference on hand-built traces" `Quick
            test_monitors_match_reference_hand_built;
          Alcotest.test_case "linear at 240k entries" `Quick
            test_monitors_linear_at_scale;
        ] );
      ( "shared-decode",
        [
          Alcotest.test_case "golden sealed payloads" `Quick
            test_shared_decode_golden;
          Alcotest.test_case "run order keeps bytes" `Quick
            test_run_order_keeps_bytes;
        ] );
      ( "outputs-only",
        [
          Alcotest.test_case "minbft under scripts" `Quick
            (test_outputs_only_scripted H.Minbft);
          Alcotest.test_case "pbft under scripts" `Quick
            (test_outputs_only_scripted H.Pbft);
          Alcotest.test_case "ubft under scripts" `Quick
            (test_outputs_only_scripted H.Ubft);
          Alcotest.test_case "scenarios and networks" `Quick
            test_outputs_only_scenarios;
        ] );
      ( "replica-core",
        [
          Alcotest.test_case "intake" `Quick test_core_intake;
          Alcotest.test_case "flush" `Quick test_core_flush;
          Alcotest.test_case "escalation" `Quick test_core_escalation;
          Alcotest.test_case "check timer idle iff nothing pending" `Quick
            test_core_check_timer;
          Alcotest.test_case "requeue pending" `Quick test_core_requeue;
          Alcotest.test_case "reset keeps view and clock" `Quick test_core_reset;
        ] );
      ( "retention",
        [
          Alcotest.test_case "decided slots keep no quorum state" `Quick
            test_retained_words;
        ] );
      ( "byte-pins",
        [
          Alcotest.test_case "minbft exports pinned" `Quick
            (test_exports_pinned H.Minbft minbft_pins);
          Alcotest.test_case "pbft exports pinned" `Quick
            (test_exports_pinned H.Pbft pbft_pins);
          Alcotest.test_case "ubft exports pinned" `Quick
            (test_exports_pinned H.Ubft ubft_pins);
        ] );
    ]
