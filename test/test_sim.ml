(* Tests for the discrete-event engine: delivery, timers, crashes, link
   reconfiguration (block/hold/release/drop), determinism, trace queries. *)

let qcheck = QCheck_alcotest.to_alcotest

type msg = Ping of int

let net ?(delay = Thc_sim.Delay.Const 100L) n = Thc_sim.Net.create ~n ~default:delay

let recorder received : msg Thc_sim.Engine.behavior =
  {
    init = (fun _ -> ());
    on_message =
      (fun ctx ~src (Ping k) -> received := (ctx.now (), src, k) :: !received);
    on_timer = (fun _ _ -> ());
  }

let sender_at ~at ~dst k : msg Thc_sim.Engine.behavior =
  {
    init = (fun ctx -> ctx.set_timer ~delay:at ~tag:0);
    on_message = (fun _ ~src:_ _ -> ());
    on_timer = (fun ctx _ -> ctx.send dst (Ping k));
  }

(* --- delivery ---------------------------------------------------------------- *)

let test_delivery_delay () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 7);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  let trace = Thc_sim.Engine.run engine in
  (match !received with
  | [ (time, 0, 7) ] -> Alcotest.(check int64) "arrives at send+delay" 150L time
  | _ -> Alcotest.fail "expected exactly one delivery");
  Alcotest.(check int) "one send in trace" 1 (Thc_sim.Trace.messages_sent trace)

let test_broadcast_includes_self () =
  let n = 3 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> if ctx.self = 0 then ctx.broadcast (Ping 1));
      on_message = (fun ctx ~src:_ _ -> received := ctx.self :: !received);
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int)) "all three receive, self included" [ 0; 1; 2 ]
    (List.sort compare !received)

let test_others_excludes_self () =
  let n = 3 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> if ctx.self = 0 then ctx.others (Ping 1));
      on_message = (fun ctx ~src:_ _ -> received := ctx.self :: !received);
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int)) "only others receive" [ 1; 2 ]
    (List.sort compare !received)

(* --- timers -------------------------------------------------------------------- *)

let test_timer_order () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let fired = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.set_timer ~delay:300L ~tag:3;
          ctx.set_timer ~delay:100L ~tag:1;
          ctx.set_timer ~delay:200L ~tag:2);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ tag -> fired := tag :: !fired);
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int)) "timers fire in time order" [ 1; 2; 3 ]
    (List.rev !fired)

(* --- crash --------------------------------------------------------------------- *)

let test_crash_stops_delivery () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:500L ~dst:1 9);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.schedule_crash engine ~pid:1 ~at:100L;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "no deliveries after crash" 0 (List.length !received);
  Alcotest.(check bool) "crashed not correct" false (Thc_sim.Trace.correct trace 1);
  Alcotest.(check (list int)) "correct pids" [ 0 ] (Thc_sim.Trace.correct_pids trace)

let test_crashed_process_sends_nothing () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:500L ~dst:1 9);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.schedule_crash engine ~pid:0 ~at:100L;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "no messages sent" 0 (Thc_sim.Trace.messages_sent trace)

(* --- link reconfiguration --------------------------------------------------------- *)

let test_block_holds_then_releases () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 5);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
  Thc_sim.Engine.at engine 1_000L (fun () ->
      Thc_sim.Engine.set_link engine ~src:0 ~dst:1
        (Thc_sim.Net.Deliver (Thc_sim.Delay.Const 10L)));
  let trace = Thc_sim.Engine.run engine in
  (match !received with
  | [ (time, 0, 5) ] ->
    Alcotest.(check int64) "released at heal + delay" 1_010L time
  | _ -> Alcotest.fail "expected exactly one delivery");
  let held =
    Thc_sim.Trace.count trace (function Thc_sim.Trace.Held _ -> true | _ -> false)
  in
  Alcotest.(check int) "held entry recorded" 1 held

let test_drop () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 5);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Drop;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "nothing delivered" 0 (List.length !received);
  Alcotest.(check int) "drop recorded" 1
    (Thc_sim.Trace.count trace (function Thc_sim.Trace.Dropped _ -> true | _ -> false))

let test_heal_all () =
  let n = 3 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:10L ~dst:2 1);
  Thc_sim.Engine.set_behavior engine 1 (sender_at ~at:10L ~dst:2 2);
  Thc_sim.Engine.set_behavior engine 2 (recorder received);
  Thc_sim.Net.set_to (Thc_sim.Engine.net engine) ~dst:2 Thc_sim.Net.Block;
  Thc_sim.Engine.at engine 500L (fun () ->
      Thc_sim.Engine.heal_all engine (Thc_sim.Delay.Const 1L));
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check int) "both held messages arrive after heal_all" 2
    (List.length !received)

let test_isolate_groups () =
  let net = Thc_sim.Net.create ~n:4 ~default:(Thc_sim.Delay.Const 1L) in
  Thc_sim.Net.isolate_groups net ~groups:[ [ 0; 1 ] ] Thc_sim.Net.Block;
  let blocked src dst =
    match Thc_sim.Net.get net ~src ~dst with
    | Thc_sim.Net.Block -> true
    | Thc_sim.Net.Deliver _ | Thc_sim.Net.Drop -> false
  in
  Alcotest.(check bool) "within group open" false (blocked 0 1);
  Alcotest.(check bool) "implicit group open" false (blocked 2 3);
  Alcotest.(check bool) "cross blocked" true (blocked 0 2);
  Alcotest.(check bool) "cross blocked reverse" true (blocked 3 1)

(* Five pids broadcasting every 100 µs for 5 ms over the [lossy] preset
   (some links drop, link 2 -> 3 holds until its heal at 300 ms), with
   pid [victim] (default 4) crashing at 2 ms and link 0 -> 1 blocked from
   1 ms to 3 ms.  Returns the engine and its trace; [observe] becomes the
   engine's send observer. *)
let lossy_engine ?observe ?(victim = 4) tracing =
  let n = 5 in
  let engine =
    Thc_sim.Engine.create ~seed:3L ~tracing ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (50L, 500L)) n)
      ()
  in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.set_timer ~delay:100L ~tag:0);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer =
        (fun ctx _ ->
          ctx.others (Ping ctx.self);
          if ctx.now () < 5_000L then ctx.set_timer ~delay:100L ~tag:0);
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  Thc_network.Model.install
    (Result.get_ok (Thc_network.Model.of_string "lossy"))
    engine ~replicas:n ();
  Thc_sim.Engine.schedule_crash engine ~pid:victim ~at:2_000L;
  Thc_sim.Engine.at engine 1_000L (fun () ->
      Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block);
  Thc_sim.Engine.at engine 3_000L (fun () ->
      Thc_sim.Engine.set_link engine ~src:0 ~dst:1
        (Thc_sim.Net.Deliver (Thc_sim.Delay.Const 10L)));
  Option.iter (Thc_sim.Engine.on_send engine) observe;
  (engine, Thc_sim.Engine.run engine)

(* The trace and the engine's send counter. *)
let lossy_run tracing =
  let engine, trace = lossy_engine tracing in
  (trace, Thc_obsv.Link_stats.sends (Thc_sim.Engine.stats engine))

(* Runs that record no [Sent] entries count messages off the engine's
   link counter instead of [Trace.messages_sent]; the two must agree on
   a run that crashes, holds, releases and drops. *)
let test_link_sends_match_trace () =
  let trace, sends = lossy_run Thc_sim.Engine.Full in
  let count p = Thc_sim.Trace.count trace p in
  Alcotest.(check bool) "some sends dropped" true
    (count (function Thc_sim.Trace.Dropped _ -> true | _ -> false) > 0);
  Alcotest.(check bool) "some sends held" true
    (count (function Thc_sim.Trace.Held _ -> true | _ -> false) > 0);
  Alcotest.(check int) "one crash" 1
    (count (function Thc_sim.Trace.Crashed _ -> true | _ -> false));
  Alcotest.(check int) "Link_stats.sends = Trace.messages_sent"
    (Thc_sim.Trace.messages_sent trace) sends;
  Alcotest.(check int) "the counter does not depend on tracing" sends
    (snd (lossy_run Thc_sim.Engine.Outputs_only))

(* A message held on a blocked link, released at the heal, whose
   destination crashes before the delivery fires.  A [Full] trace has its
   [Held] entry and no [Delivered] one, so [delivery_report] counts it
   held at end; the link's held queue is empty, so [held_now] does not.
   [held_unsettled] follows the trace.  The crashed destination's later
   send, through a context it kept, is neither recorded nor observed. *)
let test_released_to_crashed () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let kept = ref None in
  let observed = ref [] in
  Thc_sim.Engine.on_send engine (fun ~src ~dst (Ping k) ->
      observed := (src, dst, k) :: !observed);
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 5);
  Thc_sim.Engine.set_behavior engine 1
    { Thc_sim.Engine.no_op with init = (fun ctx -> kept := Some ctx) };
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
  Thc_sim.Engine.at engine 1_000L (fun () ->
      Thc_sim.Engine.set_link engine ~src:0 ~dst:1
        (Thc_sim.Net.Deliver (Thc_sim.Delay.Const 500L)));
  Thc_sim.Engine.schedule_crash engine ~pid:1 ~at:1_200L;
  Thc_sim.Engine.at engine 2_000L (fun () ->
      Option.iter (fun (ctx : msg Thc_sim.Engine.ctx) -> ctx.send 0 (Ping 6)) !kept);
  let trace = Thc_sim.Engine.run engine in
  let stats = Thc_sim.Engine.stats engine in
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) "delivery_report: held at end" 1 r.held_at_end;
  Alcotest.(check int) "held_unsettled" 1
    (Thc_obsv.Link_stats.held_unsettled stats);
  Alcotest.(check int) "held_now" 0 (Thc_obsv.Link_stats.held_now stats);
  Alcotest.(check int) "nothing delivered" 0
    (Thc_obsv.Link_stats.delivered stats);
  Alcotest.(check int) "one send" 1 (Thc_obsv.Link_stats.sends stats);
  Alcotest.(check int) "one Sent entry" 1 (Thc_sim.Trace.messages_sent trace);
  Alcotest.(check (list (triple int int int))) "observed: p0's send only"
    [ (0, 1, 5) ] !observed

(* The send observer sees exactly the [Sent] entries of a [Full] run, in
   order, with their sources; the engine's per-source and settle counters
   agree with the trace folds, whatever the engine records; and
   observing leaves the [Full] trace byte-identical.  Pid 3 crashes, so
   the messages link 2 -> 3 held until the heal meet a crashed pid. *)
let test_on_send_matches_sent () =
  let observed = ref [] in
  let observe ~src ~dst (Ping k) = observed := (src, dst, k) :: !observed in
  let engine, trace = lossy_engine ~observe ~victim:3 Thc_sim.Engine.Full in
  let sent =
    List.filter_map
      (function
        | Thc_sim.Trace.Sent { src; dst; msg = Ping k; _ } -> Some (src, dst, k)
        | _ -> None)
      trace.Thc_sim.Trace.entries
  in
  Alcotest.(check (list (triple int int int))) "observer = Sent entries" sent
    (List.rev !observed);
  let r = Thc_sim.Metrics.delivery_report trace in
  let stats = Thc_sim.Engine.stats engine in
  Alcotest.(check bool) "some released message met the crashed pid" true
    (Thc_obsv.Link_stats.held_now stats < r.held_at_end);
  let counts_of engine =
    let stats = Thc_sim.Engine.stats engine in
    Thc_obsv.Link_stats.
      ( sends_by_source stats,
        (delivered stats, dropped stats, held_unsettled stats) )
  in
  let expected =
    ( Thc_sim.Metrics.sends_by_source trace,
      (r.delivered, r.dropped, r.held_at_end) )
  in
  let counts = Alcotest.(pair (list (pair int int)) (triple int int int)) in
  Alcotest.check counts "counters = trace folds (Full)" expected
    (counts_of engine);
  Alcotest.check counts "counters = trace folds (Outputs_only)" expected
    (counts_of (fst (lossy_engine ~victim:3 Thc_sim.Engine.Outputs_only)));
  let jsonl t = Thc_sim.Trace.to_jsonl ~encode_msg:Thc_util.Codec.encode t in
  Alcotest.(check string) "no observer: same Full trace" (jsonl trace)
    (jsonl (snd (lossy_engine ~victim:3 Thc_sim.Engine.Full)))

(* --- determinism ------------------------------------------------------------------- *)

let chatty seed =
  let n = 4 in
  let engine =
    Thc_sim.Engine.create ~seed ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (10L, 500L)) n)
      ()
  in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.broadcast (Ping ctx.self));
      on_message =
        (fun ctx ~src:_ (Ping k) ->
          if k < 3 then ctx.send (Thc_util.Rng.int ctx.rng 4) (Ping (k + 1)));
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  Thc_sim.Engine.run engine

let test_determinism () =
  let t1 = chatty 42L in
  let t2 = chatty 42L in
  Alcotest.(check string) "same seed, identical traces"
    (Thc_util.Codec.encode t1.Thc_sim.Trace.entries)
    (Thc_util.Codec.encode t2.Thc_sim.Trace.entries)

let test_seed_changes_schedule () =
  let t1 = chatty 42L in
  let t2 = chatty 43L in
  Alcotest.(check bool) "different seed, different schedule" true
    (Thc_util.Codec.encode t1.Thc_sim.Trace.entries
    <> Thc_util.Codec.encode t2.Thc_sim.Trace.entries)

(* --- engine hot path (calendar queue + arena) --------------------------------------- *)

(* Documented ordering invariant: events scheduled for the same virtual
   time dispatch in push order (Engine.push's per-engine tie counter).
   Every driver's byte-determinism rests on this, so it gets a direct
   regression test: a timer, a Const-delay self-send landing at the same
   instant, and two more timers — popped exactly as pushed. *)
let test_tie_break_insertion_order () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let log = ref [] in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.set_timer ~delay:100L ~tag:1;
          ctx.send 0 (Ping 2);
          ctx.set_timer ~delay:100L ~tag:3;
          ctx.set_timer ~delay:100L ~tag:1);
      on_message = (fun _ ~src:_ (Ping k) -> log := k :: !log);
      on_timer = (fun _ tag -> log := tag :: !log);
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  ignore (Thc_sim.Engine.run engine);
  Alcotest.(check (list int))
    "same virtual time pops in push order" [ 1; 2; 3; 1 ] (List.rev !log)

(* A run busy enough to cycle the event arena and the held-buffer pool:
   broadcasts, RNG-routed forwards, outputs on pid 0, a mid-run crash. *)
let busy ?(recycle = true) ?(tracing = Thc_sim.Engine.Full) seed =
  let n = 4 in
  let engine =
    Thc_sim.Engine.create ~seed ~tracing ~recycle ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (10L, 500L)) n)
      ()
  in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.broadcast (Ping ctx.self));
      on_message =
        (fun ctx ~src:_ (Ping k) ->
          if ctx.self = 0 then ctx.output (Thc_sim.Obs.Note (string_of_int k));
          if k < 3 then ctx.send (Thc_util.Rng.int ctx.rng 4) (Ping (k + 1)));
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  Thc_sim.Engine.schedule_crash engine ~pid:3 ~at:400L;
  let trace = Thc_sim.Engine.run engine in
  (trace, Thc_sim.Engine.events_processed engine)

(* Arena recycling must be invisible: a reused event record with a stale
   field would corrupt the trace or the schedule, so the recycling and
   fresh-allocation engines must agree byte for byte. *)
let test_recycle_equivalence () =
  let tr, er = busy ~recycle:true 7L in
  let tf, ef = busy ~recycle:false 7L in
  Alcotest.(check string) "identical traces with and without recycling"
    (Thc_util.Codec.encode tr.Thc_sim.Trace.entries)
    (Thc_util.Codec.encode tf.Thc_sim.Trace.entries);
  Alcotest.(check int64)
    "identical end time" tr.Thc_sim.Trace.end_time tf.Thc_sim.Trace.end_time;
  Alcotest.(check int) "identical event count" er ef;
  let report t =
    let r = Thc_sim.Metrics.delivery_report t in
    ( List.length r.Thc_sim.Metrics.latencies,
      r.Thc_sim.Metrics.delivered,
      r.Thc_sim.Metrics.held_at_end,
      r.Thc_sim.Metrics.dropped,
      r.Thc_sim.Metrics.in_flight_at_end )
  in
  Alcotest.(check (pair int (pair int (pair int (pair int int)))))
    "identical delivery report"
    (let a, b, c, d, e = report tr in
     (a, (b, (c, (d, e)))))
    (let a, b, c, d, e = report tf in
     (a, (b, (c, (d, e)))))

(* Tracing modes drop records, never events: Outputs_only keeps exactly
   the Output/Crashed subsequence of the Full trace, Off keeps nothing,
   and the schedule (event count, end time) is identical in all three. *)
let test_tracing_modes () =
  let full, e_full = busy ~tracing:Thc_sim.Engine.Full 7L in
  let lite, e_lite = busy ~tracing:Thc_sim.Engine.Outputs_only 7L in
  let off, e_off = busy ~tracing:Thc_sim.Engine.Off 7L in
  let key_only entries =
    List.filter
      (function
        | Thc_sim.Trace.Output _ | Thc_sim.Trace.Crashed _ -> true
        | _ -> false)
      entries
  in
  Alcotest.(check string) "Outputs_only = Full filtered to Output/Crashed"
    (Thc_util.Codec.encode (key_only full.Thc_sim.Trace.entries))
    (Thc_util.Codec.encode lite.Thc_sim.Trace.entries);
  Alcotest.(check int) "Off records nothing" 0
    (List.length off.Thc_sim.Trace.entries);
  Alcotest.(check int64) "lite end time"
    full.Thc_sim.Trace.end_time lite.Thc_sim.Trace.end_time;
  Alcotest.(check int64) "off end time"
    full.Thc_sim.Trace.end_time off.Thc_sim.Trace.end_time;
  Alcotest.(check int) "lite event count" e_full e_lite;
  Alcotest.(check int) "off event count" e_full e_off

(* --- idle tails ---------------------------------------------------------------- *)

(* A random small world for the idle-tail property.  Each pid has a check
   tick (tag 0) every [periods.(pid)] µs, armed idle exactly while its
   work count is 0: then firing it only re-arms it.  A message adds one
   unit of work; a tick with work does one unit, outputs, and sometimes
   sends.  Plain one-shot timers (tags >= 1) send and output.  Scripts add
   work from outside (another event, so ticks armed before it are stale),
   and crashes stop pids, some with an idle tick queued. *)
type idle_world = {
  iw_n : int;
  periods : int64 array;
  plain : (int * int64) list;  (* pid, delay *)
  crashes : (int * int64) list;
  scripts : (int64 * int) list;  (* time, pid whose work grows *)
  iw_seed : int64;
}

let idle_world seed =
  let rng = Thc_util.Rng.create seed in
  let int k = Thc_util.Rng.int rng k in
  let n = 1 + int 4 in
  let times k lo hi = List.init k (fun _ -> Int64.of_int (lo + int (hi - lo))) in
  {
    iw_n = n;
    periods = Array.init n (fun _ -> Int64.of_int (3 + int 40));
    plain = List.map (fun at -> (int n, at)) (times (int 4) 0 300);
    crashes = List.map (fun at -> (int n, at)) (times (int 3) 0 900);
    scripts = List.map (fun at -> (at, int n)) (times (int 4) 0 1_500);
    iw_seed = seed;
  }

let run_idle_world w ~tracing ~until ~max_events =
  let n = w.iw_n in
  let engine : msg Thc_sim.Engine.t =
    Thc_sim.Engine.create ~seed:w.iw_seed ~tracing ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (5L, 60L)) n)
      ()
  in
  let work = Array.make n 0 in
  let arm (ctx : msg Thc_sim.Engine.ctx) =
    let delay = w.periods.(ctx.self) in
    if work.(ctx.self) = 0 then ctx.set_idle_timer ~delay ~tag:0
    else ctx.set_timer ~delay ~tag:0
  in
  let note (ctx : msg Thc_sim.Engine.ctx) what =
    ctx.output (Thc_sim.Obs.Note (Printf.sprintf "%s p%d" what ctx.self))
  in
  let send (ctx : msg Thc_sim.Engine.ctx) k =
    ctx.send (Thc_util.Rng.int ctx.rng n) (Ping k)
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      {
        init =
          (fun ctx ->
            arm ctx;
            List.iteri
              (fun i (p, delay) ->
                if p = pid then ctx.set_timer ~delay ~tag:(i + 1))
              w.plain);
        on_message =
          (fun ctx ~src:_ (Ping k) ->
            work.(pid) <- work.(pid) + 1;
            note ctx (Printf.sprintf "got %d" k));
        on_timer =
          (fun ctx tag ->
            if tag = 0 then begin
              if work.(pid) > 0 then begin
                work.(pid) <- work.(pid) - 1;
                note ctx "worked";
                if Thc_util.Rng.int ctx.rng 3 = 0 then send ctx 0
              end;
              arm ctx
            end
            else begin
              note ctx "plain";
              send ctx tag
            end);
      }
  done;
  List.iter (fun (pid, at) -> Thc_sim.Engine.schedule_crash engine ~pid ~at) w.crashes;
  List.iter
    (fun (at, pid) -> Thc_sim.Engine.at engine at (fun () -> work.(pid) <- work.(pid) + 1))
    w.scripts;
  match Thc_sim.Engine.run ~until ~max_events engine with
  | trace ->
    let kept =
      List.filter
        (function Thc_sim.Trace.Output _ | Thc_sim.Trace.Crashed _ -> true | _ -> false)
        trace.Thc_sim.Trace.entries
    in
    Ok
      ( Thc_sim.Engine.events_processed engine,
        trace.Thc_sim.Trace.end_time,
        Thc_sim.Engine.ended_by engine,
        Thc_util.Codec.encode kept )
  | exception Failure e -> Error e

(* The idle tail is counted, not run, outside [Full]; [Full] always runs
   the slow loop, so it is the reference.  Every field must agree, at
   several horizons and at event limits inside the tail, where both modes
   must raise. *)
let prop_idle_tail_exact =
  QCheck.Test.make ~name:"idle tail counted = run" ~count:150 QCheck.int64
    (fun seed ->
      let w = idle_world seed in
      let rng = Thc_util.Rng.create (Int64.add seed 1L) in
      (* [Some r] when the lighter modes give [Full]'s result [r] ([Off]
         records no outputs, so only its counts are compared). *)
      let agreed ~until ~max_events =
        let run tracing = run_idle_world w ~tracing ~until ~max_events in
        let counts = Result.map (fun (events, ended_at, ending, _) -> (events, ended_at, ending, "")) in
        let full = run Thc_sim.Engine.Full in
        if
          run Thc_sim.Engine.Outputs_only = full
          && counts (run Thc_sim.Engine.Off) = counts full
        then Some full
        else None
      in
      List.for_all
        (fun until ->
          match agreed ~until ~max_events:1_000_000 with
          | Some (Ok (events, _, _, _)) ->
            let inside = max 0 (events - 1 - Thc_util.Rng.int rng (1 + (events / 4))) in
            (match agreed ~until ~max_events:inside with
            | Some (Error _) -> true
            | Some (Ok _) | None -> false)
            &&
            (match agreed ~until ~max_events:events with
            | Some (Ok _) -> true
            | Some (Error _) | None -> false)
          | Some (Error _) | None -> false)
        [ 0L; Int64.of_int (Thc_util.Rng.int rng 400); 2_000L; 20_000L ])

(* The explorer builds thousands of engines for runs of a few hundred
   events, so a fresh engine's cost is on its hot path.  At the queue's
   default geometry a 5-pid engine allocates ~1.8k minor words; a
   1024 × 8 µs calendar would allocate ~5.4k plus a 1,025-word bucket
   array straight into the major heap.  Counts allocated words, not
   time. *)
let test_create_allocation () =
  let net = net 5 in
  let create () : msg Thc_sim.Engine.t = Thc_sim.Engine.create ~n:5 ~net () in
  ignore (Sys.opaque_identity (create ()));
  let before = Gc.minor_words () in
  let e = create () in
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity e);
  Alcotest.(check bool)
    (Printf.sprintf "Engine.create ~n:5 allocates %.0f < 2500 minor words" words)
    true (words < 2_500.)

(* --- outputs and queries ------------------------------------------------------------ *)

let test_outputs () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          ctx.output (Thc_sim.Obs.Note "one");
          ctx.output (Thc_sim.Obs.Decided (Some "v")));
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "two outputs" 2 (List.length (Thc_sim.Trace.outputs_of trace 0));
  (match Thc_sim.Trace.decision_of trace 0 with
  | Some (Some "v") -> ()
  | _ -> Alcotest.fail "decision not found")

let test_until_bound () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:5_000L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  ignore (Thc_sim.Engine.run ~until:1_000L engine);
  Alcotest.(check int) "events past the bound unprocessed" 0
    (List.length !received)

let test_event_limit () =
  let n = 1 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.set_timer ~delay:1L ~tag:0);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun ctx _ -> ctx.set_timer ~delay:1L ~tag:0);
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  (match Thc_sim.Engine.run ~max_events:100 engine with
  | _ -> Alcotest.fail "expected event-limit failure"
  | exception Failure _ -> ())

let test_reception_transcript () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:10L ~dst:1 3);
  Thc_sim.Engine.set_behavior engine 1
    { (recorder (ref [])) with on_message = (fun _ ~src:_ _ -> ()) };
  let trace = Thc_sim.Engine.run engine in
  Alcotest.(check int) "one entry in p1's transcript" 1
    (List.length (Thc_sim.Trace.reception_transcript trace 1));
  Alcotest.(check int) "p0 received nothing" 0
    (List.length (Thc_sim.Trace.reception_transcript trace 0))

(* An output line whose "obs" is not codec bytes is an [Error] naming its
   line, not an exception out of the decoder. *)
let test_of_jsonl_rejects_obs obs () =
  let input =
    String.concat "\n"
      [
        {|{"type":"trace","n":2,"byzantine":[],"end_time":10}|};
        {|{"type":"timer","time":0,"pid":0,"tag":1}|};
        {|{"type":"output","time":5,"pid":1,"obs":|} ^ obs ^ {|,"show":"?"}|};
      ]
  in
  match Thc_sim.Trace.of_jsonl input with
  | Ok _ -> Alcotest.failf "obs %s accepted" obs
  | Error e ->
    Alcotest.(check bool) ("error names line 3: " ^ e) true
      (String.starts_with ~prefix:"line 3:" e)

(* --- delay distributions -------------------------------------------------------------- *)

let prop_delay_uniform_bounds =
  QCheck.Test.make ~name:"uniform delays stay within bounds" ~count:300
    QCheck.(pair int64 (pair (int_bound 1000) (int_bound 1000)))
    (fun (seed, (a, b)) ->
      let lo = Int64.of_int (min a b) in
      let hi = Int64.of_int (max a b) in
      let g = Thc_util.Rng.create seed in
      let d = Thc_sim.Delay.sample g (Thc_sim.Delay.Uniform (lo, hi)) in
      d >= lo && d <= hi)

let prop_delay_exponential_positive =
  QCheck.Test.make ~name:"exponential delays are at least 1" ~count:300
    QCheck.int64
    (fun seed ->
      let g = Thc_util.Rng.create seed in
      Thc_sim.Delay.sample g (Thc_sim.Delay.Exponential 200.0) >= 1L)

(* --- metrics ---------------------------------------------------------------------- *)

let test_metrics_kind_counts () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let b : msg Thc_sim.Engine.behavior =
    {
      init =
        (fun ctx ->
          if ctx.self = 0 then begin
            ctx.send 1 (Ping 1);
            ctx.send 1 (Ping 1);
            ctx.send 1 (Ping 2)
          end);
      on_message = (fun _ ~src:_ _ -> ());
      on_timer = (fun _ _ -> ());
    }
  in
  Thc_sim.Engine.set_behavior engine 0 b;
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  let trace = Thc_sim.Engine.run engine in
  let counts =
    Thc_sim.Metrics.kind_counts trace ~classify:(fun (Ping k) ->
        if k = 1 then "one" else "other")
  in
  Alcotest.(check (list (pair string int))) "grouped and sorted"
    [ ("one", 2); ("other", 1) ] counts;
  Alcotest.(check (list (pair int int))) "sends by source" [ (0, 3) ]
    (Thc_sim.Metrics.sends_by_source trace)

let test_metrics_delivery_latency () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:10L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  let trace = Thc_sim.Engine.run engine in
  (match Thc_sim.Metrics.delivery_latencies trace with
  | [ l ] -> Alcotest.(check (float 0.01)) "matches link delay" 100.0 l
  | _ -> Alcotest.fail "expected one latency sample");
  Alcotest.(check bool) "event rate positive" true
    (Thc_sim.Metrics.events_per_virtual_ms trace > 0.0)

let test_metrics_seq_matching () =
  (* Every Delivered seq must refer to a Sent seq on the same (src, dst)
     link — the invariant delivery_report's matching relies on. *)
  let n = 3 in
  let engine =
    Thc_sim.Engine.create ~seed:5L ~n
      ~net:(net ~delay:(Thc_sim.Delay.Uniform (10L, 500L)) n)
      ()
  in
  let b : msg Thc_sim.Engine.behavior =
    {
      init = (fun ctx -> ctx.broadcast (Ping ctx.self));
      on_message =
        (fun ctx ~src:_ (Ping k) -> if k < 2 then ctx.others (Ping (k + 1)));
      on_timer = (fun _ _ -> ());
    }
  in
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid b
  done;
  let trace = Thc_sim.Engine.run engine in
  let sent = Hashtbl.create 64 in
  List.iter
    (function
      | Thc_sim.Trace.Sent { src; dst; seq; _ } ->
        if Hashtbl.mem sent (src, dst, seq) then
          Alcotest.fail "duplicate send seq on a link";
        Hashtbl.add sent (src, dst, seq) ()
      | _ -> ())
    trace.Thc_sim.Trace.entries;
  List.iter
    (function
      | Thc_sim.Trace.Delivered { src; dst; seq; _ } ->
        if not (Hashtbl.mem sent (src, dst, seq)) then
          Alcotest.fail "delivery without a matching send"
      | _ -> ())
    trace.Thc_sim.Trace.entries;
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) "every send accounted for"
    (Thc_sim.Trace.messages_sent trace)
    (r.delivered + r.dropped + r.held_at_end + r.in_flight_at_end);
  Alcotest.(check int) "one latency per delivery" r.delivered
    (List.length r.latencies)

let test_metrics_delivery_report_held () =
  (* A message still queued on a blocked link when the horizon hits must be
     counted as held_at_end, not silently excluded. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Block;
  let trace = Thc_sim.Engine.run ~until:1_000L engine in
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) "held at end" 1 r.held_at_end;
  Alcotest.(check int) "nothing delivered" 0 r.delivered;
  Alcotest.(check int) "nothing dropped" 0 r.dropped;
  Alcotest.(check int) "nothing in flight" 0 r.in_flight_at_end;
  Alcotest.(check int) "no latency samples" 0 (List.length r.latencies)

let test_metrics_delivery_report_dropped () =
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:50L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  Thc_sim.Engine.set_link engine ~src:0 ~dst:1 Thc_sim.Net.Drop;
  let trace = Thc_sim.Engine.run engine in
  let r = Thc_sim.Metrics.delivery_report trace in
  Alcotest.(check int) "dropped" 1 r.dropped;
  Alcotest.(check int) "not held" 0 r.held_at_end

(* --- adversary scripts ---------------------------------------------------------- *)

let test_adversary_random_admissible () =
  for i = 1 to 50 do
    let rng = Thc_util.Rng.create (Int64.of_int i) in
    let script =
      Thc_sim.Adversary.random rng ~n:5 ~horizon:100_000L ~crash_budget:2 ()
    in
    let crashed = Thc_sim.Adversary.crashed script in
    if List.length crashed > 2 then Alcotest.fail "crash budget exceeded";
    if List.length (List.sort_uniq compare crashed) <> List.length crashed then
      Alcotest.fail "duplicate crash victim";
    List.iter
      (fun (e : Thc_sim.Adversary.event) ->
        if e.at < 0L || e.at > 100_000L then Alcotest.fail "event out of horizon")
      script.events
  done

let test_adversary_install_heals () =
  (* A message sent during the partition must be delivered after the final
     heal: install guarantees eventual delivery. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:5_000L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [ { at = 0L; action = Thc_sim.Adversary.Block_link (0, 1) } ];
      horizon = 50_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run engine);
  (match !received with
  | [ (time, 0, 1) ] ->
    if time < 50_000L then Alcotest.fail "delivered before the heal"
  | _ -> Alcotest.fail "held message lost: eventual delivery broken")

let test_adversary_partition_blocks_cross_only () =
  let n = 4 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [ { at = 0L; action = Thc_sim.Adversary.Block_groups [ [ 0; 1 ]; [ 2; 3 ] ] } ];
      horizon = 100_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run ~until:1L engine);
  let blocked src dst =
    match Thc_sim.Net.get (Thc_sim.Engine.net engine) ~src ~dst with
    | Thc_sim.Net.Block -> true
    | Thc_sim.Net.Deliver _ | Thc_sim.Net.Drop -> false
  in
  Alcotest.(check bool) "cross blocked" true (blocked 0 2);
  Alcotest.(check bool) "within open" false (blocked 0 1)

let prop_adversary_sexp_roundtrip =
  QCheck.Test.make ~name:"adversary sexp codec round-trips" ~count:100
    QCheck.(pair int64 (int_bound 3))
    (fun (seed, crash_budget) ->
      let rng = Thc_util.Rng.create seed in
      let script =
        Thc_sim.Adversary.random rng ~n:5 ~horizon:100_000L ~crash_budget ()
      in
      let text = Thc_util.Sexp.to_string (Thc_sim.Adversary.to_sexp script) in
      let back =
        Thc_sim.Adversary.of_sexp (Thc_util.Sexp.of_string_exn text)
      in
      Thc_sim.Adversary.equal script back)

let test_adversary_block_at_horizon_still_heals () =
  (* The subtle ordering case: a block event at exactly [horizon].  The
     appended heal shares its timestamp, and the engine breaks the tie by
     insertion order — install pushes the heal last, so the run must end on
     a healed network, not a blocked one. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  Thc_sim.Engine.set_behavior engine 0 Thc_sim.Engine.no_op;
  Thc_sim.Engine.set_behavior engine 1 Thc_sim.Engine.no_op;
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [ { at = 50_000L; action = Thc_sim.Adversary.Block_link (0, 1) } ];
      horizon = 50_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run engine);
  (match Thc_sim.Net.get (Thc_sim.Engine.net engine) ~src:0 ~dst:1 with
  | Thc_sim.Net.Deliver _ -> ()
  | Thc_sim.Net.Block | Thc_sim.Net.Drop ->
    Alcotest.fail "link still blocked after the horizon heal")

let test_adversary_unsorted_script_heals () =
  (* Events listed out of time order: the heal is scripted {e before} the
     block in the list but {e after} it in time.  ends_healed/install must
     judge the time-sorted view, append the horizon heal, and deliver the
     held message. *)
  let n = 2 in
  let engine = Thc_sim.Engine.create ~n ~net:(net n) () in
  let received = ref [] in
  Thc_sim.Engine.set_behavior engine 0 (sender_at ~at:45_000L ~dst:1 1);
  Thc_sim.Engine.set_behavior engine 1 (recorder received);
  Thc_sim.Adversary.install
    {
      Thc_sim.Adversary.events =
        [
          { at = 40_000L; action = Thc_sim.Adversary.Block_link (0, 1) };
          { at = 10_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 50_000L;
    }
    engine;
  ignore (Thc_sim.Engine.run engine);
  (match !received with
  | [ (time, 0, 1) ] ->
    if time < 50_000L then Alcotest.fail "delivered before the horizon heal"
  | _ -> Alcotest.fail "held message lost: unsorted script skipped the heal")

let test_adversary_corrupt_roundtrip () =
  (* Scripts carrying [Corrupt] events — the attack-catalog extension — must
     survive the repro codec byte-for-byte like every other action. *)
  let script =
    {
      Thc_sim.Adversary.events =
        [
          { at = 1L; action = Thc_sim.Adversary.Corrupt { pid = 0; attack = "equivocation" } };
          { at = 5_000L; action = Thc_sim.Adversary.Block_link (1, 2) };
          { at = 9_000L; action = Thc_sim.Adversary.Heal };
        ];
      horizon = 10_000L;
    }
  in
  let text = Thc_util.Sexp.to_string (Thc_sim.Adversary.to_sexp script) in
  let back = Thc_sim.Adversary.of_sexp (Thc_util.Sexp.of_string_exn text) in
  Alcotest.(check bool) "corrupt round-trips" true
    (Thc_sim.Adversary.equal script back);
  Alcotest.(check (list (pair int string)))
    "corrupted pairs" [ (0, "equivocation") ]
    (Thc_sim.Adversary.corrupted back)

let test_adversary_admissible_budgets () =
  let corrupt ~at pid attack =
    { Thc_sim.Adversary.at; action = Thc_sim.Adversary.Corrupt { pid; attack } }
  in
  let script events = { Thc_sim.Adversary.events; horizon = 10_000L } in
  let ok s ~crash_budget ~corrupt_budget =
    Thc_sim.Adversary.admissible s ~n:3 ~crash_budget ~corrupt_budget ()
  in
  (match ok (script [ corrupt ~at:1L 0 "replay" ]) ~crash_budget:0 ~corrupt_budget:1 with
  | Ok () -> ()
  | Error e -> Alcotest.failf "within budget rejected: %s" e);
  (match ok (script [ corrupt ~at:1L 0 "replay" ]) ~crash_budget:0 ~corrupt_budget:0 with
  | Ok () -> Alcotest.fail "over-budget corruption accepted"
  | Error _ -> ());
  (match
     ok
       (script [ corrupt ~at:1L 0 "replay"; corrupt ~at:2L 0 "reuse" ])
       ~crash_budget:0 ~corrupt_budget:2
   with
  | Ok () -> Alcotest.fail "double corruption of one pid accepted"
  | Error _ -> ());
  match
    ok
      (script
         [
           { at = 1L; action = Thc_sim.Adversary.Crash 0 };
           corrupt ~at:2L 0 "replay";
         ])
      ~crash_budget:1 ~corrupt_budget:1
  with
  | Ok () -> Alcotest.fail "crash+corrupt overlap accepted"
  | Error _ -> ()

let () =
  Alcotest.run "thc_sim"
    [
      ( "delivery",
        [
          Alcotest.test_case "delay" `Quick test_delivery_delay;
          Alcotest.test_case "broadcast includes self" `Quick test_broadcast_includes_self;
          Alcotest.test_case "others excludes self" `Quick test_others_excludes_self;
        ] );
      ("timers", [ Alcotest.test_case "fire order" `Quick test_timer_order ]);
      ( "crash",
        [
          Alcotest.test_case "stops delivery" `Quick test_crash_stops_delivery;
          Alcotest.test_case "stops sending" `Quick test_crashed_process_sends_nothing;
        ] );
      ( "links",
        [
          Alcotest.test_case "block then release" `Quick test_block_holds_then_releases;
          Alcotest.test_case "drop" `Quick test_drop;
          Alcotest.test_case "heal_all" `Quick test_heal_all;
          Alcotest.test_case "isolate groups" `Quick test_isolate_groups;
          Alcotest.test_case "link sends match trace" `Quick
            test_link_sends_match_trace;
          Alcotest.test_case "released to a crashed pid" `Quick
            test_released_to_crashed;
          Alcotest.test_case "on_send matches Sent entries" `Quick
            test_on_send_matches_sent;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "same seed same trace" `Quick test_determinism;
          Alcotest.test_case "seed matters" `Quick test_seed_changes_schedule;
        ] );
      ( "engine hot path",
        [
          Alcotest.test_case "tie-break: push order" `Quick
            test_tie_break_insertion_order;
          Alcotest.test_case "recycle equivalence" `Quick
            test_recycle_equivalence;
          Alcotest.test_case "tracing modes" `Quick test_tracing_modes;
          qcheck prop_idle_tail_exact;
          Alcotest.test_case "create allocation" `Quick test_create_allocation;
        ] );
      ( "trace",
        [
          Alcotest.test_case "outputs" `Quick test_outputs;
          Alcotest.test_case "until bound" `Quick test_until_bound;
          Alcotest.test_case "event limit" `Quick test_event_limit;
          Alcotest.test_case "reception transcript" `Quick test_reception_transcript;
          Alcotest.test_case "of_jsonl rejects non-codec obs" `Quick
            (test_of_jsonl_rejects_obs {|"x"|});
          Alcotest.test_case "of_jsonl rejects empty obs" `Quick
            (test_of_jsonl_rejects_obs {|""|});
        ] );
      ( "delays",
        [ qcheck prop_delay_uniform_bounds; qcheck prop_delay_exponential_positive ] );
      ( "metrics",
        [
          Alcotest.test_case "kind counts" `Quick test_metrics_kind_counts;
          Alcotest.test_case "delivery latency" `Quick test_metrics_delivery_latency;
          Alcotest.test_case "seq matching" `Quick test_metrics_seq_matching;
          Alcotest.test_case "delivery report: held at end" `Quick
            test_metrics_delivery_report_held;
          Alcotest.test_case "delivery report: dropped" `Quick
            test_metrics_delivery_report_dropped;
        ] );
      ( "adversary",
        [
          Alcotest.test_case "random admissible" `Quick test_adversary_random_admissible;
          Alcotest.test_case "install heals" `Quick test_adversary_install_heals;
          Alcotest.test_case "partition scope" `Quick test_adversary_partition_blocks_cross_only;
          Alcotest.test_case "block at horizon still heals" `Quick
            test_adversary_block_at_horizon_still_heals;
          Alcotest.test_case "unsorted script heals" `Quick
            test_adversary_unsorted_script_heals;
          qcheck prop_adversary_sexp_roundtrip;
          Alcotest.test_case "corrupt round-trips" `Quick
            test_adversary_corrupt_roundtrip;
          Alcotest.test_case "admissible budgets" `Quick
            test_adversary_admissible_budgets;
        ] );
    ]
