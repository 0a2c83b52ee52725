type 'm ctx = {
  self : int;
  n : int;
  now : unit -> int64;
  send : int -> 'm -> unit;
  broadcast : 'm -> unit;
  others : 'm -> unit;
  set_timer : delay:int64 -> tag:int -> unit;
  set_poll : delay:int64 -> tag:int -> unit;
  quiet : bool -> unit;
  output : Obs.t -> unit;
  rng : Thc_util.Rng.t;
  spans : Thc_obsv.Span.t;
}

type 'm behavior = {
  init : 'm ctx -> unit;
  on_message : 'm ctx -> src:int -> 'm -> unit;
  on_timer : 'm ctx -> int -> unit;
}

let no_op =
  {
    init = (fun _ -> ());
    on_message = (fun _ ~src:_ _ -> ());
    on_timer = (fun _ _ -> ());
  }

type tracing = Full | Outputs_only | Off

(* Flat reusable event record.  One mutable record shape covers every
   event kind: the int fields are overloaded per kind and the two option
   fields carry the payload only where the kind needs one.  Records are
   arena-recycled through a free list (unless [recycle] is off), so the
   steady-state hot path allocates no event cells at all. *)
type 'm ev = {
  mutable kind : int;
  mutable a : int;  (* Start/Fire/Crash: pid; Deliver: src *)
  mutable b : int;  (* Deliver: dst *)
  mutable c : int;  (* Deliver: seq; Fire: tag *)
  mutable msg : 'm option;  (* Deliver payload *)
  mutable script : (unit -> unit) option;  (* Script payload *)
}

let k_start = 0

let k_deliver = 1

let k_fire = 2

let k_crash = 3

let k_script = 4

let k_poll = 5

type ending = Drained | Quiescent | Horizon

type 'm t = {
  n : int;
  net : Net.t;
  rng : Thc_util.Rng.t;
  proc_rngs : Thc_util.Rng.t array;
  q : 'm ev Thc_util.Calendar_queue.t;
  mutable clock : int64;  (* boxed once per event, shared by trace records *)
  mutable clock_i : int;  (* same instant as an immediate int; all
                             scheduling arithmetic uses this *)
  mutable tie : int;
  behaviors : 'm behavior array;
  crashed : bool array;
  byzantine : bool array;
  tracing : tracing;
  trace_full : bool;  (* tracing = Full, pre-split so hot-path guards
                         are one load and entry records are never even
                         constructed in the lighter modes *)
  trace_key : bool;  (* tracing <> Off *)
  mutable entries : 'm Trace.entry list;  (* reverse order *)
  held : 'm ev Net.Pool.buf option array;  (* src * n + dst *)
  held_pool : 'm ev Net.Pool.t;
  mutable send_seq : int;
  ctxs : 'm ctx option array;
  spans : Thc_obsv.Span.t;
  stats : Thc_obsv.Link_stats.t;
  corrupt_handlers : (int, string -> unit) Hashtbl.t;
  recycle : bool;
  (* Event arena: a flat stack of recycled records. *)
  mutable free : 'm ev array;
  mutable nfree : int;
  mutable events : int;
  (* Quiescence bookkeeping (see [settled]). *)
  mutable changes : int;
  mutable pending_polls : int;
  polls : int array;  (* pending poll events per pid *)
  quiet_at : int array;  (* [changes] at the pid's last quiet sweep *)
  quiet_runs : int array;  (* consecutive quiet sweeps at [quiet_at] *)
  mutable ended : ending option;
}

let fresh_ev () =
  { kind = -1; a = 0; b = 0; c = 0; msg = None; script = None }

let create ?(seed = 1L) ?(tracing = Full) ?(recycle = true)
    ?(spans = Thc_obsv.Span.nop) ~n ~net () =
  if Net.n net <> n then invalid_arg "Engine.create: net size mismatch";
  let rng = Thc_util.Rng.create seed in
  (* Span recording rides the tracing dial: [Off] is the promise that the
     hot path pays nothing beyond the simulation itself, so it forces the
     nop recorder no matter what the caller handed in. *)
  let spans = if tracing = Off then Thc_obsv.Span.nop else spans in
  {
    n;
    net;
    rng;
    proc_rngs = Array.init n (fun _ -> Thc_util.Rng.split rng);
    (* The queue's default geometry, 256 buckets × 32 µs = an 8 ms year:
       protocol messages (delays of tens to hundreds of µs) spread
       across slices and client-interval timers still land inside the
       year, yet a fresh queue stays small.  That matters because the
       explorer builds thousands of engines for runs of a few hundred
       events each.  Pop order is [(time, tie)] at any geometry.  The
       null sentinel keeps vacated queue slots from pinning popped
       events; it is never dispatched. *)
    q = Thc_util.Calendar_queue.create ~null:(fresh_ev ()) ();
    clock = 0L;
    clock_i = 0;
    tie = 0;
    behaviors = Array.make n no_op;
    crashed = Array.make n false;
    byzantine = Array.make n false;
    tracing;
    trace_full = tracing = Full;
    trace_key = tracing <> Off;
    entries = [];
    held = Array.make (n * n) None;
    held_pool = Net.Pool.create ~null:(fresh_ev ()) ();
    send_seq = 0;
    ctxs = Array.make n None;
    spans;
    stats = Thc_obsv.Link_stats.create ~n;
    corrupt_handlers = Hashtbl.create 4;
    recycle;
    free = [||];
    nfree = 0;
    events = 0;
    changes = 0;
    pending_polls = 0;
    polls = Array.make n 0;
    quiet_at = Array.make n (-1);
    quiet_runs = Array.make n 0;
    ended = None;
  }

let net t = t.net

let stats t = t.stats

let events_processed t = t.events

let ended_by t = t.ended

(* ---------- event arena ---------- *)

let alloc t =
  if t.recycle && t.nfree > 0 then begin
    t.nfree <- t.nfree - 1;
    t.free.(t.nfree)
  end
  else fresh_ev ()

let release t ev =
  if t.recycle then begin
    (* Clear payload fields so a recycled record cannot bleed a stale
       message or closure into its next life (or pin it for the GC). *)
    ev.msg <- None;
    ev.script <- None;
    let cap = Array.length t.free in
    if t.nfree = cap then begin
      let free = Array.make (if cap = 0 then 64 else cap * 2) ev in
      Array.blit t.free 0 free 0 t.nfree;
      t.free <- free
    end;
    t.free.(t.nfree) <- ev;
    t.nfree <- t.nfree + 1
  end

(* ---------- queue ---------- *)

let push t time ev =
  let time = if time < t.clock_i then t.clock_i else time in
  t.tie <- t.tie + 1;
  Thc_util.Calendar_queue.push t.q ~time ~tie:t.tie ev

(* Tracing: fine-grained entries (Sent/Delivered/Held/Dropped/
   Timer_fired) exist only under [Full]; Output and Crashed survive
   [Outputs_only] because the SMR monitors' commit/latency reductions
   are defined over them.  Call sites test [trace_full]/[trace_key]
   inline so the lighter modes never even construct the entry record. *)

let set_behavior t pid behavior = t.behaviors.(pid) <- behavior

let mark_byzantine t pid = t.byzantine.(pid) <- true

let on_corrupt t ~pid handler = Hashtbl.replace t.corrupt_handlers pid handler

let corrupt t ~pid ~attack =
  t.byzantine.(pid) <- true;
  match Hashtbl.find_opt t.corrupt_handlers pid with
  | Some handler -> handler attack
  | None -> ()

let schedule_crash t ~pid ~at =
  let ev = alloc t in
  ev.kind <- k_crash;
  ev.a <- pid;
  push t (Int64.to_int at) ev

let at t time script =
  let ev = alloc t in
  ev.kind <- k_script;
  ev.script <- Some script;
  push t (Int64.to_int time) ev

let now t = t.clock

let route t ~src ~dst ~seq msg =
  match Net.get t.net ~src ~dst with
  | Net.Deliver dist ->
    let delay = Delay.sample_us t.rng dist in
    Thc_obsv.Link_stats.on_enqueue t.stats;
    let ev = alloc t in
    ev.kind <- k_deliver;
    ev.a <- src;
    ev.b <- dst;
    ev.c <- seq;
    ev.msg <- Some msg;
    push t (t.clock_i + delay) ev
  | Net.Block ->
    if t.trace_full then
      t.entries <- Trace.Held { time = t.clock; src; dst; seq } :: t.entries;
    Thc_obsv.Link_stats.on_held t.stats ~src ~dst;
    let slot = (src * t.n) + dst in
    let buf =
      match t.held.(slot) with
      | Some buf -> buf
      | None ->
        let buf = Net.Pool.acquire t.held_pool in
        t.held.(slot) <- Some buf;
        buf
    in
    let ev = alloc t in
    ev.kind <- k_deliver;
    ev.a <- src;
    ev.b <- dst;
    ev.c <- seq;
    ev.msg <- Some msg;
    Net.Pool.push buf ev
  | Net.Drop ->
    Thc_obsv.Link_stats.on_drop t.stats;
    if t.trace_full then
      t.entries <- Trace.Dropped { time = t.clock; src; dst; seq } :: t.entries

let do_send t ~src ~dst msg =
  if not t.crashed.(src) then begin
    t.changes <- t.changes + 1;
    let seq = t.send_seq in
    t.send_seq <- seq + 1;
    Thc_obsv.Link_stats.on_send t.stats;
    if t.trace_full then
      t.entries <-
        Trace.Sent { time = t.clock; src; dst; seq; msg } :: t.entries;
    route t ~src ~dst ~seq msg
  end

let release_held t ~src ~dst =
  let slot = (src * t.n) + dst in
  match t.held.(slot) with
  | None -> ()
  | Some buf ->
    t.held.(slot) <- None;
    for i = 0 to Net.Pool.length buf - 1 do
      let ev = Net.Pool.get buf i in
      Thc_obsv.Link_stats.on_release t.stats ~src ~dst;
      match Net.get t.net ~src ~dst with
      | Net.Deliver dist ->
        let delay = Delay.sample_us t.rng dist in
        Thc_obsv.Link_stats.on_enqueue t.stats;
        (* The held record goes straight back into the queue. *)
        push t (t.clock_i + delay) ev
      | Net.Block | Net.Drop ->
        Thc_obsv.Link_stats.on_drop t.stats;
        if t.trace_full then
          t.entries <-
            Trace.Dropped { time = t.clock; src; dst; seq = ev.c } :: t.entries;
        release t ev
    done;
    Net.Pool.release t.held_pool buf

let set_link t ~src ~dst policy =
  Net.set t.net ~src ~dst policy;
  match policy with
  | Net.Deliver _ -> release_held t ~src ~dst
  | Net.Block | Net.Drop -> ()

let heal_all t dist =
  for src = 0 to t.n - 1 do
    for dst = 0 to t.n - 1 do
      set_link t ~src ~dst (Net.Deliver dist)
    done
  done

let arm t ~kind ~pid ~delay ~tag =
  let ev = alloc t in
  ev.kind <- kind;
  ev.a <- pid;
  ev.c <- tag;
  push t (t.clock_i + Int64.to_int delay) ev

let ctx_of t pid =
  match t.ctxs.(pid) with
  | Some c -> c
  | None ->
    let c =
      {
        self = pid;
        n = t.n;
        now = (fun () -> t.clock);
        send = (fun dst msg -> do_send t ~src:pid ~dst msg);
        broadcast =
          (fun msg ->
            for dst = 0 to t.n - 1 do
              do_send t ~src:pid ~dst msg
            done);
        others =
          (fun msg ->
            for dst = 0 to t.n - 1 do
              if dst <> pid then do_send t ~src:pid ~dst msg
            done);
        set_timer = (fun ~delay ~tag -> arm t ~kind:k_fire ~pid ~delay ~tag);
        set_poll =
          (fun ~delay ~tag ->
            t.polls.(pid) <- t.polls.(pid) + 1;
            t.pending_polls <- t.pending_polls + 1;
            arm t ~kind:k_poll ~pid ~delay ~tag);
        quiet =
          (fun quiet ->
            if not quiet then t.changes <- t.changes + 1
            else if t.quiet_at.(pid) = t.changes then
              t.quiet_runs.(pid) <- t.quiet_runs.(pid) + 1
            else begin
              t.quiet_at.(pid) <- t.changes;
              t.quiet_runs.(pid) <- 1
            end);
        output =
          (fun obs ->
            t.changes <- t.changes + 1;
            if t.trace_key then
              t.entries <- Trace.Output { time = t.clock; pid; obs } :: t.entries);
        rng = t.proc_rngs.(pid);
        spans = t.spans;
      }
    in
    t.ctxs.(pid) <- Some c;
    c

(* Copy the fields out, return the record to the arena, then act: by the
   time a behavior runs (and pushes fresh events) the record is already
   reusable. *)
let dispatch t ev =
  let kind = ev.kind and a = ev.a and b = ev.b and c = ev.c in
  let msg = ev.msg and script = ev.script in
  release t ev;
  if kind = k_poll then begin
    t.polls.(a) <- t.polls.(a) - 1;
    t.pending_polls <- t.pending_polls - 1
  end
  else t.changes <- t.changes + 1;
  if kind = k_deliver then begin
    Thc_obsv.Link_stats.on_dequeue t.stats;
    if not t.crashed.(b) then begin
      let m = match msg with Some m -> m | None -> assert false in
      Thc_obsv.Link_stats.on_deliver t.stats;
      if t.trace_full then
        t.entries <-
          Trace.Delivered { time = t.clock; src = a; dst = b; seq = c; msg = m }
          :: t.entries;
      t.behaviors.(b).on_message (ctx_of t b) ~src:a m
    end
  end
  else if kind = k_fire || kind = k_poll then begin
    if not t.crashed.(a) then begin
      if t.trace_full then
        t.entries <-
          Trace.Timer_fired { time = t.clock; pid = a; tag = c } :: t.entries;
      t.behaviors.(a).on_timer (ctx_of t a) c
    end
  end
  else if kind = k_start then begin
    if not t.crashed.(a) then t.behaviors.(a).init (ctx_of t a)
  end
  else if kind = k_crash then begin
    if not t.crashed.(a) then begin
      t.crashed.(a) <- true;
      if t.trace_key then
        t.entries <- Trace.Crashed { time = t.clock; pid = a } :: t.entries
    end
  end
  else begin
    match script with Some f -> f () | None -> assert false
  end

let to_trace t =
  let byzantine =
    List.filter (fun p -> t.byzantine.(p)) (List.init t.n (fun i -> i))
  in
  {
    Trace.n = t.n;
    byzantine;
    entries = List.rev t.entries;
    end_time = t.clock;
  }

(* The world cannot change any more: the queue holds only polls, and
   every live process with a poll pending ended its last two sweeps quiet
   with [changes] where it is now.  A register changes only inside a
   counted event, so the later of those two sweeps started after the last
   change and read every location; each later sweep reads the same state
   and holds again. *)
let settled t =
  t.pending_polls > 0
  && Thc_util.Calendar_queue.length t.q = t.pending_polls
  &&
  let rec go pid =
    pid = t.n
    || (t.crashed.(pid) || t.polls.(pid) = 0
       || (t.quiet_at.(pid) = t.changes && t.quiet_runs.(pid) >= 2))
       && go (pid + 1)
  in
  go 0

let run ?(max_events = 2_000_000) ?until t =
  for pid = 0 to t.n - 1 do
    let ev = alloc t in
    ev.kind <- k_start;
    ev.a <- pid;
    push t 0 ev
  done;
  let until_i =
    match until with None -> max_int | Some limit -> Int64.to_int limit
  in
  let processed = ref 0 in
  let continue = ref true in
  let stop ending =
    t.ended <- Some ending;
    continue := false
  in
  while !continue do
    match Thc_util.Calendar_queue.pop t.q with
    | None -> stop Drained
    | Some (time, _, ev) ->
      if time > until_i then
        (* Engines are single-shot: events past [until] stay
           unprocessed, and the popped one is simply not dispatched. *)
        stop Horizon
      else begin
        t.clock_i <- time;
        t.clock <- Int64.of_int time;
        let poll = ev.kind = k_poll in
        dispatch t ev;
        incr processed;
        t.events <- t.events + 1;
        if !processed > max_events then
          failwith "Engine.run: event limit exceeded (livelocked protocol?)";
        if poll && settled t then stop Quiescent
      end
  done;
  to_trace t
