module Pair = Thc_util.Keyed.Pair

type status = Normal | Changing of int

let check_timer_tag = 1_000_000

let batch_timer_tag = 1_000_001

type 'm t = {
  self : int;
  n : int;
  keyring : Thc_crypto.Keyring.t;
  request_timeout : int64;
  check_interval : int64;
  batch_size : int;
  batch_delay : int64;
  reply : Command.reply -> 'm;
  store : Kv_store.t;
  mutable view : int;
  mutable status : status;
  mutable next_seq : int;
  mutable exec_upto : int;
  mutable exec_count : int;
  queue : Command.signed_request Queue.t;
  queued : unit Pair.t;
  mutable batch_armed : bool;
  pending : (Command.signed_request * int64) Pair.t;
  proposed_keys : int Pair.t;
  executed : string Pair.t;
  mutable max_vc_sent : int;
  mutable last_vc_at : int64;
}

let create ~self ~n ~keyring ~request_timeout ~check_interval ~batch_size
    ~batch_delay ~reply =
  {
    self;
    n;
    keyring;
    request_timeout;
    check_interval;
    batch_size;
    batch_delay;
    reply;
    store = Kv_store.create ();
    view = 0;
    status = Normal;
    next_seq = 1;
    exec_upto = 0;
    exec_count = 0;
    queue = Queue.create ();
    queued = Pair.create 64;
    batch_armed = false;
    pending = Pair.create 64;
    proposed_keys = Pair.create 64;
    executed = Pair.create 64;
    max_vc_sent = 0;
    last_vc_at = 0L;
  }

let leader_of c view = view mod c.n

let leading c = c.self = leader_of c c.view && c.status = Normal

let batch_rids (batch : Command.batch) =
  List.map
    (fun (sr : Command.signed_request) -> sr.Thc_crypto.Signature.value.rid)
    batch

let table tbl key size =
  match Hashtbl.find_opt tbl key with
  | Some inner -> inner
  | None ->
    let inner = Hashtbl.create size in
    Hashtbl.add tbl key inner;
    inner

let rec mark_proposed c seq = function
  | [] -> ()
  | (sr : Command.signed_request) :: rest ->
    Pair.replace c.proposed_keys (Command.key sr.value) seq;
    mark_proposed c seq rest

let next_slot c batch =
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  mark_proposed c seq batch;
  seq

let output_committed (ctx : _ Thc_sim.Engine.ctx) ~view ~seq
    (batch : Command.batch) =
  if Thc_obsv.Span.enabled ctx.spans then
    Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(batch_rids batch)
      Thc_obsv.Span.Committed ~at:(ctx.now ());
  let op =
    match batch with
    | [ sr ] -> sr.Thc_crypto.Signature.value.op
    | _ ->
      Thc_util.Codec.encode
        (List.map (fun (sr : Command.signed_request) -> sr.value.op) batch)
  in
  ctx.output (Thc_sim.Obs.Committed { view; seq; op })

let answer c (ctx : _ Thc_sim.Engine.ctx) (sr : Command.signed_request) result =
  ctx.send sr.value.client
    (c.reply { replica = c.self; rid = sr.value.rid; result })

(* The per-request [Executed] observations use a dense index
   ([exec_count]), so state-determinism replay keeps seeing consecutive
   sequence numbers even when slots carry more than one request. *)
let execute_one c (ctx : _ Thc_sim.Engine.ctx) (sr : Command.signed_request) =
  let key = Command.key sr.value in
  let result =
    match Pair.find_opt c.executed key with
    | Some r -> r  (* duplicate commit of one request: do not re-apply *)
    | None ->
      let r =
        Kv_store.encode_result
          (Kv_store.apply c.store (Kv_store.decode_op sr.value.op))
      in
      Pair.replace c.executed key r;
      r
  in
  Pair.remove c.pending key;
  Pair.remove c.proposed_keys key;
  c.exec_count <- c.exec_count + 1;
  if Thc_obsv.Span.enabled ctx.spans then
    Thc_obsv.Span.mark ctx.spans ~client:sr.value.client ~rid:sr.value.rid
      Thc_obsv.Span.Executed ~at:(ctx.now ());
  ctx.output
    (Thc_sim.Obs.Executed { seq = c.exec_count; op = sr.value.op; result });
  answer c ctx sr result

let rec execute_all c ctx = function
  | [] -> ()
  | sr :: rest ->
    execute_one c ctx sr;
    execute_all c ctx rest

let execute_slot c ctx batch =
  c.exec_upto <- c.exec_upto + 1;
  execute_all c ctx batch

let enqueue c sr key =
  if not (Pair.mem c.queued key) then begin
    Pair.replace c.queued key ();
    Queue.push sr c.queue
  end

let intake c (ctx : _ Thc_sim.Engine.ctx) (sr : Command.signed_request) =
  Command.valid c.keyring sr
  &&
  let key = Command.key sr.value in
  match Pair.find_opt c.executed key with
  | Some result ->
    answer c ctx sr result;
    false
  | None ->
    if not (Pair.mem c.pending key) then
      Pair.replace c.pending key (sr, ctx.now ());
    leading c
    && (not (Pair.mem c.proposed_keys key))
    && begin
         if Thc_obsv.Span.enabled ctx.spans then
           Thc_obsv.Span.mark ctx.spans ~client:sr.value.client
             ~rid:sr.value.rid Thc_obsv.Span.Ingress ~at:(ctx.now ());
         enqueue c sr key;
         true
       end

let rec take_batch c acc k =
  if k = 0 || Queue.is_empty c.queue then List.rev acc
  else begin
    let sr = Queue.pop c.queue in
    let key = Command.key sr.Thc_crypto.Signature.value in
    Pair.remove c.queued key;
    if Pair.mem c.proposed_keys key || Pair.mem c.executed key then
      take_batch c acc k
    else take_batch c (sr :: acc) (k - 1)
  end

let rec flush c ctx ~force propose st =
  if
    Queue.length c.queue >= c.batch_size
    || (force && not (Queue.is_empty c.queue))
  then begin
    (match take_batch c [] c.batch_size with
    | [] -> ()
    | batch -> propose st ctx batch);
    flush c ctx ~force propose st
  end

let arm_batch_timer c (ctx : _ Thc_sim.Engine.ctx) =
  if (not c.batch_armed) && not (Queue.is_empty c.queue) then begin
    c.batch_armed <- true;
    ctx.set_timer ~delay:c.batch_delay ~tag:batch_timer_tag
  end

let batch_timer_fired c =
  c.batch_armed <- false;
  leading c

(* With nothing pending, [escalation] finds nothing stuck and changes
   nothing, so every protocol's check handler only re-arms the tick: the
   engine's idle contract. *)
let arm_check_timer c (ctx : _ Thc_sim.Engine.ctx) =
  if Pair.length c.pending = 0 then
    ctx.set_idle_timer ~delay:c.check_interval ~tag:check_timer_tag
  else ctx.set_timer ~delay:c.check_interval ~tag:check_timer_tag

let stuck c ~now =
  Pair.length c.pending > 0
  && Pair.fold
       (fun _ (_, since) acc ->
         acc || Int64.sub now since > c.request_timeout)
       c.pending false

(* At most once per request_timeout, so a slow view change is given time to
   complete before the target moves again. *)
let escalation c ~now =
  if
    stuck c ~now
    && (c.max_vc_sent <= c.view
       || Int64.sub now c.last_vc_at > c.request_timeout)
  then begin
    let target = max c.view c.max_vc_sent + 1 in
    c.max_vc_sent <- target;
    c.last_vc_at <- now;
    target
  end
  else 0

let start_change c new_view =
  match c.status with
  | Changing nv when nv >= new_view -> false
  | Normal | Changing _ ->
    c.status <- Changing new_view;
    true

let enter_view c (ctx : _ Thc_sim.Engine.ctx) ~view =
  c.view <- view;
  c.status <- Normal;
  let now = ctx.now () in
  Pair.filter_map_inplace (fun _ (r, _) -> Some (r, now)) c.pending

let requeue_pending c =
  Pair.fold
    (fun key (request, _) acc ->
      if Pair.mem c.proposed_keys key then acc else (key, request) :: acc)
    c.pending []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (key, sr) -> enqueue c sr key)

let reset c =
  Kv_store.reset_to c.store [];
  c.status <- Normal;
  c.exec_upto <- 0;
  c.exec_count <- 0;
  Queue.clear c.queue;
  Pair.reset c.queued;
  c.batch_armed <- false;
  Pair.reset c.pending;
  Pair.reset c.proposed_keys;
  Pair.reset c.executed
