type config = {
  n : int;
  f : int;
  request_timeout : int64;
  check_interval : int64;
  batch_size : int;
  batch_delay : int64;
  checkpoint_interval : int;
}

let default_config ~f =
  {
    n = (2 * f) + 1;
    f;
    request_timeout = 30_000L;
    check_interval = 10_000L;
    batch_size = 1;
    batch_delay = 2_000L;
    checkpoint_interval = 16;
  }

(* What lives in the SWMR registers.  The registers carry the protocol's
   whole data plane: slots (leader), acks (followers), view-change votes
   and checkpoint markers.  Wire messages below are only doorbells. *)
type record =
  | Slot of { view : int; seq : int; batch : Command.batch }
  | Ack of { view : int; seq : int; digest : int64 }
  | Vc of { new_view : int }
  | Checkpoint of { upto : int; state : int64 }

type registers = record Thc_sharedmem.Swmr.log array

type msg =
  | Request of Command.signed_request
  | Notify of { view : int; upto : int }
  | Ack_note of { view : int; upto : int }
  | Rvc of { new_view : int }
  | New_view_note of { new_view : int; upto : int }
  | Reply of Command.reply

let pp_msg ppf = function
  | Request sr -> Format.fprintf ppf "request(%a)" Command.pp sr.value
  | Notify { view; upto } -> Format.fprintf ppf "notify(v%d,<=%d)" view upto
  | Ack_note { view; upto } ->
    Format.fprintf ppf "ack-note(v%d,<=%d)" view upto
  | Rvc { new_view } -> Format.fprintf ppf "rvc(v%d)" new_view
  | New_view_note { new_view; upto } ->
    Format.fprintf ppf "new-view(v%d,<=%d)" new_view upto
  | Reply r -> Format.fprintf ppf "reply(p%d,#%d)" r.replica r.rid

module C = Replica_core
module K = Thc_util.Keyed

type t = {
  config : config;
  keyring : Thc_crypto.Keyring.t;
  registers : registers;
  ident : Thc_crypto.Keyring.secret;
  self : int;
  core : msg C.t;
  slots : (Command.batch * int64) K.Int.t;
      (* seq -> adopted batch and its digest (first valid Slot per seq
         wins, so every reader of the same register resolves
         identically) *)
  acked : int array;
      (* leader: per-follower ack frontier for the current view, verified
         against the follower's register on each Ack_note doorbell *)
  acked_keys : unit K.Pair.t;  (* (view, seq) we acked *)
  rvc_votes : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  mutable trunc_base : int;  (* own register pruned up to this slot *)
  mutable own_len : int;
      (* shadow of our register's entry count — kept in software so the
         durability report never spends a trusted register read *)
  mutable reg_hwm : int;  (* high-water-mark of own_len *)
  mutable truncations : int;
}

let create_replica ~config ~keyring ~registers ~ident ~self =
  if config.n <> (2 * config.f) + 1 then
    invalid_arg "Ubft: config requires n = 2f + 1";
  if Array.length registers <> config.n then
    invalid_arg "Ubft: one register per replica required";
  {
    config;
    keyring;
    registers;
    ident;
    self;
    core =
      C.create ~self ~n:config.n ~keyring
        ~request_timeout:config.request_timeout
        ~check_interval:config.check_interval ~batch_size:config.batch_size
        ~batch_delay:config.batch_delay ~reply:(fun r -> Reply r);
    slots = K.Int.create 64;
    acked = Array.make config.n 0;
    acked_keys = K.Pair.create 64;
    rvc_votes = Hashtbl.create 8;
    trunc_base = 0;
    own_len = 0;
    reg_hwm = 0;
    truncations = 0;
  }

let view_of t = t.core.view

let executed_upto t = t.core.exec_upto

let store_digest t = Kv_store.digest t.core.store

let register_len t = List.length (Thc_sharedmem.Swmr.read t.registers.(t.self))

(* uBFT's "log" is its own SWMR register; the truncate-on-checkpoint
   discipline plays the role MinBFT's checkpoint certificates play, so the
   same stats vocabulary applies (live entries, high-water-mark, pruned
   boundary, truncation count). *)
let durability t =
  {
    Durability.live = t.own_len;
    hwm = t.reg_hwm;
    stable_upto = t.trunc_base;
    truncations = t.truncations;
  }

(* Append a record to our own register, attributing the register op (and
   any trusted-op charges the attached ledger raises) to a span phase. *)
let own_append t (ctx : msg Thc_sim.Engine.ctx) ~phase ~rids record =
  (if Thc_obsv.Span.enabled ctx.spans then
     Thc_obsv.Span.in_phase ctx.spans phase ~rids (fun () ->
         Thc_sharedmem.Swmr.append t.registers.(t.self) ~ident:t.ident record)
   else Thc_sharedmem.Swmr.append t.registers.(t.self) ~ident:t.ident record);
  t.own_len <- t.own_len + 1;
  if t.own_len > t.reg_hwm then t.reg_hwm <- t.own_len

(* --- checkpoint truncation --------------------------------------------- *)

(* Highest slot a replica's register acknowledges: its own Slot appends if
   it leads, its Ack appends otherwise.  Registers are append-ordered, so
   the maximum is also the contiguous frontier. *)
let covered_upto t ~owner =
  List.fold_left
    (fun acc r ->
      match r with
      | Slot { seq; _ } | Ack { seq; _ } -> max acc seq
      | Checkpoint { upto; _ } -> max acc upto
      | Vc _ -> acc)
    0
    (Thc_sharedmem.Swmr.entries t.registers.(owner))

(* Rewrite our own register with everything at or below [upto] pruned,
   leaving one Checkpoint record as the oldest entry — the uBFT bounded
   per-register memory discipline.  The rewrite is one owner [write], so
   the ACL and write-count semantics are those of any other update. *)
let truncate_own t ~upto =
  if upto > t.trunc_base then begin
    t.trunc_base <- upto;
    let raw = Thc_sharedmem.Swmr.read t.registers.(t.self) in
    (* Our highest view-change vote must outlive truncation: the f+1
       registers holding Vc votes for an activated view are the evidence
       [higher_view_evidence] relies on to keep speculation safe. *)
    let max_vc =
      List.fold_left
        (fun acc r ->
          match r with Vc { new_view } -> max acc new_view | _ -> acc)
        0 raw
    in
    let keep =
      List.filter
        (fun r ->
          match r with
          | Slot { seq; _ } | Ack { seq; _ } -> seq > upto
          | Vc { new_view } -> new_view = max_vc || new_view > t.core.view
          | Checkpoint _ -> false)
        raw
    in
    Thc_sharedmem.Swmr.write t.registers.(t.self) ~ident:t.ident
      (keep @ [ Checkpoint { upto; state = Kv_store.digest t.core.store } ]);
    t.own_len <- List.length keep + 1;
    t.truncations <- t.truncations + 1;
    let stale =
      K.Int.fold
        (fun seq _ acc -> if seq <= upto then seq :: acc else acc)
        t.slots []
    in
    List.iter (K.Int.remove t.slots) stale;
    let stale_acks =
      K.Pair.fold
        (fun ((_, seq) as key) _ acc -> if seq <= upto then key :: acc else acc)
        t.acked_keys []
    in
    List.iter (K.Pair.remove t.acked_keys) stale_acks
  end

let maybe_checkpoint t ~seq =
  if seq mod t.config.checkpoint_interval = 0 then
    if t.self = C.leader_of t.core t.core.view then begin
      (* The leader prunes only slots every register covers.  A replica's
         ack frontier is also its adoption frontier, so nothing a live
         replica still needs ever disappears from the log it reads.
         (Real uBFT truncates at f+1 coverage and state-transfers
         laggards past the gap; the sim keeps every replica's replay
         dense instead, at the cost of a crashed replica stalling
         truncation.) *)
      let stable =
        ref (if t.config.n = 1 then t.core.exec_upto else max_int)
      in
      for owner = 0 to t.config.n - 1 do
        if owner <> t.self then
          stable := min !stable (covered_upto t ~owner)
      done;
      truncate_own t ~upto:(min !stable seq)
    end
    else
      (* Followers keep a full checkpoint interval of acknowledgements as
         recovery slack behind their execution frontier. *)
      truncate_own t ~upto:(seq - t.config.checkpoint_interval)

(* --- execution --------------------------------------------------------- *)

(* The leader executes (and replies) only once a slot is {e covered}: in
   f+1 registers counting its own Slot append, so a view change that
   gathers f+1 votes — silencing f+1 replicas' old-view acks — can never
   strand an executed slot outside recovery's reach.  Followers execute
   speculatively at adoption; [higher_view_evidence] keeps that safe. *)
let slot_covered t ~seq =
  let votes = ref 1 in
  Array.iteri
    (fun owner upto -> if owner <> t.self && upto >= seq then incr votes)
    t.acked;
  !votes >= t.config.f + 1

let rec try_execute t (ctx : msg Thc_sim.Engine.ctx) =
  let seq = t.core.exec_upto + 1 in
  match K.Int.find_opt t.slots seq with
  | None -> ()
  | Some _
    when t.self = C.leader_of t.core t.core.view && not (slot_covered t ~seq)
    ->
    ()
  | Some (batch, _) ->
    C.output_committed ctx ~view:t.core.view ~seq batch;
    C.execute_slot t.core ctx batch;
    maybe_checkpoint t ~seq;
    try_execute t ctx

(* --- fast path --------------------------------------------------------- *)

let adopt_slot t ~seq ~(batch : Command.batch) ~digest =
  K.Int.replace t.slots seq (batch, digest);
  C.mark_proposed t.core seq batch

(* Count registers carrying a view-change vote above our view.  An
   activated higher view necessarily left Vc votes in f+1 registers
   before its leader recovered (and truncation preserves the highest
   vote), so — handlers being atomic over linearizable registers — a
   scan seeing fewer than f+1 votes proves no higher view is active
   yet, and anything we adopt now is visible to any later recovery. *)
let higher_view_evidence t =
  let count = ref 0 in
  for owner = 0 to t.config.n - 1 do
    if
      List.exists
        (function Vc { new_view } -> new_view > t.core.view | _ -> false)
        (Thc_sharedmem.Swmr.entries t.registers.(owner))
    then incr count
  done;
  !count

(* Follower fast path: read the leader's register and adopt, in append
   order, the first valid Slot per sequence number of the current view.
   Every follower reads the same register, so first-valid-wins resolves
   identically everywhere — the non-equivocation the SWMR layer buys.
   Each adoption is acknowledged with an Ack append in our own register
   (the leader's coverage evidence, confirmed by one Ack_note doorbell),
   then executed speculatively in dense slot order. *)
let refresh t (ctx : msg Thc_sim.Engine.ctx) =
  if t.core.status = C.Normal && t.self <> C.leader_of t.core t.core.view
  then begin
    let lead = C.leader_of t.core t.core.view in
    let evidence =
      if Thc_obsv.Span.enabled ctx.spans then
        Thc_obsv.Span.in_phase ctx.spans Thc_obsv.Span.Other_phase ~rids:[]
          (fun () -> higher_view_evidence t)
      else higher_view_evidence t
    in
    if evidence < t.config.f + 1 then begin
      let log =
        if Thc_obsv.Span.enabled ctx.spans then
          Thc_obsv.Span.in_phase ctx.spans Thc_obsv.Span.Commit_phase ~rids:[]
            (fun () -> Thc_sharedmem.Swmr.entries t.registers.(lead))
        else Thc_sharedmem.Swmr.entries t.registers.(lead)
      in
      let acked_max = ref 0 in
      List.iter
        (fun r ->
          match r with
          | Slot { view; seq; batch }
            when view = t.core.view && seq > t.core.exec_upto
                 && (not (K.Pair.mem t.acked_keys (view, seq)))
                 && Command.batch_valid t.keyring batch ->
            let digest = Command.batch_digest batch in
            let adoptable =
              match K.Int.find_opt t.slots seq with
              | None ->
                adopt_slot t ~seq ~batch ~digest;
                true
              | Some (_, prev) ->
                (* Same slot re-published by a recovering leader: ack it
                   again under the new view.  A conflicting batch (never
                   reachable from a correct leader) is left unacked. *)
                Int64.equal prev digest
            in
            if adoptable then begin
              K.Pair.replace t.acked_keys (view, seq) ();
              acked_max := max !acked_max seq;
              let rids = C.batch_rids batch in
              if Thc_obsv.Span.enabled ctx.spans then
                Thc_obsv.Span.mark_all ctx.spans ~seq ~rids
                  Thc_obsv.Span.Commit_send ~at:(ctx.now ());
              own_append t ctx ~phase:Thc_obsv.Span.Commit_phase ~rids
                (Ack { view = t.core.view; seq; digest })
            end
          | Slot _ | Ack _ | Vc _ | Checkpoint _ -> ())
        log;
      if !acked_max > 0 then
        ctx.send lead (Ack_note { view = t.core.view; upto = !acked_max });
      try_execute t ctx
    end
  end

(* Leader side of the ack doorbell: re-read the sender's register and
   advance its verified ack frontier — only acks whose digest matches
   our adopted slot count, so a forged Ack_note cannot fake coverage. *)
let handle_ack_note t (ctx : msg Thc_sim.Engine.ctx) ~src ~view =
  if
    view = t.core.view
    && t.self = C.leader_of t.core view
    && src <> t.self
    && src >= 0
    && src < t.config.n
  then begin
    let log =
      if Thc_obsv.Span.enabled ctx.spans then
        Thc_obsv.Span.in_phase ctx.spans Thc_obsv.Span.Commit_phase ~rids:[]
          (fun () -> Thc_sharedmem.Swmr.entries t.registers.(src))
      else Thc_sharedmem.Swmr.entries t.registers.(src)
    in
    let verified =
      List.fold_left
        (fun acc r ->
          match r with
          | Ack { view = v; seq; digest } when v = t.core.view ->
            let ok =
              match K.Int.find_opt t.slots seq with
              | Some (_, d) -> Int64.equal d digest
              | None -> seq <= t.core.exec_upto
            in
            if ok then max acc seq else acc
          | Slot _ | Ack _ | Vc _ | Checkpoint _ -> acc)
        0 log
    in
    if verified > t.acked.(src) then begin
      t.acked.(src) <- verified;
      try_execute t ctx
    end
  end

(* --- leader batching --------------------------------------------------- *)

let propose_batch t (ctx : msg Thc_sim.Engine.ctx) (batch : Command.batch) =
  let seq = C.next_slot t.core batch in
  let rids = C.batch_rids batch in
  if Thc_obsv.Span.enabled ctx.spans then begin
    let at = ctx.now () in
    Thc_obsv.Span.mark_all ctx.spans ~seq ~rids Thc_obsv.Span.Propose ~at;
    (* The append is proposal and commit vote in one: stamping
       Commit_send here makes the commit phase measure append-to-
       follower-adoption (one doorbell hop; the follower acks that
       arrive later are first-write-wins no-ops on this mark). *)
    Thc_obsv.Span.mark_all ctx.spans ~seq ~rids Thc_obsv.Span.Commit_send ~at
  end;
  (* One register append is the whole proposal: once it lands, the slot
     is in trusted memory and cannot be equivocated or withdrawn. *)
  own_append t ctx ~phase:Thc_obsv.Span.Prepare_phase ~rids
    (Slot { view = t.core.view; seq; batch });
  K.Int.replace t.slots seq (batch, Command.batch_digest batch)

(* Propose everything due and ring the doorbell once for the whole flush
   (followers learn the data from the register, not the message).  Our
   own execution waits for coverage — the try_execute here only drains
   slots already covered by earlier ack rounds. *)
let flush_queue t (ctx : msg Thc_sim.Engine.ctx) ~force =
  let before = t.core.next_seq in
  C.flush t.core ctx ~force propose_batch t;
  if t.core.next_seq > before then begin
    ctx.others (Notify { view = t.core.view; upto = t.core.next_seq - 1 });
    try_execute t ctx
  end

(* --- view change ------------------------------------------------------- *)

(* A view-change vote is authentic iff it sits in the voter's own register:
   ownership is the authentication, no signature or attestation needed. *)
let register_has_vc t ~owner ~new_view =
  List.exists
    (function Vc { new_view = nv } -> nv = new_view | _ -> false)
    (Thc_sharedmem.Swmr.entries t.registers.(owner))

let vc_support t ~new_view =
  let count = ref 0 in
  for owner = 0 to t.config.n - 1 do
    if register_has_vc t ~owner ~new_view then incr count
  done;
  !count

(* Recovery reads every register and, per sequence number, adopts the
   batch of the highest-view first-valid Slot found in that view's
   leader's register.  Any slot acknowledged by f+1 replicas survives in
   its proposer's register (truncation only prunes stable prefixes), so
   the recovery covers everything any replica may have executed. *)
let recover_from_registers t ~new_view =
  let best : (int, int * Command.batch) Hashtbl.t = Hashtbl.create 32 in
  for owner = 0 to t.config.n - 1 do
    let taken = Hashtbl.create 16 in
    List.iter
      (fun r ->
        match r with
        | Slot { view; seq; batch }
          when view < new_view
               && owner = view mod t.config.n
               && (not (Hashtbl.mem taken (view, seq)))
               && Command.batch_valid t.keyring batch ->
          Hashtbl.replace taken (view, seq) ();
          (match Hashtbl.find_opt best seq with
          | Some (v, _) when v >= view -> ()
          | Some _ | None -> Hashtbl.replace best seq (view, batch))
        | Slot _ | Ack _ | Vc _ | Checkpoint _ -> ())
      (Thc_sharedmem.Swmr.entries t.registers.(owner))
  done;
  Hashtbl.fold (fun seq (_, batch) acc -> (seq, batch) :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* New leader: recover from the registers, re-publish every recovered slot
   under the new view in our own register (giving followers one place to
   read), then drain still-pending requests behind the recovery. *)
let adopt_new_view t (ctx : msg Thc_sim.Engine.ctx) ~new_view =
  let recovered = recover_from_registers t ~new_view in
  C.enter_view t.core ctx ~view:new_view;
  Array.fill t.acked 0 (Array.length t.acked) 0;
  let bound =
    List.fold_left (fun acc (seq, _) -> max acc seq) t.core.exec_upto recovered
  in
  t.core.next_seq <- bound + 1;
  List.iter
    (fun (seq, (batch : Command.batch)) ->
      let rids = C.batch_rids batch in
      own_append t ctx ~phase:Thc_obsv.Span.Prepare_phase ~rids
        (Slot { view = new_view; seq; batch });
      if seq > t.core.exec_upto && not (K.Int.mem t.slots seq) then
        adopt_slot t ~seq ~batch ~digest:(Command.batch_digest batch))
    recovered;
  ctx.others (New_view_note { new_view; upto = t.core.next_seq - 1 });
  try_execute t ctx;
  C.requeue_pending t.core;
  flush_queue t ctx ~force:true

let announce_rvc t ctx ~new_view =
  t.core.max_vc_sent <- new_view;
  own_append t ctx ~phase:Thc_obsv.Span.Other_phase ~rids:[] (Vc { new_view });
  Hashtbl.replace (C.table t.rvc_votes new_view 8) t.self ();
  ctx.others (Rvc { new_view })

let note_vc_support t (ctx : msg Thc_sim.Engine.ctx) ~owner ~new_view =
  if new_view > t.core.view && register_has_vc t ~owner ~new_view then begin
    let supporters = C.table t.rvc_votes new_view 8 in
    Hashtbl.replace supporters owner ();
    (* Join a view-change attempt ahead of our own: keeps escalation
       targets aligned across replicas. *)
    if owner <> t.self && new_view > t.core.max_vc_sent then
      announce_rvc t ctx ~new_view;
    if Hashtbl.length supporters >= t.config.f + 1 then
      if t.self = C.leader_of t.core new_view then
        adopt_new_view t ctx ~new_view
      else ignore (C.start_change t.core new_view)
  end

let handle_new_view_note t (ctx : msg Thc_sim.Engine.ctx) ~src ~new_view =
  if
    src = C.leader_of t.core new_view
    && new_view > t.core.view
    && vc_support t ~new_view >= t.config.f + 1
  then begin
    C.enter_view t.core ctx ~view:new_view;
    Array.fill t.acked 0 (Array.length t.acked) 0;
    t.core.max_vc_sent <- max t.core.max_vc_sent new_view;
    refresh t ctx
  end

let handle_request t (ctx : msg Thc_sim.Engine.ctx) sr =
  if C.intake t.core ctx sr then begin
    flush_queue t ctx ~force:false;
    C.arm_batch_timer t.core ctx
  end

let handle_check t (ctx : msg Thc_sim.Engine.ctx) =
  let new_view = C.escalation t.core ~now:(ctx.now ()) in
  if new_view > 0 then begin
    announce_rvc t ctx ~new_view;
    note_vc_support t ctx ~owner:t.self ~new_view
  end;
  C.arm_check_timer t.core ctx

let replica t : msg Thc_sim.Engine.behavior =
  {
    init = (fun ctx -> C.arm_check_timer t.core ctx);
    on_message =
      (fun ctx ~src m ->
        match m with
        | Request sr -> handle_request t ctx sr
        | Notify { view; upto = _ } ->
          if view = t.core.view && src = C.leader_of t.core view then
            refresh t ctx
        | Ack_note { view; upto = _ } -> handle_ack_note t ctx ~src ~view
        | Rvc { new_view } -> note_vc_support t ctx ~owner:src ~new_view
        | New_view_note { new_view; upto = _ } ->
          handle_new_view_note t ctx ~src ~new_view
        | Reply _ -> ());
    on_timer =
      (fun ctx tag ->
        if tag = C.check_timer_tag then handle_check t ctx
        else if tag = C.batch_timer_tag && C.batch_timer_fired t.core then
          flush_queue t ctx ~force:true);
  }

let wrap_request sr = Request sr

let unwrap_reply = function
  | Reply r -> Some r
  | Request _ | Notify _ | Ack_note _ | Rvc _ | New_view_note _ -> None

let client ~rid_base ~config ~keyring:_ ~ident ~plan :
    msg Thc_sim.Engine.behavior =
  Client_core.behavior ~rid_base ~n_replicas:config.n ~quorum:(config.f + 1)
    ~ident ~plan ~wrap:wrap_request ~unwrap:unwrap_reply

let classify_msg = function
  | Request _ -> "request"
  | Notify _ -> "notify"
  | Ack_note _ -> "ack-note"
  | Rvc _ -> "req-view-change"
  | New_view_note _ -> "new-view"
  | Reply _ -> "reply"

(* --- adversarial surface ----------------------------------------------- *)

let forged_slot ~view ~seq ~batch = Slot { view; seq; batch }

let forged_ack ~view ~seq ~digest = Ack { view; seq; digest }

let adversarial_notify ~view ~upto = Notify { view; upto }

let adversarial_ack_note ~view ~upto = Ack_note { view; upto }
