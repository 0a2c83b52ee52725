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
    checkpoint_interval = 0;
  }

type proto =
  | Prepare of { view : int; seq : int; batch : Command.batch }
  | Commit of { view : int; seq : int; batch : Command.batch }
  | Rvc of { new_view : int }
  | View_change of {
      new_view : int;
      log : Thc_hardware.Trinc.attestation list;
    }
  | New_view of {
      new_view : int;
      evidence : Thc_hardware.Trinc.attestation list;
          (* f+1 View_change attestations *)
    }
  | Checkpoint of { upto : int; digest : int64; exec_count : int }
      (* appended last: encoded protos keep their bytes *)

(* What state transfer ships: the latest stable checkpoint (certificate of
   f+1 Checkpoint attestations over the same digest) plus the donor's
   committed suffix.  The payload itself is plain wire data — all trust
   comes from the joiner re-verifying the certificate against the trusted
   counters before installing anything. *)
type snapshot = {
  s_upto : int;
  s_digest : int64;
  s_exec_count : int;
  s_cert : Thc_hardware.Trinc.attestation list;
  s_state : (string * string) list;
  s_suffix : (int * Command.batch) list;
}

type msg =
  | Request of Command.signed_request
  | Sealed of Thc_hardware.Trinc.attestation  (* message field: encoded proto *)
  | Reply of Command.reply
  | Fetch of { have : int }  (* appended last; [have]: joiner's stable floor *)
  | Snapshot of snapshot

let pp_msg ppf = function
  | Request sr -> Format.fprintf ppf "request(%a)" Command.pp sr.value
  | Sealed a -> Format.fprintf ppf "sealed(p%d,c%d)" a.owner a.counter
  | Reply r -> Format.fprintf ppf "reply(p%d,#%d)" r.replica r.rid
  | Fetch { have } -> Format.fprintf ppf "fetch(s%d)" have
  | Snapshot s -> Format.fprintf ppf "snapshot(s%d,x%d)" s.s_upto s.s_exec_count

let check_timer_tag = 1_000_000

let batch_timer_tag = 1_000_001

let restart_timer_tag = 1_000_002

let fetch_timer_tag = 1_000_003

let fetch_retry_delay = 20_000L

type status = Normal | Changing of int

(* A certified checkpoint this replica holds.  [c_state] is [None] when the
   replica learned the certificate without having executed through [c_upto]
   itself (it can truncate against it but cannot serve state transfer). *)
type stable_ckpt = {
  c_upto : int;
  c_digest : int64;
  c_exec_count : int;
  c_cert : Thc_hardware.Trinc.attestation list;
  c_state : (string * string) list option;
}

type t = {
  config : config;
  keyring : Thc_crypto.Keyring.t;
  world : Thc_hardware.Trinc.world;
  self : int;
  out : Attested_link.Out.t;
  inbox : Attested_link.In.t;
  store : Kv_store.t;
  mutable view : int;
  mutable status : status;
  mutable next_seq : int;  (* leader: next sequence number to assign *)
  proposals : (int, Command.batch) Hashtbl.t;  (* seq -> accepted proposal *)
  votes : (int * int * int64, (int, unit) Hashtbl.t) Hashtbl.t;
      (* (view, seq, batch digest) -> voters *)
  commit_sent : (int * int, unit) Hashtbl.t;  (* (view, seq) voted already *)
  committed : (int, Command.batch) Hashtbl.t;
  mutable exec_upto : int;  (* highest executed slot *)
  mutable exec_count : int;  (* dense per-request execution index *)
  queue : Command.signed_request Queue.t;
      (* leader: requests accumulating into the next batch *)
  queued : (int * int, unit) Hashtbl.t;  (* request keys currently queued *)
  mutable batch_armed : bool;  (* batch flush timer outstanding *)
  pending : (int * int, Command.signed_request * int64) Hashtbl.t;
      (* request key -> (request, arrival time) *)
  proposed_keys : (int * int, int) Hashtbl.t;  (* request key -> seq (leader) *)
  executed : (int * int, string) Hashtbl.t;  (* request key -> result *)
  rvc_votes : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* new_view -> supporters *)
  mutable max_rvc_sent : int;
  mutable last_rvc_at : int64;
  vc_evidence : (int, (int, Thc_hardware.Trinc.attestation) Hashtbl.t) Hashtbl.t;
      (* new_view -> owner -> View_change attestation (new leader role) *)
  mutable recovered_bound : int;
      (* after a view change: highest recovered seq; re-proposals at or
         below it must match the recovery *)
  expected : (int, int64) Hashtbl.t;  (* seq -> required request digest *)
  (* --- durability (active only when config.checkpoint_interval > 0) --- *)
  mutable last_ckpt : int;  (* highest boundary we sealed a Checkpoint for *)
  ckpt_votes :
    (int * int64 * int, (int, Thc_hardware.Trinc.attestation) Hashtbl.t)
    Hashtbl.t;
      (* (upto, digest, exec_count) -> owner -> Checkpoint attestation *)
  own_snaps : (int, (string * string) list) Hashtbl.t;
      (* boundary -> store snapshot taken when we executed through it *)
  mutable stable : stable_ckpt option;  (* highest certified checkpoint *)
  mutable prev_stable : stable_ckpt option;  (* the one it superseded *)
  mutable truncated_upto : int;  (* log slots <= this have been dropped *)
  mutable truncations : int;
  mutable log_hwm : int;  (* high-water-mark of live committed slots *)
  mutable awaiting_fetch : bool;  (* restarted; waiting for a Snapshot *)
  suffix_votes : (int * int64, (int, unit) Hashtbl.t) Hashtbl.t;
      (* (seq, batch digest) -> donors vouching for it in a Snapshot suffix;
         a suffix slot installs only at f+1 distinct donors (one is correct) *)
  suffix_batches : (int * int64, Command.batch) Hashtbl.t;
}

let create_replica ~config ~keyring ~world ~trinket ~self =
  if config.n <> (2 * config.f) + 1 then
    invalid_arg "Minbft: config requires n = 2f + 1";
  {
    config;
    keyring;
    world;
    self;
    out = Attested_link.Out.create trinket;
    inbox = Attested_link.In.create ~world ~n:config.n;
    store = Kv_store.create ();
    view = 0;
    status = Normal;
    next_seq = 1;
    proposals = Hashtbl.create 64;
    votes = Hashtbl.create 64;
    commit_sent = Hashtbl.create 64;
    committed = Hashtbl.create 64;
    exec_upto = 0;
    exec_count = 0;
    queue = Queue.create ();
    queued = Hashtbl.create 64;
    batch_armed = false;
    pending = Hashtbl.create 64;
    proposed_keys = Hashtbl.create 64;
    executed = Hashtbl.create 64;
    rvc_votes = Hashtbl.create 8;
    max_rvc_sent = 0;
    last_rvc_at = 0L;
    vc_evidence = Hashtbl.create 8;
    recovered_bound = 0;
    expected = Hashtbl.create 16;
    last_ckpt = 0;
    ckpt_votes = Hashtbl.create 16;
    own_snaps = Hashtbl.create 8;
    stable = None;
    prev_stable = None;
    truncated_upto = 0;
    truncations = 0;
    log_hwm = 0;
    awaiting_fetch = false;
    suffix_votes = Hashtbl.create 8;
    suffix_batches = Hashtbl.create 8;
  }

let view_of t = t.view

let executed_upto t = t.exec_upto

let store_digest t = Kv_store.digest t.store

let leader_of t view = view mod t.config.n

let encode_proto (p : proto) = Thc_util.Codec.encode p

let decode_proto s = (Thc_util.Codec.decode s : proto)

let batch_rids (batch : Command.batch) =
  List.map
    (fun (sr : Command.signed_request) -> sr.Thc_crypto.Signature.value.rid)
    batch

(* Which span phase a sealed protocol message belongs to, and on behalf of
   which requests — used to attribute the trusted ops the seal/accept
   charges (attest on the way out, counter checks on the way in). *)
let span_phase_of_proto = function
  | Prepare { batch; _ } -> (Thc_obsv.Span.Prepare_phase, batch_rids batch)
  | Commit { batch; _ } -> (Thc_obsv.Span.Commit_phase, batch_rids batch)
  | Rvc _ | View_change _ | New_view _ | Checkpoint _ ->
    (Thc_obsv.Span.Other_phase, [])

let seal_and_send t (ctx : msg Thc_sim.Engine.ctx) p =
  let a =
    if Thc_obsv.Span.enabled ctx.spans then begin
      let phase, rids = span_phase_of_proto p in
      Thc_obsv.Span.in_phase ctx.spans phase ~rids (fun () ->
          Attested_link.Out.seal t.out (encode_proto p))
    end
    else Attested_link.Out.seal t.out (encode_proto p)
  in
  ctx.broadcast (Sealed a)

let voters t key =
  match Hashtbl.find_opt t.votes key with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.add t.votes key tbl;
    tbl

let rvc_supporters t nv =
  match Hashtbl.find_opt t.rvc_votes nv with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 8 in
    Hashtbl.add t.rvc_votes nv tbl;
    tbl

(* --- execution --------------------------------------------------------- *)

(* Executing a slot applies every request of its batch in batch order.  The
   per-request [Executed] observations use a separate dense index
   ([exec_count]) so state-determinism replay keeps seeing consecutive
   sequence numbers even when slots carry more than one request. *)
let execute_one t (ctx : msg Thc_sim.Engine.ctx) (sr : Command.signed_request)
    =
  let key = Command.key sr.value in
  let result =
    match Hashtbl.find_opt t.executed key with
    | Some r -> r  (* duplicate commit of one request: do not re-apply *)
    | None ->
      let r =
        Kv_store.encode_result
          (Kv_store.apply t.store (Kv_store.decode_op sr.value.op))
      in
      Hashtbl.replace t.executed key r;
      r
  in
  Hashtbl.remove t.pending key;
  t.exec_count <- t.exec_count + 1;
  if Thc_obsv.Span.enabled ctx.spans then
    Thc_obsv.Span.mark ctx.spans ~client:sr.value.client ~rid:sr.value.rid
      Thc_obsv.Span.Executed ~at:(ctx.now ());
  ctx.output
    (Thc_sim.Obs.Executed { seq = t.exec_count; op = sr.value.op; result });
  ctx.send sr.value.client
    (Reply { replica = t.self; rid = sr.value.rid; result })

(* --- durability: checkpoints, truncation, state transfer --------------- *)

let stable_upto t = match t.stable with Some c -> c.c_upto | None -> 0

(* Drop consensus-log state for slots covered by the stable checkpoint (and
   already executed locally).  This is the compaction that keeps a
   long-lived replica's memory bounded by the checkpoint interval. *)
let truncate_log t =
  match t.stable with
  | None -> ()
  | Some c ->
    let bound = min c.c_upto t.exec_upto in
    if bound > t.truncated_upto then begin
      for seq = t.truncated_upto + 1 to bound do
        Hashtbl.remove t.committed seq;
        Hashtbl.remove t.proposals seq;
        Hashtbl.remove t.expected seq
      done;
      Hashtbl.filter_map_inplace
        (fun (_, seq, _) tbl -> if seq <= bound then None else Some tbl)
        t.votes;
      Hashtbl.filter_map_inplace
        (fun (_, seq) () -> if seq <= bound then None else Some ())
        t.commit_sent;
      (* Certificate votes and our retained snapshots below the stable
         boundary can never become a newer stable checkpoint. *)
      Hashtbl.filter_map_inplace
        (fun (upto, _, _) tbl -> if upto <= c.c_upto then None else Some tbl)
        t.ckpt_votes;
      Hashtbl.filter_map_inplace
        (fun upto s -> if upto < c.c_upto then None else Some s)
        t.own_snaps;
      Hashtbl.filter_map_inplace
        (fun (seq, _) tbl -> if seq <= bound then None else Some tbl)
        t.suffix_votes;
      Hashtbl.filter_map_inplace
        (fun (seq, _) b -> if seq <= bound then None else Some b)
        t.suffix_batches;
      t.truncated_upto <- bound;
      t.truncations <- t.truncations + 1
    end

(* f+1 matching Checkpoint attestations from distinct trinkets certify the
   boundary: at least one comes from a correct replica, so the digest is the
   real state and the prefix may be dropped everywhere. *)
let note_ckpt_vote t (ctx : msg Thc_sim.Engine.ctx)
    ~(att : Thc_hardware.Trinc.attestation) ~upto ~digest ~exec_count =
  if t.config.checkpoint_interval > 0 && upto > stable_upto t then begin
    let key = (upto, digest, exec_count) in
    let tbl =
      match Hashtbl.find_opt t.ckpt_votes key with
      | Some tbl -> tbl
      | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.add t.ckpt_votes key tbl;
        tbl
    in
    Hashtbl.replace tbl att.owner att;
    if Hashtbl.length tbl >= t.config.f + 1 then begin
      let cert =
        Hashtbl.fold (fun _ a acc -> a :: acc) tbl []
        |> List.sort
             (fun (a : Thc_hardware.Trinc.attestation) b ->
               compare a.owner b.owner)
      in
      t.prev_stable <- t.stable;
      t.stable <-
        Some
          {
            c_upto = upto;
            c_digest = digest;
            c_exec_count = exec_count;
            c_cert = cert;
            c_state = Hashtbl.find_opt t.own_snaps upto;
          };
      truncate_log t;
      (* A certified boundary far ahead of our execution covers slots we can
         no longer obtain through ordinary commits — delivered while we were
         down, or withheld by an equivocating donor.  Re-enter state
         transfer: the certificate legitimizes jumping over the gap.  The
         two-interval slack keeps a merely-lagging replica (commits still in
         flight) from wiping progress it is about to make. *)
      if
        (not t.awaiting_fetch)
        && upto - t.exec_upto >= 2 * t.config.checkpoint_interval
        && not (Hashtbl.mem t.committed (t.exec_upto + 1))
      then begin
        t.awaiting_fetch <- true;
        ctx.others (Fetch { have = stable_upto t });
        ctx.set_timer ~delay:fetch_retry_delay ~tag:fetch_timer_tag
      end
    end
  end

(* Called right after executing a slot: on an interval boundary, snapshot
   the store and broadcast an attested Checkpoint (our own vote arrives via
   the broadcast-to-self inbox like every other sealed message). *)
let maybe_checkpoint t (ctx : msg Thc_sim.Engine.ctx) =
  let ival = t.config.checkpoint_interval in
  if ival > 0 && t.exec_upto mod ival = 0 && t.exec_upto > t.last_ckpt then begin
    t.last_ckpt <- t.exec_upto;
    Hashtbl.replace t.own_snaps t.exec_upto (Kv_store.snapshot t.store);
    seal_and_send t ctx
      (Checkpoint
         {
           upto = t.exec_upto;
           digest = Kv_store.digest t.store;
           exec_count = t.exec_count;
         })
  end

let rec try_execute t (ctx : msg Thc_sim.Engine.ctx) =
  (* A restarted replica's store is behind its commit log until a verified
     snapshot installs; executing meanwhile would emit divergent results.
     Commits still accumulate — installation drains them. *)
  if t.awaiting_fetch then ()
  else
  match Hashtbl.find_opt t.committed (t.exec_upto + 1) with
  | None -> ()
  | Some batch ->
    t.exec_upto <- t.exec_upto + 1;
    List.iter (execute_one t ctx) batch;
    maybe_checkpoint t ctx;
    try_execute t ctx

let record_commit t (ctx : msg Thc_sim.Engine.ctx) ~view ~seq
    ~(batch : Command.batch) ~voter =
  let digest = Command.batch_digest batch in
  let tbl = voters t (view, seq, digest) in
  Hashtbl.replace tbl voter ();
  if
    Hashtbl.length tbl >= t.config.f + 1
    && not (Hashtbl.mem t.committed seq)
  then begin
    Hashtbl.replace t.committed seq batch;
    t.log_hwm <- max t.log_hwm (Hashtbl.length t.committed);
    if Thc_obsv.Span.enabled ctx.spans then
      Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(batch_rids batch)
        Thc_obsv.Span.Committed ~at:(ctx.now ());
    let op =
      match batch with
      | [ sr ] -> sr.Thc_crypto.Signature.value.op
      | _ ->
        Thc_util.Codec.encode
          (List.map
             (fun (sr : Command.signed_request) -> sr.value.op)
             batch)
    in
    ctx.Thc_sim.Engine.output (Thc_sim.Obs.Committed { view; seq; op });
    try_execute t ctx
  end

(* --- state transfer ---------------------------------------------------- *)

(* A donor serves its latest stable checkpoint (it must hold the state, not
   just the certificate) plus whatever committed suffix it still has. *)
let handle_fetch t (ctx : msg Thc_sim.Engine.ctx) ~src ~have =
  if (not t.awaiting_fetch) && src <> t.self && src < t.config.n then
    match t.stable with
    | Some ({ c_state = Some state; _ } as c) when c.c_upto >= have ->
      let suffix =
        Hashtbl.fold
          (fun seq batch acc ->
            if seq > c.c_upto then (seq, batch) :: acc else acc)
          t.committed []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      ctx.send src
        (Snapshot
           {
             s_upto = c.c_upto;
             s_digest = c.c_digest;
             s_exec_count = c.c_exec_count;
             s_cert = c.c_cert;
             s_state = state;
             s_suffix = suffix;
           })
    | Some _ | None -> ()

(* The joiner trusts nothing in the Snapshot payload until the certificate
   checks out against the trusted counters: f+1 attestations from distinct
   trinkets, each passing [Trinc.check] and decoding to a Checkpoint over
   exactly the claimed (upto, digest, exec_count). *)
let snapshot_cert_valid t (s : snapshot) =
  let votes =
    List.filter_map
      (fun (att : Thc_hardware.Trinc.attestation) ->
        if Thc_hardware.Trinc.check t.world att ~id:att.owner then
          match decode_proto att.message with
          | Checkpoint { upto; digest; exec_count } ->
            Some { Durability.owner = att.owner; upto; digest; exec_count }
          | Prepare _ | Commit _ | Rvc _ | View_change _ | New_view _ -> None
          | exception _ -> None
        else None)
      s.s_cert
  in
  List.length votes = List.length s.s_cert
  && List.for_all
       (fun (v : Durability.vote) ->
         v.upto = s.s_upto && v.digest = s.s_digest
         && v.exec_count = s.s_exec_count)
       votes
  && Durability.cert_stable ~f:t.config.f votes

(* The certificate covers only the checkpoint itself; the committed suffix a
   donor attaches is its own unattested claim.  A single Byzantine donor
   could otherwise feed a joiner validly-signed batches that were never
   committed anywhere (join-time equivocation), so a suffix slot installs
   only once f+1 distinct donors vouch for the same batch — at least one of
   them is correct.  Slots that never reach that quorum are jumped over by
   the next certified checkpoint (see [note_ckpt_vote]). *)
let note_suffix_votes t (ctx : msg Thc_sim.Engine.ctx) ~donor (s : snapshot) =
  List.iter
    (fun (seq, (batch : Command.batch)) ->
      if
        seq > s.s_upto
        && seq > t.truncated_upto
        && (not (Hashtbl.mem t.committed seq))
        && Command.batch_valid t.keyring batch
      then begin
        let digest = Command.batch_digest batch in
        let conflict =
          Hashtbl.fold
            (fun (seq', d') _ acc -> acc || (seq' = seq && d' <> digest))
            t.suffix_votes false
        in
        if conflict then
          (* Two donors tell the joiner different histories for one slot:
             someone is equivocating at join time.  Neither claim installs
             until one side reaches f+1 donors. *)
          Thc_obsv.Ledger.bump
            (Thc_hardware.Trinc.ledger t.world)
            "ckpt.reject_suffix_equivocation";
        let tbl =
          match Hashtbl.find_opt t.suffix_votes (seq, digest) with
          | Some tbl -> tbl
          | None ->
            let tbl = Hashtbl.create 4 in
            Hashtbl.add t.suffix_votes (seq, digest) tbl;
            Hashtbl.replace t.suffix_batches (seq, digest) batch;
            tbl
        in
        Hashtbl.replace tbl donor ();
        if
          Hashtbl.length tbl >= t.config.f + 1
          && not (Hashtbl.mem t.committed seq)
        then begin
          Hashtbl.replace t.committed seq batch;
          t.log_hwm <- max t.log_hwm (Hashtbl.length t.committed)
        end
      end)
    s.s_suffix;
  try_execute t ctx

let install_snapshot t (ctx : msg Thc_sim.Engine.ctx) ~donor (s : snapshot) =
  Kv_store.reset_to t.store s.s_state;
  t.exec_upto <- s.s_upto;
  t.exec_count <- s.s_exec_count;
  t.last_ckpt <- max t.last_ckpt s.s_upto;
  t.truncated_upto <- max t.truncated_upto s.s_upto;
  t.stable <-
    Some
      {
        c_upto = s.s_upto;
        c_digest = s.s_digest;
        c_exec_count = s.s_exec_count;
        c_cert = s.s_cert;
        c_state = Some s.s_state;
      };
  t.awaiting_fetch <- false;
  ctx.output
    (Thc_sim.Obs.Recovered { upto = s.s_upto; exec_count = s.s_exec_count });
  note_suffix_votes t ctx ~donor s

(* Everything in the payload is distrusted until the certificate checks out
   and the shipped state hashes to what it certifies.  Valid snapshots that
   arrive after one already installed still contribute suffix votes: the
   f+1 donor quorum usually completes from those late replies. *)
let handle_snapshot t (ctx : msg Thc_sim.Engine.ctx) ~src (s : snapshot) =
  if src <> t.self && src < t.config.n then begin
    let hw = Thc_hardware.Trinc.ledger t.world in
    if not (snapshot_cert_valid t s) then begin
      if t.awaiting_fetch then Thc_obsv.Ledger.bump hw "ckpt.reject_forged"
    end
    else if Kv_store.digest (Kv_store.restore s.s_state) <> s.s_digest then begin
      (* Valid certificate, but the shipped state is not what it certifies. *)
      if t.awaiting_fetch then Thc_obsv.Ledger.bump hw "ckpt.reject_forged"
    end
    else if t.awaiting_fetch then
      if s.s_upto < stable_upto t then
        (* Behind the certified floor that survived our restart: installing
           it would roll the service back. *)
        Thc_obsv.Ledger.bump hw "ckpt.reject_stale"
      else install_snapshot t ctx ~donor:src s
    else note_suffix_votes t ctx ~donor:src s
  end

(* Crash-and-restart: everything volatile is lost.  The trinket, its
   attested links and the latest certified checkpoint *metadata* survive
   (the trusted counter plus a tiny NVRAM record — this floor is what makes
   stale state transfer detectable).  Service state comes back only via a
   verified Snapshot. *)
let restart t (ctx : msg Thc_sim.Engine.ctx) =
  Hashtbl.reset t.proposals;
  Hashtbl.reset t.votes;
  Hashtbl.reset t.commit_sent;
  Hashtbl.reset t.committed;
  Queue.clear t.queue;
  Hashtbl.reset t.queued;
  t.batch_armed <- false;
  Hashtbl.reset t.pending;
  Hashtbl.reset t.proposed_keys;
  Hashtbl.reset t.executed;
  Hashtbl.reset t.rvc_votes;
  Hashtbl.reset t.vc_evidence;
  Hashtbl.reset t.expected;
  Hashtbl.reset t.ckpt_votes;
  Hashtbl.reset t.own_snaps;
  Hashtbl.reset t.suffix_votes;
  Hashtbl.reset t.suffix_batches;
  t.recovered_bound <- 0;
  Kv_store.reset_to t.store [];
  t.exec_upto <- 0;
  t.exec_count <- 0;
  t.truncated_upto <- 0;
  t.last_ckpt <- 0;
  t.status <- Normal;
  t.stable <-
    (match t.stable with
    | Some c -> Some { c with c_state = None }
    | None -> None);
  t.prev_stable <- None;
  t.awaiting_fetch <- true;
  ctx.others (Fetch { have = stable_upto t });
  ctx.set_timer ~delay:fetch_retry_delay ~tag:fetch_timer_tag

(* A replica votes for a proposal unless it contradicts what it committed or
   what the latest view change recovered. *)
let proposal_acceptable t ~seq ~(batch : Command.batch) =
  (match Hashtbl.find_opt t.committed seq with
  | Some b -> Command.batch_digest b = Command.batch_digest batch
  | None -> true)
  && (seq > t.recovered_bound
     ||
     match Hashtbl.find_opt t.expected seq with
     | Some d -> d = Command.batch_digest batch
     | None -> false)

let handle_prepare t (ctx : msg Thc_sim.Engine.ctx) ~owner ~view ~seq ~batch =
  if
    owner = leader_of t view
    && view = t.view
    && t.status = Normal
    && Command.batch_valid t.keyring batch
    && proposal_acceptable t ~seq ~batch
  then begin
    Hashtbl.replace t.proposals seq batch;
    List.iter
      (fun key -> Hashtbl.replace t.proposed_keys key seq)
      (Command.batch_keys batch);
    record_commit t ctx ~view ~seq ~batch ~voter:owner;
    if t.self <> owner && not (Hashtbl.mem t.commit_sent (view, seq)) then begin
      Hashtbl.replace t.commit_sent (view, seq) ();
      if Thc_obsv.Span.enabled ctx.spans then
        Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(batch_rids batch)
          Thc_obsv.Span.Commit_send ~at:(ctx.now ());
      seal_and_send t ctx (Commit { view; seq; batch })
    end
  end

(* --- leader batching --------------------------------------------------- *)

let propose_batch t (ctx : msg Thc_sim.Engine.ctx) (batch : Command.batch) =
  if batch <> [] then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    List.iter
      (fun key -> Hashtbl.replace t.proposed_keys key seq)
      (Command.batch_keys batch);
    if Thc_obsv.Span.enabled ctx.spans then
      Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(batch_rids batch)
        Thc_obsv.Span.Propose ~at:(ctx.now ());
    seal_and_send t ctx (Prepare { view = t.view; seq; batch })
  end

(* Pop up to [k] still-unproposed requests off the queue; requests proposed
   or executed meanwhile (e.g. recovered by a view change) are dropped. *)
let rec take_batch t acc k =
  if k = 0 || Queue.is_empty t.queue then List.rev acc
  else begin
    let sr = Queue.pop t.queue in
    let key = Command.key sr.Thc_crypto.Signature.value in
    Hashtbl.remove t.queued key;
    if Hashtbl.mem t.proposed_keys key || Hashtbl.mem t.executed key then
      take_batch t acc k
    else take_batch t (sr :: acc) (k - 1)
  end

(* Propose full batches; with [~force] also drain the partial remainder
   (batch-delay expiry or view-change adoption). *)
let rec flush_queue t ctx ~force =
  if
    Queue.length t.queue >= t.config.batch_size
    || (force && not (Queue.is_empty t.queue))
  then begin
    propose_batch t ctx (take_batch t [] t.config.batch_size);
    flush_queue t ctx ~force
  end

let arm_batch_timer t (ctx : msg Thc_sim.Engine.ctx) =
  if (not t.batch_armed) && not (Queue.is_empty t.queue) then begin
    t.batch_armed <- true;
    ctx.set_timer ~delay:t.config.batch_delay ~tag:batch_timer_tag
  end

let enqueue_request t ctx (sr : Command.signed_request) =
  let key = Command.key sr.Thc_crypto.Signature.value in
  if not (Hashtbl.mem t.queued key) then begin
    Hashtbl.replace t.queued key ();
    Queue.push sr t.queue
  end;
  flush_queue t ctx ~force:false;
  arm_batch_timer t ctx

(* --- view change ------------------------------------------------------- *)

(* Deterministic recovery from view-change evidence: for every sequence
   number, adopt the batch carried by the highest-view Prepare/Commit
   found in any of the validated logs. *)
let recover_from_evidence t evidence =
  let best : (int, int * Command.batch) Hashtbl.t = Hashtbl.create 32 in
  let consider ~view ~seq ~batch =
    match Hashtbl.find_opt best seq with
    | Some (v, _) when v >= view -> ()
    | Some _ | None -> Hashtbl.replace best seq (view, batch)
  in
  List.iter
    (fun (att : Thc_hardware.Trinc.attestation) ->
      match decode_proto att.message with
      | View_change { log; _ } ->
        (match Attested_link.check_log ~world:t.world ~owner:att.owner log with
        | None -> ()
        | Some payloads ->
          List.iter
            (fun payload ->
              match decode_proto payload with
              | Prepare { view; seq; batch } ->
                (* A Prepare is leader evidence only from that view's leader. *)
                if att.owner = leader_of t view then consider ~view ~seq ~batch
              | Commit { view; seq; batch } -> consider ~view ~seq ~batch
              | Rvc _ | View_change _ | New_view _ | Checkpoint _ -> ()
              | exception _ -> ())
            payloads)
      | Rvc _ | Prepare _ | Commit _ | New_view _ | Checkpoint _ -> ()
      | exception _ -> ())
    evidence;
  Hashtbl.fold (fun seq (_, batch) acc -> (seq, batch) :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let evidence_valid t ~new_view evidence =
  let owners = Hashtbl.create 8 in
  List.for_all
    (fun (att : Thc_hardware.Trinc.attestation) ->
      Thc_hardware.Trinc.check t.world att ~id:att.owner
      &&
      match decode_proto att.message with
      | View_change { new_view = nv; log } ->
        nv = new_view
        && (not (Hashtbl.mem owners att.owner))
        && (Hashtbl.replace owners att.owner ();
            Attested_link.check_log ~world:t.world ~owner:att.owner log
            <> None)
      | Rvc _ | Prepare _ | Commit _ | New_view _ | Checkpoint _ -> false
      | exception _ -> false)
    evidence
  && Hashtbl.length owners >= t.config.f + 1

let adopt_new_view t ctx ~new_view evidence =
  let recovered = recover_from_evidence t evidence in
  t.view <- new_view;
  t.status <- Normal;
  (* Give the new view a full timeout before anyone escalates again: the
     stuck-request clocks restart at adoption. *)
  (let now = ctx.Thc_sim.Engine.now () in
   Hashtbl.filter_map_inplace (fun _ (r, _) -> Some (r, now)) t.pending);
  Hashtbl.reset t.expected;
  t.recovered_bound <-
    List.fold_left (fun acc (seq, _) -> max acc seq) 0 recovered;
  List.iter
    (fun (seq, (batch : Command.batch)) ->
      Hashtbl.replace t.expected seq (Command.batch_digest batch);
      List.iter
        (fun key -> Hashtbl.replace t.proposed_keys key seq)
        (Command.batch_keys batch))
    recovered;
  (* The new leader re-proposes everything recovered, then continues with
     fresh sequence numbers for still-pending requests (batched, drained
     immediately in deterministic key order). *)
  if t.self = leader_of t new_view then begin
    t.next_seq <- t.recovered_bound + 1;
    List.iter
      (fun (seq, batch) ->
        seal_and_send t ctx (Prepare { view = new_view; seq; batch }))
      recovered;
    let unproposed =
      Hashtbl.fold
        (fun key (request, _) acc ->
          if Hashtbl.mem t.proposed_keys key then acc
          else (key, request) :: acc)
        t.pending []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (key, sr) ->
        if not (Hashtbl.mem t.queued key) then begin
          Hashtbl.replace t.queued key ();
          Queue.push sr t.queue
        end)
      unproposed;
    flush_queue t ctx ~force:true
  end

let handle_proto t (ctx : msg Thc_sim.Engine.ctx) ~owner (p : proto) =
  match p with
  | Prepare { view; seq; batch } -> handle_prepare t ctx ~owner ~view ~seq ~batch
  | Commit { view; seq; batch } ->
    if Command.batch_valid t.keyring batch then
      record_commit t ctx ~view ~seq ~batch ~voter:owner
  | Rvc { new_view } ->
    if new_view > t.view then begin
      let tbl = rvc_supporters t new_view in
      Hashtbl.replace tbl owner ();
      (* Join a view-change attempt ahead of our own: keeps escalation
         targets aligned across replicas. *)
      if owner <> t.self && new_view > t.max_rvc_sent then begin
        t.max_rvc_sent <- new_view;
        seal_and_send t ctx (Rvc { new_view })
      end;
      if Hashtbl.length tbl >= t.config.f + 1 then begin
        let already_changing =
          match t.status with
          | Changing nv -> nv >= new_view
          | Normal -> false
        in
        if not already_changing then begin
          t.status <- Changing new_view;
          seal_and_send t ctx
            (View_change { new_view; log = Attested_link.Out.sent_log t.out })
        end
      end
    end
  | View_change _ | Checkpoint _ ->
    ()  (* handled with their attestations in handle_sealed *)
  | New_view { new_view; evidence } ->
    if
      owner = leader_of t new_view
      && new_view > t.view
      && evidence_valid t ~new_view evidence
    then adopt_new_view t ctx ~new_view evidence

let handle_sealed t (ctx : msg Thc_sim.Engine.ctx)
    (att : Thc_hardware.Trinc.attestation) =
  (* Each attestation is decoded once ([None]: an undecodable payload).
     With spans live, the received one is decoded before [accept], to
     attribute the inbound verification ops (counter checks, replay/forge
     rejections) to the phase of the carried message; that decode is
     reused when [accept] releases it.  Attestations released from behind
     a gap are decoded as they come out. *)
  let decode (a : Thc_hardware.Trinc.attestation) =
    match decode_proto a.message with p -> Some p | exception _ -> None
  in
  let received = lazy (decode att) in
  let released =
    if Thc_obsv.Span.enabled ctx.spans then begin
      let phase, rids =
        match Lazy.force received with
        | Some p -> span_phase_of_proto p
        | None -> (Thc_obsv.Span.Other_phase, [])
      in
      Thc_obsv.Span.in_phase ctx.spans phase ~rids (fun () ->
          Attested_link.In.accept t.inbox att)
    end
    else Attested_link.In.accept t.inbox att
  in
  List.iter
    (fun (a : Thc_hardware.Trinc.attestation) ->
      (* View_change needs the attestation itself (evidence); everything
         else is handled from the payload. *)
      (match if a == att then Lazy.force received else decode a with
      | Some (View_change { new_view; log }) ->
        if
          t.self = leader_of t new_view
          && new_view > t.view
          && Attested_link.check_log ~world:t.world ~owner:a.owner log <> None
        then begin
          let tbl =
            match Hashtbl.find_opt t.vc_evidence new_view with
            | Some tbl -> tbl
            | None ->
              let tbl = Hashtbl.create 8 in
              Hashtbl.add t.vc_evidence new_view tbl;
              tbl
          in
          Hashtbl.replace tbl a.owner a;
          if Hashtbl.length tbl >= t.config.f + 1 then begin
            let evidence = Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] in
            seal_and_send t ctx (New_view { new_view; evidence });
            adopt_new_view t ctx ~new_view evidence
          end
        end
      | Some (Checkpoint { upto; digest; exec_count }) ->
        (* Like View_change, a Checkpoint is consumed together with its
           attestation: the attestation itself is the certificate share. *)
        note_ckpt_vote t ctx ~att:a ~upto ~digest ~exec_count
      | Some ((Prepare _ | Commit _ | Rvc _ | New_view _) as p) ->
        handle_proto t ctx ~owner:a.owner p
      | None -> ()))
    released

let handle_request t (ctx : msg Thc_sim.Engine.ctx) sr =
  (* While awaiting state transfer we cannot serve or even track requests:
     a stuck pending set would escalate view changes we can't help with.
     Clients retransmit; the f+1 up-to-date replicas carry the service. *)
  if (not t.awaiting_fetch) && Command.valid t.keyring sr then begin
    let key = Command.key sr.Thc_crypto.Signature.value in
    if not (Hashtbl.mem t.executed key) then begin
      if not (Hashtbl.mem t.pending key) then
        Hashtbl.replace t.pending key (sr, ctx.now ());
      if
        t.self = leader_of t t.view
        && t.status = Normal
        && not (Hashtbl.mem t.proposed_keys key)
      then begin
        if Thc_obsv.Span.enabled ctx.spans then
          Thc_obsv.Span.mark ctx.spans ~client:sr.value.client
            ~rid:sr.value.rid Thc_obsv.Span.Ingress ~at:(ctx.now ());
        enqueue_request t ctx sr
      end
    end
    else
      (* Already executed: re-reply (client retransmission). *)
      match Hashtbl.find_opt t.executed key with
      | Some result ->
        ctx.send sr.value.client
          (Reply { replica = t.self; rid = sr.value.rid; result })
      | None -> ()
  end

let handle_check t (ctx : msg Thc_sim.Engine.ctx) =
  let now = ctx.now () in
  let stuck =
    (not t.awaiting_fetch)
    && Hashtbl.fold
         (fun _ (_, since) acc ->
           acc || Int64.sub now since > t.config.request_timeout)
         t.pending false
  in
  (if stuck then
     (* Escalate at most once per request_timeout, so a slow view change is
        given time to complete before the target moves again. *)
     let fresh_attempt = t.max_rvc_sent <= t.view in
     let timed_out =
       Int64.sub now t.last_rvc_at > t.config.request_timeout
     in
     if fresh_attempt || timed_out then begin
       let target = max t.view t.max_rvc_sent + 1 in
       t.max_rvc_sent <- target;
       t.last_rvc_at <- now;
       seal_and_send t ctx (Rvc { new_view = target })
     end);
  ctx.set_timer ~delay:t.config.check_interval ~tag:check_timer_tag

let replica ?restart_at t : msg Thc_sim.Engine.behavior =
  {
    init =
      (fun ctx ->
        ctx.set_timer ~delay:t.config.check_interval ~tag:check_timer_tag;
        match restart_at with
        | Some delay -> ctx.set_timer ~delay ~tag:restart_timer_tag
        | None -> ());
    on_message =
      (fun ctx ~src m ->
        match m with
        | Request sr -> handle_request t ctx sr
        | Sealed att -> handle_sealed t ctx att
        | Reply _ -> ()
        | Fetch { have } -> handle_fetch t ctx ~src ~have
        | Snapshot s -> handle_snapshot t ctx ~src s);
    on_timer =
      (fun ctx tag ->
        if tag = check_timer_tag then handle_check t ctx
        else if tag = batch_timer_tag then begin
          t.batch_armed <- false;
          if t.self = leader_of t t.view && t.status = Normal then
            flush_queue t ctx ~force:true
        end
        else if tag = restart_timer_tag then restart t ctx
        else if tag = fetch_timer_tag && t.awaiting_fetch then begin
          ctx.others (Fetch { have = stable_upto t });
          ctx.set_timer ~delay:fetch_retry_delay ~tag:fetch_timer_tag
        end);
  }

let client ~rid_base ~config ~keyring:_ ~ident ~plan :
    msg Thc_sim.Engine.behavior =
  Client_core.behavior ~rid_base ~n_replicas:config.n ~quorum:(config.f + 1)
    ~ident ~plan
    ~wrap:(fun sr -> Request sr)
    ~unwrap:(function
      | Reply r -> Some r
      | Request _ | Sealed _ | Fetch _ | Snapshot _ -> None)

let wrap_request sr = Request sr

let unwrap_reply = function
  | Reply r -> Some r
  | Request _ | Sealed _ | Fetch _ | Snapshot _ -> None

let adversarial_prepare ~out ~view ~seq ~request =
  Sealed
    (Attested_link.Out.seal out
       (encode_proto (Prepare { view; seq; batch = [ request ] })))

let rewound_prepare ~out ~view ~seq ~request =
  Option.map
    (fun a -> Sealed a)
    (Attested_link.Out.rewind out
       (encode_proto (Prepare { view; seq; batch = [ request ] })))

let rewound_checkpoint ~out ~upto ~digest ~exec_count =
  Attested_link.Out.rewind out
    (encode_proto (Checkpoint { upto; digest; exec_count }))

let classify_msg = function
  | Request _ -> "request"
  | Reply _ -> "reply"
  | Fetch _ -> "fetch"
  | Snapshot _ -> "snapshot"
  | Sealed a ->
    (match decode_proto a.message with
    | Prepare _ -> "prepare"
    | Commit _ -> "commit"
    | Rvc _ -> "req-view-change"
    | View_change _ -> "view-change"
    | New_view _ -> "new-view"
    | Checkpoint _ -> "checkpoint"
    | exception _ -> "garbage")

let adversarial_wire a = Sealed a

let adversarial_view_change ~out ~new_view ~log =
  Sealed (Attested_link.Out.seal out (encode_proto (View_change { new_view; log })))

let attack_out t = t.out

let attestation_of = function
  | Sealed a -> Some a
  | Request _ | Reply _ | Fetch _ | Snapshot _ -> None

(* --- durability accessors and attack-rig helpers ----------------------- *)

let durability t =
  {
    Durability.live = Hashtbl.length t.committed;
    hwm = t.log_hwm;
    stable_upto = stable_upto t;
    truncations = t.truncations;
  }

let snapshot_of_stable (c : stable_ckpt) ~suffix =
  match c.c_state with
  | None -> None
  | Some state ->
    Some
      (Snapshot
         {
           s_upto = c.c_upto;
           s_digest = c.c_digest;
           s_exec_count = c.c_exec_count;
           s_cert = c.c_cert;
           s_state = state;
           s_suffix = suffix;
         })

let stable_snapshot ?(suffix = []) t = match t.stable with
  | Some c -> snapshot_of_stable c ~suffix
  | None -> None

(* The previous stable checkpoint with its genuine certificate — exactly
   what a stale-state-transfer attacker replays at a joiner. *)
let stale_snapshot t = match t.prev_stable with
  | Some c -> snapshot_of_stable c ~suffix:[]
  | None -> None

(* Arbitrary snapshot assembly for forged-certificate rigs: the payload is
   whatever the attacker claims; only the joiner's verification stands
   between it and installation. *)
let adversarial_snapshot ~upto ~digest ~exec_count ~cert ~state ~suffix =
  Snapshot
    {
      s_upto = upto;
      s_digest = digest;
      s_exec_count = exec_count;
      s_cert = cert;
      s_state = state;
      s_suffix = suffix;
    }

let snapshot_cert = function
  | Snapshot s -> Some s.s_cert
  | Request _ | Sealed _ | Reply _ | Fetch _ -> None
