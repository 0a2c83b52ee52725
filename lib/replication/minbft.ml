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

module C = Replica_core

let restart_timer_tag = 1_000_002

let fetch_timer_tag = 1_000_003

let fetch_retry_delay = 20_000L

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

(* A sealed payload as the replicas of a cluster read it: decoded, with
   its batch's digest for a Prepare or Commit ([0L] otherwise).  [proto]
   is [None] for bytes that do not decode. *)
type payload = { message : string; proto : proto option; digest : int64 }

(* One trinket's payloads, slot [c] holding counter [c]'s. *)
type stream = { mutable slots : payload array }

type t = {
  config : config;
  keyring : Thc_crypto.Keyring.t;
  world : Thc_hardware.Trinc.world;
  payloads : stream array;  (* by owner; shared by the cluster's replicas *)
  self : int;
  out : Attested_link.Out.t;
  inbox : Attested_link.In.t;
  core : msg C.t;
  proposals : (int, Command.batch * int64) Hashtbl.t;
      (* seq -> accepted proposal and its batch digest *)
  votes : (int * int * int64, (int, unit) Hashtbl.t) Hashtbl.t;
      (* (view, seq, batch digest) -> voters *)
  commit_sent : (int * int, unit) Hashtbl.t;  (* (view, seq) voted already *)
  committed : (int, Command.batch * int64) Hashtbl.t;
      (* seq -> committed batch and its digest *)
  rvc_votes : (int, (int, unit) Hashtbl.t) Hashtbl.t;  (* new_view -> supporters *)
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

let vacant =
  { message = String.make 1 '\000'; proto = None; digest = 0L }

(* Replicas built over one TrInc world share one payload table: the first
   replica of another world starts a fresh one.  The domain holds the
   latest world and table only weakly (two weak slots made once, so a
   cluster allocates no ephemeron), so a table dies with its cluster and
   no later run can hit it. *)
let cluster_payloads =
  Domain.DLS.new_key (fun () -> (Weak.create 1, Weak.create 1))

let payloads_of world ~n =
  let worlds, tables = Domain.DLS.get cluster_payloads in
  match (Weak.get worlds 0, Weak.get tables 0) with
  | Some w, Some payloads when w == world -> payloads
  | _ ->
    let payloads = Array.init n (fun _ -> { slots = Array.make 16 vacant }) in
    Weak.set worlds 0 (Some world);
    Weak.set tables 0 (Some payloads);
    payloads

let create_replica ~config ~keyring ~world ~trinket ~self =
  if config.n <> (2 * config.f) + 1 then
    invalid_arg "Minbft: config requires n = 2f + 1";
  {
    config;
    keyring;
    world;
    payloads = payloads_of world ~n:config.n;
    self;
    out = Attested_link.Out.create trinket;
    inbox = Attested_link.In.create ~world ~n:config.n;
    core =
      C.create ~self ~n:config.n ~keyring
        ~request_timeout:config.request_timeout
        ~check_interval:config.check_interval ~batch_size:config.batch_size
        ~batch_delay:config.batch_delay ~reply:(fun r -> Reply r);
    proposals = Hashtbl.create 64;
    votes = Hashtbl.create 64;
    commit_sent = Hashtbl.create 64;
    committed = Hashtbl.create 64;
    rvc_votes = Hashtbl.create 8;
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

let view_of t = t.core.view

let executed_upto t = t.core.exec_upto

let store_digest t = Kv_store.digest t.core.store

let encode_proto (p : proto) = Thc_util.Codec.encode p

let decode_proto s = (Thc_util.Codec.decode s : proto)

(* Every replica receives the same sealed attestation, so a domain keeps
   one table of decoded payloads, keyed by attestation tag and message.  A
   hit needs the very message string ([==]): strings are immutable, so
   decoding it again would give an equal proto.  [vacant] is a string no
   attestation carries. *)
let decoded =
  Domain.DLS.new_key (fun () ->
      Thc_util.Identity_table.create ~vacant:(String.make 1 '\000')
        (Rvc { new_view = 0 }))

(* [None]: an undecodable payload. *)
let decode_sealed (a : Thc_hardware.Trinc.attestation) =
  let table = Domain.DLS.get decoded in
  let i = Thc_util.Identity_table.find table ~tag:a.tag a.message in
  if i >= 0 then Some (Thc_util.Identity_table.value table i)
  else
    match decode_proto a.message with
    | p ->
      Thc_util.Identity_table.add table ~tag:a.tag a.message p;
      Some p
    | exception _ -> None

let payload_of_proto message proto =
  let digest =
    match proto with
    | Some (Prepare { batch; _ } | Commit { batch; _ }) ->
      Command.batch_digest batch
    | Some (Rvc _ | View_change _ | New_view _ | Checkpoint _) | None -> 0L
  in
  { message; proto; digest }

(* Store [p] at its attestation's slot: a seal ([own]) overwrites, a
   decode fills only a vacant slot.  Counters far past a stream's end
   (none of a correct replica's) are not stored. *)
let remember t (a : Thc_hardware.Trinc.attestation) p ~own =
  if a.owner >= 0 && a.owner < Array.length t.payloads && a.counter >= 0 then begin
    let s = t.payloads.(a.owner) in
    let len = Array.length s.slots in
    if a.counter >= len && a.counter < 2 * len then begin
      let grown = Array.make (2 * len) vacant in
      Array.blit s.slots 0 grown 0 len;
      s.slots <- grown
    end;
    if a.counter < Array.length s.slots && (own || s.slots.(a.counter) == vacant)
    then s.slots.(a.counter) <- p
  end

(* [a]'s payload, decoded and digested once per cluster: the sealer stored
   its own, and a miss (a payload sealed outside [seal_and_send], or
   another message under a used counter) decodes through {!decode_sealed}.
   A hit needs the stored message to equal [a.message] ([==] first), so it
   is what a fresh decode would give. *)
let payload t (a : Thc_hardware.Trinc.attestation) =
  let stored =
    if a.owner >= 0 && a.owner < Array.length t.payloads && a.counter >= 0 then
      let slots = t.payloads.(a.owner).slots in
      if a.counter < Array.length slots then slots.(a.counter) else vacant
    else vacant
  in
  if stored != vacant && String.equal stored.message a.message then stored
  else begin
    let p = payload_of_proto a.message (decode_sealed a) in
    remember t a p ~own:false;
    p
  end

(* Which span phase a sealed protocol message belongs to, and on behalf of
   which requests — used to attribute the trusted ops the seal/accept
   charges (attest on the way out, counter checks on the way in). *)
let span_phase_of_proto = function
  | Prepare { batch; _ } -> (Thc_obsv.Span.Prepare_phase, C.batch_rids batch)
  | Commit { batch; _ } -> (Thc_obsv.Span.Commit_phase, C.batch_rids batch)
  | Rvc _ | View_change _ | New_view _ | Checkpoint _ ->
    (Thc_obsv.Span.Other_phase, [])

(* The sealer's own [p] goes into the payload table with [digest] (its
   batch's, for a Prepare or Commit), so every receiver reads it and their
   batches hold the clients' signed requests.  It goes into the domain's
   decode table too, for {!classify_msg}. *)
let seal_and_send t (ctx : msg Thc_sim.Engine.ctx) ~digest p =
  let a =
    if Thc_obsv.Span.enabled ctx.spans then begin
      let phase, rids = span_phase_of_proto p in
      Thc_obsv.Span.in_phase ctx.spans phase ~rids (fun () ->
          Attested_link.Out.seal t.out (encode_proto p))
    end
    else Attested_link.Out.seal t.out (encode_proto p)
  in
  Thc_util.Identity_table.add (Domain.DLS.get decoded) ~tag:a.tag a.message p;
  remember t a { message = a.message; proto = Some p; digest } ~own:true;
  ctx.broadcast (Sealed a)

(* --- durability: checkpoints, truncation, state transfer --------------- *)

let stable_upto t = match t.stable with Some c -> c.c_upto | None -> 0

(* Drop consensus-log state for slots covered by the stable checkpoint (and
   already executed locally).  This is the compaction that keeps a
   long-lived replica's memory bounded by the checkpoint interval. *)
let truncate_log t =
  match t.stable with
  | None -> ()
  | Some c ->
    let bound = min c.c_upto t.core.exec_upto in
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
    let tbl = C.table t.ckpt_votes (upto, digest, exec_count) 8 in
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
        && upto - t.core.exec_upto >= 2 * t.config.checkpoint_interval
        && not (Hashtbl.mem t.committed (t.core.exec_upto + 1))
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
  let upto = t.core.exec_upto in
  if ival > 0 && upto mod ival = 0 && upto > t.last_ckpt then begin
    t.last_ckpt <- upto;
    Hashtbl.replace t.own_snaps upto (Kv_store.snapshot t.core.store);
    seal_and_send t ctx ~digest:0L
      (Checkpoint
         {
           upto;
           digest = Kv_store.digest t.core.store;
           exec_count = t.core.exec_count;
         })
  end

let rec try_execute t (ctx : msg Thc_sim.Engine.ctx) =
  (* A restarted replica's store is behind its commit log until a verified
     snapshot installs; executing meanwhile would emit divergent results.
     Commits still accumulate — installation drains them. *)
  if t.awaiting_fetch then ()
  else
  match Hashtbl.find_opt t.committed (t.core.exec_upto + 1) with
  | None -> ()
  | Some (batch, _) ->
    C.execute_slot t.core ctx batch;
    maybe_checkpoint t ctx;
    try_execute t ctx

let record_commit t (ctx : msg Thc_sim.Engine.ctx) ~view ~seq
    ~(batch : Command.batch) ~digest ~voter =
  let tbl = C.table t.votes (view, seq, digest) 8 in
  Hashtbl.replace tbl voter ();
  if
    Hashtbl.length tbl >= t.config.f + 1
    && not (Hashtbl.mem t.committed seq)
  then begin
    Hashtbl.replace t.committed seq (batch, digest);
    t.log_hwm <- max t.log_hwm (Hashtbl.length t.committed);
    C.output_committed ctx ~view ~seq batch;
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
          (fun seq (batch, _) acc ->
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
          match (payload t att).proto with
          | Some (Checkpoint { upto; digest; exec_count }) ->
            Some { Durability.owner = att.owner; upto; digest; exec_count }
          | Some (Prepare _ | Commit _ | Rvc _ | View_change _ | New_view _)
          | None ->
            None
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
        let tbl = C.table t.suffix_votes (seq, digest) 4 in
        (* A vote set is empty only as it is created. *)
        if Hashtbl.length tbl = 0 then
          Hashtbl.replace t.suffix_batches (seq, digest) batch;
        Hashtbl.replace tbl donor ();
        if
          Hashtbl.length tbl >= t.config.f + 1
          && not (Hashtbl.mem t.committed seq)
        then begin
          Hashtbl.replace t.committed seq (batch, digest);
          t.log_hwm <- max t.log_hwm (Hashtbl.length t.committed)
        end
      end)
    s.s_suffix;
  try_execute t ctx

let install_snapshot t (ctx : msg Thc_sim.Engine.ctx) ~donor (s : snapshot) =
  Kv_store.reset_to t.core.store s.s_state;
  t.core.exec_upto <- s.s_upto;
  t.core.exec_count <- s.s_exec_count;
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
  C.reset t.core;
  Hashtbl.reset t.rvc_votes;
  Hashtbl.reset t.vc_evidence;
  Hashtbl.reset t.expected;
  Hashtbl.reset t.ckpt_votes;
  Hashtbl.reset t.own_snaps;
  Hashtbl.reset t.suffix_votes;
  Hashtbl.reset t.suffix_batches;
  t.recovered_bound <- 0;
  t.truncated_upto <- 0;
  t.last_ckpt <- 0;
  t.stable <-
    (match t.stable with
    | Some c -> Some { c with c_state = None }
    | None -> None);
  t.prev_stable <- None;
  t.awaiting_fetch <- true;
  ctx.others (Fetch { have = stable_upto t });
  ctx.set_timer ~delay:fetch_retry_delay ~tag:fetch_timer_tag

(* A replica votes for a proposal (whose batch has [digest]) unless it
   contradicts what it committed or what the latest view change
   recovered. *)
let proposal_acceptable t ~seq ~digest =
  (match Hashtbl.find_opt t.committed seq with
  | Some (_, d) -> d = digest
  | None -> true)
  && (seq > t.recovered_bound
     ||
     match Hashtbl.find_opt t.expected seq with
     | Some d -> d = digest
     | None -> false)

let handle_prepare t (ctx : msg Thc_sim.Engine.ctx) ~owner ~view ~seq ~batch
    ~digest =
  if
    owner = C.leader_of t.core view
    && view = t.core.view
    && t.core.status = C.Normal
    && Command.batch_valid t.keyring batch
  then begin
    if proposal_acceptable t ~seq ~digest then begin
      Hashtbl.replace t.proposals seq (batch, digest);
      C.mark_proposed t.core seq batch;
      record_commit t ctx ~view ~seq ~batch ~digest ~voter:owner;
      if t.self <> owner && not (Hashtbl.mem t.commit_sent (view, seq)) then begin
        Hashtbl.replace t.commit_sent (view, seq) ();
        if Thc_obsv.Span.enabled ctx.spans then
          Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(C.batch_rids batch)
            Thc_obsv.Span.Commit_send ~at:(ctx.now ());
        seal_and_send t ctx ~digest (Commit { view; seq; batch })
      end
    end
  end

(* --- leader batching --------------------------------------------------- *)

let propose_batch t (ctx : msg Thc_sim.Engine.ctx) (batch : Command.batch) =
  let seq = C.next_slot t.core batch in
  if Thc_obsv.Span.enabled ctx.spans then
    Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(C.batch_rids batch)
      Thc_obsv.Span.Propose ~at:(ctx.now ());
  seal_and_send t ctx ~digest:(Command.batch_digest batch)
    (Prepare { view = t.core.view; seq; batch })

let flush_queue t ctx ~force = C.flush t.core ctx ~force propose_batch t

(* --- view change ------------------------------------------------------- *)

(* Deterministic recovery from view-change evidence: for every sequence
   number, adopt the batch carried by the highest-view Prepare/Commit
   found in any of the validated logs, with its digest. *)
let recover_from_evidence t evidence =
  let best : (int, int * payload) Hashtbl.t = Hashtbl.create 32 in
  let consider ~view ~seq entry =
    match Hashtbl.find_opt best seq with
    | Some (v, _) when v >= view -> ()
    | Some _ | None -> Hashtbl.replace best seq (view, entry)
  in
  List.iter
    (fun (att : Thc_hardware.Trinc.attestation) ->
      match (payload t att).proto with
      | Some (View_change { log; _ }) ->
        (* [check_log]'s payloads are the log entries' messages, read here
           through their attestations. *)
        if Attested_link.check_log ~world:t.world ~owner:att.owner log <> None
        then
          List.iter
            (fun entry ->
              let p = payload t entry in
              match p.proto with
              | Some (Prepare { view; seq; _ }) ->
                (* A Prepare is leader evidence only from that view's leader. *)
                if att.owner = C.leader_of t.core view then consider ~view ~seq p
              | Some (Commit { view; seq; _ }) -> consider ~view ~seq p
              | Some (Rvc _ | View_change _ | New_view _ | Checkpoint _)
              | None ->
                ())
            log
      | Some (Rvc _ | Prepare _ | Commit _ | New_view _ | Checkpoint _) | None
        ->
        ())
    evidence;
  Hashtbl.fold
    (fun seq (_, p) acc ->
      match p.proto with
      | Some (Prepare { batch; _ } | Commit { batch; _ }) ->
        (seq, batch, p.digest) :: acc
      | Some (Rvc _ | View_change _ | New_view _ | Checkpoint _) | None -> acc)
    best []
  |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)

let evidence_valid t ~new_view evidence =
  let owners = Hashtbl.create 8 in
  List.for_all
    (fun (att : Thc_hardware.Trinc.attestation) ->
      Thc_hardware.Trinc.check t.world att ~id:att.owner
      &&
      match (payload t att).proto with
      | Some (View_change { new_view = nv; log }) ->
        nv = new_view
        && (not (Hashtbl.mem owners att.owner))
        && (Hashtbl.replace owners att.owner ();
            Attested_link.check_log ~world:t.world ~owner:att.owner log
            <> None)
      | Some (Rvc _ | Prepare _ | Commit _ | New_view _ | Checkpoint _) | None
        ->
        false)
    evidence
  && Hashtbl.length owners >= t.config.f + 1

let adopt_new_view t ctx ~new_view evidence =
  let recovered = recover_from_evidence t evidence in
  C.enter_view t.core ctx ~view:new_view;
  Hashtbl.reset t.expected;
  t.recovered_bound <-
    List.fold_left (fun acc (seq, _, _) -> max acc seq) 0 recovered;
  List.iter
    (fun (seq, batch, digest) ->
      Hashtbl.replace t.expected seq digest;
      C.mark_proposed t.core seq batch)
    recovered;
  (* The new leader re-proposes everything recovered, then continues with
     fresh sequence numbers for still-pending requests (batched, drained
     immediately in deterministic key order). *)
  if t.self = C.leader_of t.core new_view then begin
    t.core.next_seq <- t.recovered_bound + 1;
    List.iter
      (fun (seq, batch, digest) ->
        seal_and_send t ctx ~digest (Prepare { view = new_view; seq; batch }))
      recovered;
    C.requeue_pending t.core;
    flush_queue t ctx ~force:true
  end

let handle_proto t (ctx : msg Thc_sim.Engine.ctx) ~owner ~digest (p : proto) =
  match p with
  | Prepare { view; seq; batch } ->
    handle_prepare t ctx ~owner ~view ~seq ~batch ~digest
  | Commit { view; seq; batch } ->
    if Command.batch_valid t.keyring batch then
      record_commit t ctx ~view ~seq ~batch ~digest ~voter:owner
  | Rvc { new_view } ->
    if new_view > t.core.view then begin
      let tbl = C.table t.rvc_votes new_view 8 in
      Hashtbl.replace tbl owner ();
      (* Join a view-change attempt ahead of our own: keeps escalation
         targets aligned across replicas. *)
      if owner <> t.self && new_view > t.core.max_vc_sent then begin
        t.core.max_vc_sent <- new_view;
        seal_and_send t ctx ~digest:0L (Rvc { new_view })
      end;
      if
        Hashtbl.length tbl >= t.config.f + 1 && C.start_change t.core new_view
      then
        seal_and_send t ctx ~digest:0L
          (View_change { new_view; log = Attested_link.Out.sent_log t.out })
    end
  | View_change _ | Checkpoint _ ->
    ()  (* handled with their attestations in handle_sealed *)
  | New_view { new_view; evidence } ->
    if
      owner = C.leader_of t.core new_view
      && new_view > t.core.view
      && evidence_valid t ~new_view evidence
    then adopt_new_view t ctx ~new_view evidence

let handle_sealed t (ctx : msg Thc_sim.Engine.ctx)
    (att : Thc_hardware.Trinc.attestation) =
  (* With spans live, the received attestation's payload is read before
     [accept], to attribute the inbound verification ops (counter checks,
     replay/forge rejections) to the phase of the carried message.  Every
     released attestation is read through the payload table, so that read
     is paid once. *)
  let released =
    if Thc_obsv.Span.enabled ctx.spans then begin
      let phase, rids =
        match (payload t att).proto with
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
      let p = payload t a in
      match p.proto with
      | Some (View_change { new_view; log }) ->
        if
          t.self = C.leader_of t.core new_view
          && new_view > t.core.view
          && Attested_link.check_log ~world:t.world ~owner:a.owner log <> None
        then begin
          let tbl = C.table t.vc_evidence new_view 8 in
          Hashtbl.replace tbl a.owner a;
          if Hashtbl.length tbl >= t.config.f + 1 then begin
            let evidence = Hashtbl.fold (fun _ e acc -> e :: acc) tbl [] in
            seal_and_send t ctx ~digest:0L (New_view { new_view; evidence });
            adopt_new_view t ctx ~new_view evidence
          end
        end
      | Some (Checkpoint { upto; digest; exec_count }) ->
        (* Like View_change, a Checkpoint is consumed together with its
           attestation: the attestation itself is the certificate share. *)
        note_ckpt_vote t ctx ~att:a ~upto ~digest ~exec_count
      | Some ((Prepare _ | Commit _ | Rvc _ | New_view _) as proto) ->
        handle_proto t ctx ~owner:a.owner ~digest:p.digest proto
      | None -> ())
    released

let handle_request t (ctx : msg Thc_sim.Engine.ctx) sr =
  (* While awaiting state transfer we cannot serve or even track requests:
     a stuck pending set would escalate view changes we can't help with.
     Clients retransmit; the f+1 up-to-date replicas carry the service. *)
  if (not t.awaiting_fetch) && C.intake t.core ctx sr then begin
    flush_queue t ctx ~force:false;
    C.arm_batch_timer t.core ctx
  end

let handle_check t (ctx : msg Thc_sim.Engine.ctx) =
  (if not t.awaiting_fetch then
     let new_view = C.escalation t.core ~now:(ctx.now ()) in
     if new_view > 0 then seal_and_send t ctx ~digest:0L (Rvc { new_view }));
  C.arm_check_timer t.core ctx

let replica ?restart_at t : msg Thc_sim.Engine.behavior =
  {
    init =
      (fun ctx ->
        C.arm_check_timer t.core ctx;
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
        if tag = C.check_timer_tag then handle_check t ctx
        else if tag = C.batch_timer_tag then begin
          if C.batch_timer_fired t.core then flush_queue t ctx ~force:true
        end
        else if tag = restart_timer_tag then restart t ctx
        else if tag = fetch_timer_tag && t.awaiting_fetch then begin
          ctx.others (Fetch { have = stable_upto t });
          ctx.set_timer ~delay:fetch_retry_delay ~tag:fetch_timer_tag
        end);
  }

let wrap_request sr = Request sr

let unwrap_reply = function
  | Reply r -> Some r
  | Request _ | Sealed _ | Fetch _ | Snapshot _ -> None

let client ~rid_base ~config ~keyring:_ ~ident ~plan :
    msg Thc_sim.Engine.behavior =
  Client_core.behavior ~rid_base ~n_replicas:config.n ~quorum:(config.f + 1)
    ~ident ~plan ~wrap:wrap_request ~unwrap:unwrap_reply

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
    (match decode_sealed a with
    | Some (Prepare _) -> "prepare"
    | Some (Commit _) -> "commit"
    | Some (Rvc _) -> "req-view-change"
    | Some (View_change _) -> "view-change"
    | Some (New_view _) -> "new-view"
    | Some (Checkpoint _) -> "checkpoint"
    | None -> "garbage")

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
