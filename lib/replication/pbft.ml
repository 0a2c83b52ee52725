type config = {
  n : int;
  f : int;
  request_timeout : int64;
  check_interval : int64;
  batch_size : int;
  batch_delay : int64;
}

let default_config ~f =
  {
    n = (3 * f) + 1;
    f;
    request_timeout = 30_000L;
    check_interval = 10_000L;
    batch_size = 1;
    batch_delay = 2_000L;
  }

type cert = {
  cview : int;
  cseq : int;
  cbatch : Command.batch;
  preprepare_sig : Thc_crypto.Signature.t;
  prepares : Thc_crypto.Signature.t list;  (* over ("prepare", view, seq, digest) *)
}

(* Proof that a batch actually committed: 2f+1 signatures over the Commit
   proto value.  Shipped in view changes so a new leader can neither reuse
   a committed sequence number nor lose a committed batch. *)
type final_cert = {
  fview : int;
  fseq : int;
  fbatch : Command.batch;
  commits : Thc_crypto.Signature.t list;
}

type proto =
  | Pre_prepare of { view : int; seq : int; batch : Command.batch }
  | Prepare of { view : int; seq : int; digest : int64 }
  | Commit of { view : int; seq : int; digest : int64 }
  | View_change of { new_view : int; certs : cert list; finals : final_cert list }
  | New_view of { new_view : int; view_changes : wire list }

and wire = proto Thc_crypto.Signature.signed

type msg =
  | Request of Command.signed_request
  | Signed of wire
  | Reply of Command.reply

let pp_proto ppf = function
  | Pre_prepare { view; seq; batch } ->
    Format.fprintf ppf "pre-prepare(v%d,s%d,%a)" view seq Command.pp_batch
      batch
  | Prepare { view; seq; _ } -> Format.fprintf ppf "prepare(v%d,s%d)" view seq
  | Commit { view; seq; _ } -> Format.fprintf ppf "commit(v%d,s%d)" view seq
  | View_change { new_view; certs; finals } ->
    Format.fprintf ppf "view-change(v%d,%d certs,%d finals)" new_view
      (List.length certs) (List.length finals)
  | New_view { new_view; view_changes } ->
    Format.fprintf ppf "new-view(v%d,%d vcs)" new_view (List.length view_changes)

let pp_msg ppf = function
  | Request sr -> Format.fprintf ppf "request(%a)" Command.pp sr.value
  | Signed w ->
    Format.fprintf ppf "signed(p%d,%a)" w.signature.signer pp_proto w.value
  | Reply r -> Format.fprintf ppf "reply(p%d,#%d)" r.replica r.rid

module C = Replica_core
module K = Thc_util.Keyed

type t = {
  config : config;
  keyring : Thc_crypto.Keyring.t;
  ident : Thc_crypto.Keyring.secret;
  self : int;
  core : msg C.t;
  preprepares : (Command.batch * int64 * Thc_crypto.Signature.t) K.Pair.t;
      (* (view, seq) -> first pre-prepare, its batch digest and the
         leader's signature *)
  prepare_votes : Thc_crypto.Signature.t K.Hash_order.Int.t K.Triple.t;
  commit_votes : Thc_crypto.Signature.t K.Hash_order.Int.t K.Triple.t;
      (* Vote sets until their slot prepares (commits): the certificate
         then holds the signatures, in the set's hash order, and later
         votes are ignored. *)
  prepared : cert K.Hash_order.Pair.t;
  committed : Command.batch K.Int.t;
  commit_certs : final_cert K.Hash_order.Int.t;
      (* [send_view_change] folds [prepared] and [commit_certs] into its
         certificates in hash order. *)
  vc_store : (int, (int, wire) Hashtbl.t) Hashtbl.t;  (* new_view -> signer -> VC *)
  mutable recovered_bound : int;
  expected : (int, int64) Hashtbl.t;
  future_pp : (int, wire list) Hashtbl.t;
      (* Pre_prepares for views we have not adopted yet: the network does
         not order New_view before the re-proposals that follow it. *)
}

let create_replica ~config ~keyring ~ident ~self =
  if config.n <> (3 * config.f) + 1 then
    invalid_arg "Pbft: config requires n = 3f + 1";
  {
    config;
    keyring;
    ident;
    self;
    core =
      C.create ~self ~n:config.n ~keyring
        ~request_timeout:config.request_timeout
        ~check_interval:config.check_interval ~batch_size:config.batch_size
        ~batch_delay:config.batch_delay ~reply:(fun r -> Reply r);
    preprepares = K.Pair.create 64;
    prepare_votes = K.Triple.create 64;
    commit_votes = K.Triple.create 64;
    prepared = K.Hash_order.Pair.create 64;
    committed = K.Int.create 64;
    commit_certs = K.Hash_order.Int.create 64;
    vc_store = Hashtbl.create 8;
    recovered_bound = 0;
    expected = Hashtbl.create 16;
    future_pp = Hashtbl.create 8;
  }

let view_of t = t.core.view

let executed_upto t = t.core.exec_upto

let store_digest t = Kv_store.digest t.core.store

let send_signed t (ctx : msg Thc_sim.Engine.ctx) p =
  ctx.broadcast (Signed (Thc_crypto.Signature.seal t.ident p))

let rec try_execute t (ctx : msg Thc_sim.Engine.ctx) =
  match K.Int.find_opt t.committed (t.core.exec_upto + 1) with
  | None -> ()
  | Some batch ->
    C.execute_slot t.core ctx batch;
    try_execute t ctx

let vote_set tbl key =
  match K.Triple.find_opt tbl key with
  | Some votes -> votes
  | None ->
    let votes = K.Hash_order.Int.create 8 in
    K.Triple.add tbl key votes;
    votes

let signatures votes = K.Hash_order.Int.fold (fun _ s acc -> s :: acc) votes []

let try_commit t (ctx : msg Thc_sim.Engine.ctx) ~view ~seq ~digest =
  match K.Pair.find_opt t.preprepares (view, seq) with
  | Some (batch, d, _)
    when Int64.equal d digest && not (K.Int.mem t.committed seq) ->
    let key = (view, seq, digest) in
    let votes = vote_set t.commit_votes key in
    if K.Hash_order.Int.length votes >= (2 * t.config.f) + 1 then begin
      K.Int.replace t.committed seq batch;
      K.Hash_order.Int.replace t.commit_certs seq
        {
          fview = view;
          fseq = seq;
          fbatch = batch;
          commits = signatures votes;
        };
      K.Triple.remove t.commit_votes key;
      C.output_committed ctx ~view ~seq batch;
      try_execute t ctx
    end
  | Some _ | None -> ()

let try_prepare t (ctx : msg Thc_sim.Engine.ctx) ~view ~seq ~digest =
  match K.Pair.find_opt t.preprepares (view, seq) with
  | Some (batch, d, preprepare_sig)
    when Int64.equal d digest
         && not (K.Hash_order.Pair.mem t.prepared (view, seq)) ->
    let key = (view, seq, digest) in
    let votes = vote_set t.prepare_votes key in
    if K.Hash_order.Int.length votes >= 2 * t.config.f then begin
      let prepares = signatures votes in
      K.Triple.remove t.prepare_votes key;
      K.Hash_order.Pair.replace t.prepared (view, seq)
        { cview = view; cseq = seq; cbatch = batch; preprepare_sig; prepares };
      if Thc_obsv.Span.enabled ctx.spans then
        Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(C.batch_rids batch)
          Thc_obsv.Span.Commit_send ~at:(ctx.now ());
      send_signed t ctx (Commit { view; seq; digest })
    end
  | Some _ | None -> ()

let proposal_acceptable t ~seq ~digest =
  (match K.Int.find_opt t.committed seq with
  | Some b -> Command.batch_digest b = digest
  | None -> true)
  && (seq > t.recovered_bound
     ||
     match Hashtbl.find_opt t.expected seq with
     | Some d -> d = digest
     | None -> false)

(* --- leader batching ------------------------------------------------------ *)

let propose_batch t (ctx : msg Thc_sim.Engine.ctx) (batch : Command.batch) =
  let seq = C.next_slot t.core batch in
  if Thc_obsv.Span.enabled ctx.spans then
    Thc_obsv.Span.mark_all ctx.spans ~seq ~rids:(C.batch_rids batch)
      Thc_obsv.Span.Propose ~at:(ctx.now ());
  send_signed t ctx (Pre_prepare { view = t.core.view; seq; batch })

let flush_queue t ctx ~force = C.flush t.core ctx ~force propose_batch t

(* --- view change -------------------------------------------------------- *)

let cert_valid t (c : cert) =
  let digest = Command.batch_digest c.cbatch in
  Command.batch_valid t.keyring c.cbatch
  && c.preprepare_sig.signer = C.leader_of t.core c.cview
  && Thc_crypto.Signature.verify_value t.keyring c.preprepare_sig
       (Pre_prepare { view = c.cview; seq = c.cseq; batch = c.cbatch })
  &&
  let valid_prepares =
    List.filter
      (fun (s : Thc_crypto.Signature.t) ->
        s.signer <> C.leader_of t.core c.cview
        && Thc_crypto.Signature.verify_value t.keyring s
             ("prepare", c.cview, c.cseq, digest))
      c.prepares
  in
  List.length
    (List.sort_uniq compare
       (List.map (fun (s : Thc_crypto.Signature.t) -> s.signer) valid_prepares))
  >= 2 * t.config.f

let final_valid t (c : final_cert) =
  let digest = Command.batch_digest c.fbatch in
  Command.batch_valid t.keyring c.fbatch
  &&
  let valid_commits =
    List.filter
      (fun (s : Thc_crypto.Signature.t) ->
        Thc_crypto.Signature.verify_value t.keyring s
          (Commit { view = c.fview; seq = c.fseq; digest }))
      c.commits
  in
  List.length
    (List.sort_uniq compare
       (List.map (fun (s : Thc_crypto.Signature.t) -> s.signer) valid_commits))
  >= (2 * t.config.f) + 1

let vc_valid t ~new_view (w : wire) =
  Thc_crypto.Signature.sealed_ok t.keyring w
  &&
  match w.value with
  | View_change { new_view = nv; certs; finals } ->
    nv = new_view
    && List.for_all (cert_valid t) certs
    && List.for_all (final_valid t) finals
  | Pre_prepare _ | Prepare _ | Commit _ | New_view _ -> false

let recover_from_vcs view_changes =
  let best : (int, int * Command.batch) Hashtbl.t = Hashtbl.create 32 in
  let consider ~view ~seq ~batch =
    match Hashtbl.find_opt best seq with
    | Some (v, _) when v >= view -> ()
    | Some _ | None -> Hashtbl.replace best seq (view, batch)
  in
  List.iter
    (fun (w : wire) ->
      match w.value with
      | View_change { certs; finals; _ } ->
        List.iter
          (fun c -> consider ~view:c.cview ~seq:c.cseq ~batch:c.cbatch)
          certs;
        (* Commit proofs are final: they outrank any prepared cert. *)
        List.iter
          (fun c -> consider ~view:max_int ~seq:c.fseq ~batch:c.fbatch)
          finals
      | Pre_prepare _ | Prepare _ | Commit _ | New_view _ -> ())
    view_changes;
  Hashtbl.fold (fun seq (_, batch) acc -> (seq, batch) :: acc) best []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Forward reference: adopting a view replays buffered wires through the
   full dispatcher, which is defined below. *)
let handle_wire_ref : (t -> msg Thc_sim.Engine.ctx -> wire -> unit) ref =
  ref (fun _ _ _ -> ())

(* Prepared certificates need not cover a contiguous prefix: a replica can
   prepare seq s+1 without s.  The classic remedy is to fill recovery gaps
   with no-ops so execution cannot stall.  The no-op request is a pure
   function of (new_view, seq), so every replica computes the same expected
   digest and only the new leader's signed instance can pass validation. *)
let noop_request_value t ~new_view ~seq : Command.request =
  {
    client = C.leader_of t.core new_view;
    rid = -seq;
    op = Kv_store.encode_op (Kv_store.Get "__noop");
  }

let adopt_new_view t ctx ~new_view view_changes =
  let recovered = recover_from_vcs view_changes in
  C.enter_view t.core ctx ~view:new_view;
  Hashtbl.reset t.expected;
  t.recovered_bound <-
    List.fold_left (fun acc (seq, _) -> max acc seq) 0 recovered;
  List.iter
    (fun (seq, (batch : Command.batch)) ->
      Hashtbl.replace t.expected seq (Command.batch_digest batch);
      C.mark_proposed t.core seq batch)
    recovered;
  let gaps =
    List.filter
      (fun seq -> seq > t.core.exec_upto && not (Hashtbl.mem t.expected seq))
      (List.init t.recovered_bound (fun i -> i + 1))
  in
  List.iter
    (fun seq ->
      Hashtbl.replace t.expected seq
        (Command.batch_digest_of_requests [ noop_request_value t ~new_view ~seq ]))
    gaps;
  if t.self = C.leader_of t.core new_view then begin
    t.core.next_seq <- t.recovered_bound + 1;
    List.iter
      (fun (seq, batch) ->
        send_signed t ctx (Pre_prepare { view = new_view; seq; batch }))
      recovered;
    List.iter
      (fun seq ->
        let request =
          Thc_crypto.Signature.seal t.ident (noop_request_value t ~new_view ~seq)
        in
        send_signed t ctx
          (Pre_prepare { view = new_view; seq; batch = [ request ] }))
      gaps;
    C.requeue_pending t.core;
    flush_queue t ctx ~force:true
  end;
  (* Replay re-proposals that raced ahead of this New_view. *)
  match Hashtbl.find_opt t.future_pp new_view with
  | None -> ()
  | Some buffered ->
    Hashtbl.remove t.future_pp new_view;
    List.iter (fun w -> !handle_wire_ref t ctx w) (List.rev buffered)

let send_view_change t ctx ~new_view =
  t.core.status <- C.Changing new_view;
  let certs =
    K.Hash_order.Pair.fold
      (fun (_, seq) c acc ->
        if not (K.Hash_order.Int.mem t.commit_certs seq) then c :: acc else acc)
      t.prepared []
  in
  let finals = K.Hash_order.Int.fold (fun _ c acc -> c :: acc) t.commit_certs [] in
  send_signed t ctx (View_change { new_view; certs; finals })

(* Full dispatch needs the wire (for the leader's signature). *)
let handle_wire t (ctx : msg Thc_sim.Engine.ctx) (w : wire) =
  if Thc_crypto.Signature.sealed_ok t.keyring w then begin
    let signer = w.signature.signer in
    match w.value with
    | Pre_prepare { view; seq; batch } ->
      if signer = C.leader_of t.core view && view > t.core.view then begin
        let buffered = Option.value ~default:[] (Hashtbl.find_opt t.future_pp view) in
        Hashtbl.replace t.future_pp view (w :: buffered)
      end;
      if
        signer = C.leader_of t.core view
        && view = t.core.view
        && t.core.status = C.Normal
        && Command.batch_valid t.keyring batch
        && not (K.Pair.mem t.preprepares (view, seq))
      then begin
        let digest = Command.batch_digest batch in
        if proposal_acceptable t ~seq ~digest then begin
          K.Pair.replace t.preprepares (view, seq) (batch, digest, w.signature);
          C.mark_proposed t.core seq batch;
          if t.self <> C.leader_of t.core view then
            send_signed t ctx (Prepare { view; seq; digest });
          try_prepare t ctx ~view ~seq ~digest;
          try_commit t ctx ~view ~seq ~digest
        end
      end
    | Prepare { view; seq; digest } ->
      if
        signer <> C.leader_of t.core view
        && not (K.Hash_order.Pair.mem t.prepared (view, seq))
      then begin
        let votes = vote_set t.prepare_votes (view, seq, digest) in
        if not (K.Hash_order.Int.mem votes signer) then begin
          (* Keep the signature itself: it becomes certificate material. *)
          K.Hash_order.Int.replace votes signer w.signature;
          try_prepare t ctx ~view ~seq ~digest
        end
      end
    | Commit { view; seq; digest } ->
      if not (K.Int.mem t.committed seq) then begin
        let votes = vote_set t.commit_votes (view, seq, digest) in
        if not (K.Hash_order.Int.mem votes signer) then begin
          K.Hash_order.Int.replace votes signer w.signature;
          try_commit t ctx ~view ~seq ~digest
        end
      end
    | View_change { new_view; _ } ->
      if new_view > t.core.view && vc_valid t ~new_view w then begin
        let tbl = C.table t.vc_store new_view 8 in
        Hashtbl.replace tbl signer w;
        (* Liveness join: f+1 view changes for a higher view pull us in. *)
        if
          Hashtbl.length tbl >= t.config.f + 1 && t.core.max_vc_sent < new_view
        then begin
          t.core.max_vc_sent <- new_view;
          send_view_change t ctx ~new_view
        end;
        if
          t.self = C.leader_of t.core new_view
          && Hashtbl.length tbl >= (2 * t.config.f) + 1
        then begin
          let vcs = Hashtbl.fold (fun _ v acc -> v :: acc) tbl [] in
          send_signed t ctx (New_view { new_view; view_changes = vcs });
          adopt_new_view t ctx ~new_view vcs
        end
      end
    | New_view { new_view; view_changes } ->
      if
        signer = C.leader_of t.core new_view
        && new_view > t.core.view
        && List.for_all (vc_valid t ~new_view) view_changes
        &&
        let signers =
          List.sort_uniq compare
            (List.map (fun (v : wire) -> v.signature.signer) view_changes)
        in
        List.length signers >= (2 * t.config.f) + 1
      then adopt_new_view t ctx ~new_view view_changes
  end

let () = handle_wire_ref := handle_wire

let handle_request t (ctx : msg Thc_sim.Engine.ctx) sr =
  if C.intake t.core ctx sr then begin
    flush_queue t ctx ~force:false;
    C.arm_batch_timer t.core ctx
  end

let handle_check t (ctx : msg Thc_sim.Engine.ctx) =
  let new_view = C.escalation t.core ~now:(ctx.now ()) in
  if new_view > 0 then send_view_change t ctx ~new_view;
  C.arm_check_timer t.core ctx

let replica t : msg Thc_sim.Engine.behavior =
  {
    init = (fun ctx -> C.arm_check_timer t.core ctx);
    on_message =
      (fun ctx ~src:_ m ->
        match m with
        | Request sr -> handle_request t ctx sr
        | Signed w -> handle_wire t ctx w
        | Reply _ -> ());
    on_timer =
      (fun ctx tag ->
        if tag = C.check_timer_tag then handle_check t ctx
        else if tag = C.batch_timer_tag && C.batch_timer_fired t.core then
          flush_queue t ctx ~force:true);
  }

let wrap_request sr = Request sr
let unwrap_reply = function Reply r -> Some r | Request _ | Signed _ -> None

let client ~rid_base ~config ~keyring:_ ~ident ~plan :
    msg Thc_sim.Engine.behavior =
  Client_core.behavior ~rid_base ~n_replicas:config.n ~quorum:(config.f + 1)
    ~ident ~plan ~wrap:wrap_request ~unwrap:unwrap_reply

let classify_msg = function
  | Request _ -> "request"
  | Reply _ -> "reply"
  | Signed w ->
    (match w.value with
    | Pre_prepare _ -> "pre-prepare"
    | Prepare _ -> "prepare"
    | Commit _ -> "commit"
    | View_change _ -> "view-change"
    | New_view _ -> "new-view")
