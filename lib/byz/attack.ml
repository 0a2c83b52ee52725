module E = Thc_sim.Engine
module Trinc = Thc_hardware.Trinc
module R = Thc_replication
module Swmr = Thc_sharedmem.Swmr

type kind =
  | Equivocate
  | Replay_stale
  | Reuse_attestation
  | Mismatched_vc
  | Selective_send
  | Silent_then_lie
  | Register_forge
  | Ack_forge
  | Stale_read
  | Withheld_append
  | Forged_checkpoint
  | Stale_transfer
  | Join_equivocation

let all =
  [
    Equivocate;
    Replay_stale;
    Reuse_attestation;
    Mismatched_vc;
    Selective_send;
    Silent_then_lie;
  ]

let ubft_all = [ Register_forge; Ack_forge; Stale_read; Withheld_append ]

(* The durability catalog: state-transfer attacks at a restarting replica.
   Kept separate from [all] — the thc-attack/v1 sweep cell counts depend on
   that list's length — and run by dedicated rigs with a scripted restart. *)
let ckpt_all = [ Forged_checkpoint; Stale_transfer; Join_equivocation ]

let name = function
  | Equivocate -> "equivocation"
  | Replay_stale -> "replay"
  | Reuse_attestation -> "reuse"
  | Mismatched_vc -> "mismatched-vc"
  | Selective_send -> "selective-send"
  | Silent_then_lie -> "silent-then-lie"
  | Register_forge -> "register-forge"
  | Ack_forge -> "ack-forge"
  | Stale_read -> "stale-read"
  | Withheld_append -> "withheld-append"
  | Forged_checkpoint -> "forged-checkpoint"
  | Stale_transfer -> "stale-transfer"
  | Join_equivocation -> "join-equivocation"

let of_name = function
  | "equivocation" -> Some Equivocate
  | "replay" -> Some Replay_stale
  | "reuse" -> Some Reuse_attestation
  | "mismatched-vc" -> Some Mismatched_vc
  | "selective-send" -> Some Selective_send
  | "silent-then-lie" -> Some Silent_then_lie
  | "register-forge" -> Some Register_forge
  | "ack-forge" -> Some Ack_forge
  | "stale-read" -> Some Stale_read
  | "withheld-append" -> Some Withheld_append
  | "forged-checkpoint" -> Some Forged_checkpoint
  | "stale-transfer" -> Some Stale_transfer
  | "join-equivocation" -> Some Join_equivocation
  | _ -> None

let describe = function
  | Equivocate ->
    "the leader proposes two different operations for the same slot, each \
     shown to a different replica"
  | Replay_stale ->
    "a corrupted replica re-sends an old attested message, trying to run \
     the same counter value past its peers twice"
  | Reuse_attestation ->
    "an attestation produced for one slot is re-labelled as evidence for a \
     different slot (fields copied, message swapped)"
  | Mismatched_vc ->
    "a replica joins a view change carrying a fabricated sent-log instead \
     of its real attested history"
  | Selective_send ->
    "the leader keeps serving a bare quorum and silently starves one \
     replica, hiding part of its message stream"
  | Silent_then_lie ->
    "a two-phase attacker: first fully silent (indistinguishable from a \
     crash), then it comes back and equivocates from its stale view"
  | Register_forge ->
    "a corrupted follower tries to plant a conflicting Slot directly in \
     the leader's register, then rings doorbells for the slot it could \
     not write"
  | Ack_forge ->
    "a corrupted follower tries to append a coverage Ack into a peer's \
     register, then sends the leader a lying Ack_note doorbell"
  | Stale_read ->
    "a corrupted follower freezes on a stale register snapshot: it stops \
     reading, acking and replying (after one parting forgery attempt)"
  | Withheld_append ->
    "the corrupted leader withholds all further register appends, \
     leaving its doorbells ringing over an empty log"
  | Forged_checkpoint ->
    "a Byzantine donor answers a restarting replica's state-transfer \
     request with a snapshot under a counterfeit checkpoint certificate"
  | Stale_transfer ->
    "a Byzantine donor replays a superseded — but genuinely certified — \
     checkpoint at a restarting replica, trying to roll the service back"
  | Join_equivocation ->
    "a Byzantine donor rides a genuine certificate but lies about the \
     committed suffix above it, telling the joiner a history no correct \
     replica has"

let paper_claim = function
  | Equivocate | Replay_stale | Reuse_attestation ->
    "trusted-log mechanisms (TrInc class) make each replica's outbound \
     stream a sequenced reliable broadcast: one counter, one message, ever"
  | Mismatched_vc ->
    "view-change evidence is audited against the dense attested log, so a \
     Byzantine member cannot present an alternative history"
  | Selective_send ->
    "hiding sent messages only creates counter gaps that receivers refuse \
     to step over — selective delivery cannot split a quorum"
  | Silent_then_lie ->
    "silence is a crash fault the 2f+1 protocol already tolerates; the \
     late lie is ordinary equivocation and dies on the counter discipline"
  | Register_forge | Ack_forge ->
    "SWMR registers sit strictly above trusted logs in Figure 1: where a \
     TrInc attacker gets to ask and be refused per message, the register \
     ACL makes writing another's history impossible outright"
  | Stale_read ->
    "withholding reads is self-harm: the register's append order is the \
     one history, so a frozen reader is just a crash the 2f+1 protocol \
     absorbs"
  | Withheld_append ->
    "withholding appends starves the one place followers read from; the \
     register-vote view change replaces the writer and recovers its \
     published prefix"
  | Forged_checkpoint | Stale_transfer ->
    "a checkpoint certificate is f+1 trusted-counter attestations, and the \
     certified floor survives a crash in NVRAM: forged certificates fail \
     CheckAttestation, genuine-but-superseded ones fall below the floor"
  | Join_equivocation ->
    "the certificate covers the checkpoint, not the suffix a donor attaches \
     to it; demanding f+1 distinct donors per suffix slot puts a correct \
     replica behind every installed claim, and the next certified \
     checkpoint jumps whatever stays contested"

type target = Minbft | Unattested | Ubft

(* Target names ride the one protocol codec; "unattested" is the ablation's
   own label (deliberately not a Protocol.t — it is MinBFT on a TrInc world
   without monotonicity, not a protocol of its own). *)
let target_name = function
  | Minbft -> R.Protocol.to_string R.Protocol.Minbft
  | Unattested -> "unattested"
  | Ubft -> R.Protocol.to_string R.Protocol.Ubft

let target_of_name s =
  if String.equal s "unattested" then Some Unattested
  else
    match R.Protocol.of_string s with
    | Some R.Protocol.Minbft -> Some Minbft
    | Some R.Protocol.Ubft -> Some Ubft
    | Some R.Protocol.Pbft | None -> None

(* The unattested world removes only monotonicity, so its catalog holds
   only the kinds that fork it at every sweep cell; every other kind is
   stopped there by a mechanism that is not hardware (ATTACKS.md names
   each). *)
let applies ~target ~attack =
  match target with
  | Minbft -> List.mem attack all || List.mem attack ckpt_all
  | Unattested -> attack = Equivocate
  | Ubft -> List.mem attack ubft_all

type result = {
  attack : kind;
  target : target;
  seed : int64;
  corrupt_at : int64;
  safety_violations : int;
  distinct_ops_at_seq1 : int;
  commits : int;
  rejections : int;
  trusted_ops : (string * int) list;
  messages : int;
  duration_us : int64;
  events : int;
  client_finished : bool;
  detail : string;
  stalled_spans : Thc_obsv.Span.view list;
}

let holds r =
  match r.target with
  | Minbft -> r.safety_violations = 0 && r.rejections > 0
  | Unattested -> r.safety_violations > 0
  | Ubft -> (
    r.safety_violations = 0 && r.rejections > 0
    &&
    (* The forge attempts bounce off the ACL without disturbing the run;
       the availability attacks must additionally leave the cluster able
       to finish serving the honest client (crash-tolerance, possibly
       through a view change). *)
    match r.attack with
    | Stale_read | Withheld_append -> r.client_finished
    | _ -> true)

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s vs %s (seed %Ld, corrupt at %Ld):@,\
    \  safety violations : %d@,\
    \  ops at seq 1      : %d distinct@,\
    \  commits           : %d@,\
    \  hw rejections     : %d@,\
    \  messages          : %d@,\
    \  client served     : %b@,\
    \  verdict           : %s@,\
    \  %s@]"
    (name r.attack) (target_name r.target) r.seed r.corrupt_at
    r.safety_violations r.distinct_ops_at_seq1 r.commits r.rejections
    r.messages r.client_finished
    (if holds r then "as the paper predicts" else "UNEXPECTED")
    r.detail

(* --- shared helpers ----------------------------------------------------- *)

let client_finished trace ~pid ~expected =
  let done_count =
    List.length
      (List.filter
         (function Thc_sim.Obs.Client_done _ -> true | _ -> false)
         (Thc_sim.Trace.outputs_of trace pid))
  in
  done_count >= expected

(* --- the MinBFT side ----------------------------------------------------- *)

(* Every corruption starts with a rewind: the attacker asks its own trinket
   to re-attest its next message at an already-used counter value.  TrInc
   refuses (charging [trinc.attest_denied]), which is the direct form of the
   non-equivocation guarantee, and the rest of each attack is the
   attacker's fallback.  The unattested world grants it, and the attacker
   sends the rewound message instead. *)
let minbft_inject ~attack ~engine ~wrap ~replica ~attacker_ident ~f ~n () =
  let ctx = Wrap.raw_ctx wrap in
  let out = R.Minbft.attack_out replica in
  let conflicting () =
    ( R.Command.make ~ident:attacker_ident ~rid:9_000 (R.Kv_store.Put ("byz", "A")),
      R.Command.make ~ident:attacker_ident ~rid:9_001 (R.Kv_store.Put ("byz", "B"))
    )
  in
  (* The slot the honest leader would assign next: one past the prepares the
     wrapped behavior has sealed so far. *)
  let next_slot () =
    1
    + List.length
        (List.filter
           (fun (_, m) -> R.Minbft.classify_msg m = "prepare")
           (Wrap.sent wrap))
  in
  let first_sealed () =
    List.find_map (fun (_, m) -> R.Minbft.attestation_of m) (Wrap.sent wrap)
  in
  (* A conflicting proposal re-attested at the last used counter — a value
     every receiver has normally released already. *)
  let rewind ~seq =
    R.Minbft.rewound_prepare ~out ~view:(R.Minbft.view_of replica) ~seq
      ~request:(snd (conflicting ()))
  in
  (* Seal A, then rewind B onto A's counter, and send A to replicas 1..f
     and B to f+1..2f.  Refused, B takes the next counter and hides behind
     a gap; granted, the two halves hold different proposals under one
     counter. *)
  let equivocate_now () =
    let req_a, req_b = conflicting () in
    let view = R.Minbft.view_of replica in
    let seq = next_slot () in
    let wire_a = R.Minbft.adversarial_prepare ~out ~view ~seq ~request:req_a in
    let wire_b =
      match rewind ~seq with
      | Some w -> w
      | None -> R.Minbft.adversarial_prepare ~out ~view ~seq ~request:req_b
    in
    for dst = 1 to f do ctx.E.send dst wire_a done;
    for dst = f + 1 to 2 * f do ctx.E.send dst wire_b done
  in
  match attack with
  | Equivocate -> equivocate_now ()
  | Replay_stale -> (
    (* Granted: slot 1 proposed again with different content on a fresh
       tag.  Refused: the old attestation verbatim. *)
    match (rewind ~seq:1, first_sealed ()) with
    | Some w, _ -> ctx.E.broadcast w
    | None, Some a -> ctx.E.broadcast (R.Minbft.adversarial_wire a)
    | None, None -> ())
  | Reuse_attestation -> (
    (* Granted: a genuine attestation for a different slot at the reused
       counter.  Refused: the first attestation relabelled by hand. *)
    match (rewind ~seq:(next_slot ()), first_sealed ()) with
    | Some w, _ -> ctx.E.broadcast w
    | None, Some a ->
      let forged =
        Trinc.counterfeit ~owner:a.owner ~prev:a.prev ~counter:a.counter
          ~message:"reused in a different slot" ~tag:a.tag
      in
      ctx.E.broadcast (R.Minbft.adversarial_wire forged)
    | None, None -> ())
  | Mismatched_vc ->
    (* Granted: the fabricated history entry carries a verifying tag. *)
    let fabricated =
      match Option.bind (rewind ~seq:1) R.Minbft.attestation_of with
      | Some a -> a
      | None ->
        Trinc.counterfeit ~owner:ctx.E.self ~prev:0 ~counter:1
          ~message:"fabricated history" ~tag:0L
    in
    let new_view = R.Minbft.view_of replica + 1 in
    ctx.E.broadcast
      (R.Minbft.adversarial_view_change ~out ~new_view ~log:[ fabricated ])
  | Selective_send ->
    (* Granted: the starved replica is fed a conflicting proposal before
       the stream to it goes dark. *)
    Option.iter (ctx.E.send (n - 1)) (rewind ~seq:(next_slot ()));
    Wrap.drop_to wrap (n - 1)
  | Silent_then_lie ->
    Wrap.mute wrap;
    E.at engine (Int64.add (ctx.E.now ()) 60_000L) equivocate_now
  | Register_forge | Ack_forge | Stale_read | Withheld_append
  | Forged_checkpoint | Stale_transfer | Join_equivocation ->
    (* Register-catalog kinds never reach this rig ([applies] filters
       them); checkpoint kinds go to [ckpt_inject]. *)
    ()

let minbft_detail = function
  | Equivocate ->
    "both equivocating prepares seal onto the one counter chain; the \
     second hides behind a gap, the audited view change carries whichever \
     one a correct replica committed"
  | Replay_stale ->
    "every inbox is already past the replayed counter; each receiver \
     charges link.reject_replay and drops it"
  | Reuse_attestation ->
    "the tag binds owner, counters and message, so the relabelled \
     attestation fails CheckAttestation at every receiver \
     (link.reject_forged)"
  | Mismatched_vc ->
    "the fabricated log fails the dense-chain audit at the would-be new \
     leader (trinc.check_fail); the view change proceeds on honest \
     evidence only"
  | Selective_send ->
    "the starved replica sees a counter gap instead of a fork; its \
     timeout drives an audited view change and the cluster converges"
  | Silent_then_lie ->
    "the silent phase is handled as a leader crash (view change); the \
     late equivocation is stale-view traffic stuck behind its own \
     counter gap"
  | Register_forge | Ack_forge | Stale_read | Withheld_append ->
    "not part of the trusted-log catalog"
  | Forged_checkpoint ->
    "the counterfeit certificate dies on CheckAttestation at the joiner \
     (trinc.check_fail, ckpt.reject_forged); recovery completes from an \
     honest donor's certified snapshot once the links open"
  | Stale_transfer ->
    "the joiner's NVRAM floor outlives its crash: the replayed certificate \
     is genuine but below the floor (ckpt.reject_stale), so the rollback \
     never installs"
  | Join_equivocation ->
    "the lying suffix rides a genuine certificate but a suffix slot needs \
     f+1 distinct donors (ckpt.reject_suffix_equivocation); the contested \
     slot stays out until the next certified checkpoint jumps it"

let unattested_detail = function
  | Equivocate ->
    "the trinket grants the rewind: both prepares carry one counter, each \
     receiver adopts its own and finds an f+1 quorum, committing different \
     operations at one slot"
  | _ -> "not part of the unattested catalog"

(* --- the durability/checkpoint side --------------------------------------- *)

(* The checkpoint family's timeline.  Checkpoints every 2 slots: the five
   pre-crash operations put the cluster at stable(4) with prev(2); the
   joiner crashes at 120ms, the attack window runs to the heal at 150ms,
   and the post-crash operations (slots 6..9) give the joiner two more
   certified boundaries to finish recovering against. *)
let ckpt_interval = 2

let ckpt_restart_at = 120_000L

let ckpt_heal_at = 150_000L

let ckpt_plan =
  [
    (0L, R.Kv_store.Put ("x", "1"));
    (10_000L, R.Kv_store.Put ("y", "2"));
    (20_000L, R.Kv_store.Put ("x", "3"));
    (30_000L, R.Kv_store.Put ("z", "4"));
    (40_000L, R.Kv_store.Put ("x", "5"));
    (150_000L, R.Kv_store.Put ("y", "6"));
    (160_000L, R.Kv_store.Put ("x", "7"));
    (170_000L, R.Kv_store.Put ("z", "8"));
    (180_000L, R.Kv_store.Get "x");
  ]

let live_plan =
  [
    (0L, R.Kv_store.Put ("x", "1"));
    (10_000L, R.Kv_store.Put ("y", "2"));
    (40_000L, R.Kv_store.Put ("x", "3"));
    (90_000L, R.Kv_store.Get "x");
  ]

let ckpt_inject ~attack ~engine ~wrap ~f ~(byz : R.Minbft.t) ~attacker_ident
    ~joiner () =
  let ctx = Wrap.raw_ctx wrap in
  (* The rewind: a Checkpoint vote for the fabricated boundary, re-attested
     at the donor's last counter.  Granted, it is the one genuine share of
     the forged certificate below — one signer short of f+1. *)
  let forged_vote () =
    let upto = R.Minbft.stable_upto byz + ckpt_interval in
    R.Minbft.rewound_checkpoint ~out:(R.Minbft.attack_out byz) ~upto
      ~digest:0xDEAD_BEEFL ~exec_count:upto
  in
  let granted = Option.is_some (forged_vote ()) in
  (* From its corruption to the heal the byz donor drops everything it
     sends the joiner: its snapshot replies, and its attested protocol
     stream too.  From the crash the link script also holds the honest
     donors' links to the joiner (see [minbft_fixture]), so during the window
     the only snapshots the joiner sees are the attack's.  The heal lifts
     the drop, but a dropped message is gone, not held: the joiner's
     stream from the byz donor stays stuck below the first counter it
     missed, and every later attestation from the donor, its Checkpoint
     votes included, waits behind that gap for the rest of the run. *)
  Wrap.drop_to wrap joiner;
  E.at engine ckpt_heal_at (fun () -> Wrap.allow_all wrap);
  let inject_at offset build =
    E.at engine
      (Int64.add ckpt_restart_at offset)
      (fun () ->
        match build () with Some m -> ctx.E.send joiner m | None -> ())
  in
  List.iter
    (fun offset ->
      match attack with
      | Forged_checkpoint ->
        inject_at offset (fun () ->
            (* A fabricated boundary above the joiner's NVRAM floor, so only
               the certificate verification stands in the way. *)
            let upto = R.Minbft.stable_upto byz + ckpt_interval in
            let own = if granted then forged_vote () else None in
            let cert =
              List.init (f + 1) (fun owner ->
                  match own with
                  | Some a when a.Trinc.owner = owner -> a
                  | _ ->
                    Trinc.counterfeit ~owner ~prev:(900 + owner)
                      ~counter:(901 + owner) ~message:"forged checkpoint vote"
                      ~tag:0L)
            in
            Some
              (R.Minbft.adversarial_snapshot ~upto ~digest:0xDEAD_BEEFL
                 ~exec_count:upto ~cert
                 ~state:[ ("x", "forged") ]
                 ~suffix:[]))
      | Stale_transfer ->
        inject_at offset (fun () -> R.Minbft.stale_snapshot byz)
      | Join_equivocation ->
        inject_at offset (fun () ->
            (* Genuine certificate and state, lying committed suffix: a
               validly-signed colluding-client batch at the slot right above
               the checkpoint, where the honest donors carry the real
               slot-5 batch. *)
            let forged =
              R.Command.make ~ident:attacker_ident ~rid:9_100
                (R.Kv_store.Put ("byz", "Z"))
            in
            R.Minbft.stable_snapshot byz
              ~suffix:[ (R.Minbft.stable_upto byz + 1, [ forged ]) ])
      | _ -> ())
    [ 6_000L; 12_000L; 18_000L ]

(* --- the uBFT-sim side --------------------------------------------------- *)

let ubft_detail = function
  | Register_forge ->
    "both forged appends die on the ACL before touching memory \
     (swmr.append_denied); the doorbells point followers at a register \
     that never held the forgery"
  | Ack_forge ->
    "the foreign-register Ack append is refused (swmr.append_denied) and \
     the lying Ack_note is audited away: the leader re-reads the real \
     register and finds no digest-matching acks"
  | Stale_read ->
    "the frozen follower is a crash from the outside; the remaining 2f \
     replicas keep the f+1 reply quorum and coverage going"
  | Withheld_append ->
    "starved followers time out, plant register votes, and the new \
     leader re-publishes the recovered prefix under the next view"
  | Equivocate | Replay_stale | Reuse_attestation | Mismatched_vc
  | Selective_send | Silent_then_lie | Forged_checkpoint | Stale_transfer
  | Join_equivocation ->
    "not part of the register catalog"

(* Every corruption opens with the same probe pair: plant a forged Slot in
   the leader's register and a forged Ack in a peer follower's.  The ACL
   refuses both outright — where the TrInc attacker at least gets to ask
   its own trinket and be told no, here the write into another's history
   has no interface at all; the attempts land in the ledger as
   [swmr.append_denied].  The rest of each attack is the fallback once
   forgery is off the table. *)
let ubft_inject ~attack ~(registers : R.Ubft.registers) ~wrap ~replica
    ~attacker_ident ~byz_ident ~byz_pid ~n () =
  let ctx = Wrap.raw_ctx wrap in
  let view = R.Ubft.view_of replica in
  let leader = view mod n in
  let peer = (byz_pid + 1) mod n in
  let next_seq = R.Ubft.executed_upto replica + 1 in
  let forged_batch tag =
    [
      R.Command.make ~ident:attacker_ident ~rid:9_000
        (R.Kv_store.Put ("byz", tag));
    ]
  in
  let plant owner record =
    try Swmr.append registers.(owner) ~ident:byz_ident record
    with Thc_sharedmem.Acl.Violation _ -> ()
  in
  let forge_probe () =
    plant leader
      (R.Ubft.forged_slot ~view ~seq:next_seq ~batch:(forged_batch "A"));
    plant peer (R.Ubft.forged_ack ~view ~seq:next_seq ~digest:0L)
  in
  forge_probe ();
  match attack with
  | Register_forge ->
    (* Second conflicting slot for the same seq, then ring everyone: the
       doorbell is harmless because the register never held either. *)
    plant leader
      (R.Ubft.forged_slot ~view ~seq:next_seq ~batch:(forged_batch "B"));
    ctx.E.broadcast (R.Ubft.adversarial_notify ~view ~upto:next_seq)
  | Ack_forge ->
    ctx.E.send leader (R.Ubft.adversarial_ack_note ~view ~upto:(next_seq + 99))
  | Stale_read -> Wrap.mute wrap
  | Withheld_append -> Wrap.mute wrap
  | Equivocate | Replay_stale | Reuse_attestation | Mismatched_vc
  | Selective_send | Silent_then_lie | Forged_checkpoint | Stale_transfer
  | Join_equivocation ->
    ()

(* --- the one rig -------------------------------------------------------- *)

(* What a target adds to its cluster: the corrupted pid, the honest
   client's plan, the injection fired at the corruption, the corruption
   time and the link script around it. *)
type 'm fixture = {
  byz_pid : int;
  plan : (int64 * R.Kv_store.op) list;
  inject :
    wrap:'m Wrap.t -> attacker_ident:Thc_crypto.Keyring.secret -> unit -> unit;
  corrupt_at : int64;
  links : Thc_sim.Adversary.event list;
}

let delay = Thc_sim.Delay.Uniform (50L, 500L)

(* MinBFT on the target's world.  Live kinds corrupt the leader (a
   view-change member for mismatched-vc) under a four-request plan.
   Checkpoint kinds corrupt donor 1, with checkpoints every
   [ckpt_interval] slots and joiner n-1 restarting at [ckpt_restart_at];
   the leader stays honest so the service keeps running.  Every honest
   donor's link to the joiner is held from the crash to the heal, and the
   byz donor drops all it sends the joiner from its corruption (see
   [ckpt_inject]), so the attack's snapshots are the only ones arriving
   while the joiner awaits — the rejection is a deterministic fact of the
   rig, not a delivery race.  At the heal the held genuine snapshots flow
   and the joiner installs one.  Its attested stream from the byz donor
   stays stuck behind what the drop lost, so the joiner finishes catching
   up through view changes. *)
let minbft_fixture ~spans ~tracing ~target ~attack ~f ~seed ~corrupt_at =
  let ckpt = List.mem attack ckpt_all in
  let joiner = (R.Minbft.default_config ~f).R.Minbft.n - 1 in
  let c, replicas =
    R.Cluster.minbft ~spans
      ?restart:(if ckpt then Some (joiner, ckpt_restart_at) else None)
      ~world:
        (match target with
        | Unattested -> Trinc.create_unattested_world
        | Minbft | Ubft -> Trinc.create_world)
      ~f ~batch:1
      ~checkpoint_interval:(if ckpt then ckpt_interval else 0)
      ~clients:2 ~seed ~delay ~tracing ()
  in
  let n = c.R.Cluster.replicas and engine = c.R.Cluster.engine in
  if ckpt then
    let byz_pid = 1 in
    let block donor =
      if donor = byz_pid || donor = joiner then None
      else
        Some
          {
            Thc_sim.Adversary.at = ckpt_restart_at;
            action = Thc_sim.Adversary.Block_link (donor, joiner);
          }
    in
    ( c,
      {
        byz_pid;
        plan = ckpt_plan;
        inject = ckpt_inject ~attack ~engine ~f ~byz:replicas.(byz_pid) ~joiner;
        (* The fixture needs the corruption in place before the crash it
           preys on. *)
        corrupt_at = min corrupt_at 60_000L;
        links =
          List.filter_map block (List.init n Fun.id)
          @ [ { at = ckpt_heal_at; action = Thc_sim.Adversary.Heal } ];
      } )
  else
    let byz_pid = match attack with Mismatched_vc -> n - 1 | _ -> 0 in
    ( c,
      {
        byz_pid;
        plan = live_plan;
        inject =
          minbft_inject ~attack ~engine ~replica:replicas.(byz_pid) ~f ~n;
        corrupt_at;
        links = [];
      } )

(* uBFT-sim on SWMR registers.  The append-withholder must own the
   register followers read from; the other attackers corrupt a
   follower. *)
let ubft_fixture ~spans ~tracing ~attack ~f ~seed ~corrupt_at =
  let c, replicas, registers =
    R.Cluster.ubft ~spans ~f ~batch:1 ~checkpoint_interval:0 ~clients:2 ~seed
      ~delay ~tracing ()
  in
  let n = c.R.Cluster.replicas in
  let byz_pid = match attack with Withheld_append -> 0 | _ -> n - 1 in
  let byz_ident = Thc_crypto.Keyring.secret c.R.Cluster.keyring ~pid:byz_pid in
  ( c,
    {
      byz_pid;
      plan = live_plan;
      inject =
        ubft_inject ~attack ~registers ~replica:replicas.(byz_pid) ~byz_ident
          ~byz_pid ~n;
      corrupt_at;
      links = [];
    } )

(* The one rig, over a cluster built with two client identities: replicas
   0..n-1, the honest client n, and n+1 the identity of a colluding client
   whose signing key the corrupted replica holds.  The builder installed
   every replica honest; the rig wraps the corrupted one in place and adds
   the client.  Corruption rides the ordinary adversary machinery: a
   [Corrupt] event marks the pid Byzantine and fires the fixture's
   injection.  The corruption with the fixture's links, the extra script
   and the network model install in that order, because the engine breaks
   same-time ties by installation order (the model's re-lowering at each
   heal must run after the heal itself).  Rational client strategies are
   skipped: the rig's scripted client is part of the fixture, not a
   workload.

   The trace needs only outputs and crashes, so [messages] comes from the
   engine's send counter ([Trace.messages_sent] of a [Full] trace by
   construction).  Stalled spans are the requests that never reached their
   reply — the injected conflicting writes and any honest request the
   attack starved; their views show which phase the pipeline stopped
   at. *)
let rig ?network ~spans ~target ~attack ~seed ~script ~until
    ((c : 'm R.Cluster.t), (fx : 'm fixture)) =
  let { R.Cluster.engine; replicas = n; keyring; hw; client; _ } = c in
  let secret pid = Thc_crypto.Keyring.secret keyring ~pid in
  let wrap = Wrap.create () in
  E.set_behavior engine fx.byz_pid
    (Wrap.behavior wrap (E.behavior_of engine fx.byz_pid));
  E.set_behavior engine n (client ~rid_base:0 ~ident:(secret n) ~plan:fx.plan);
  let attacker_ident = secret (n + 1) in
  E.on_corrupt engine ~pid:fx.byz_pid (fun _ ->
      fx.inject ~wrap ~attacker_ident ());
  let corrupt =
    {
      Thc_sim.Adversary.at = fx.corrupt_at;
      action = Corrupt { pid = fx.byz_pid; attack = name attack };
    }
  in
  let events = corrupt :: fx.links in
  Thc_sim.Adversary.install
    {
      events;
      horizon =
        List.fold_left (fun h e -> max h e.Thc_sim.Adversary.at) 0L events;
    }
    engine;
  Option.iter (fun s -> Thc_sim.Adversary.install s engine) script;
  Option.iter
    (fun m -> Thc_network.Model.install m engine ~replicas:n ?script ())
    network;
  let trace = E.run ~until engine in
  ( {
      attack;
      target;
      seed;
      corrupt_at = fx.corrupt_at;
      safety_violations =
        List.length (R.Smr_spec.check_safety trace ~replicas:n);
      distinct_ops_at_seq1 = R.Smr_spec.distinct_ops_at_seq1 trace ~replicas:n;
      commits = R.Smr_spec.commits trace ~replicas:n;
      rejections = Thc_obsv.Ledger.rejections hw;
      trusted_ops = Thc_obsv.Ledger.rows hw;
      messages = Thc_obsv.Link_stats.sends (E.stats engine);
      duration_us = trace.Thc_sim.Trace.end_time;
      events = E.events_processed engine;
      client_finished =
        client_finished trace ~pid:n ~expected:(List.length fx.plan);
      detail =
        (match target with
        | Minbft -> minbft_detail attack
        | Unattested -> unattested_detail attack
        | Ubft -> ubft_detail attack);
      stalled_spans =
        List.filter
          (fun v -> not (Thc_obsv.Span.complete v))
          (Thc_obsv.Span.views spans);
    },
    fun () -> Thc_sim.Trace.to_jsonl ~encode_msg:Thc_util.Codec.encode trace )

let run_with ?(f = 1) ?(seed = 1L) ?(corrupt_at = 5_000L) ?script ?network
    ~tracing ~target ~attack () =
  (* A corrupted replica is one of the f faults. *)
  if f < 1 then invalid_arg "Attack: the corrupted replica is a fault, f >= 1";
  let corrupt_at = max 1L corrupt_at in
  let slack =
    Option.fold ~none:0L ~some:(fun s -> s.Thc_sim.Adversary.horizon) script
  in
  let until = Int64.add 500_000L (Int64.add corrupt_at slack) in
  let spans = Thc_obsv.Span.create () in
  let rig fixture =
    rig ?network ~spans ~target ~attack ~seed ~script ~until fixture
  in
  match target with
  | Minbft | Unattested ->
    rig (minbft_fixture ~spans ~tracing ~target ~attack ~f ~seed ~corrupt_at)
  | Ubft -> rig (ubft_fixture ~spans ~tracing ~attack ~f ~seed ~corrupt_at)

let run ?f ?seed ?corrupt_at ?script ?network ~target ~attack () =
  fst
    (run_with ?f ?seed ?corrupt_at ?script ?network ~tracing:E.Outputs_only
       ~target ~attack ())

let run_export ?f ?seed ?corrupt_at ?script ?network ~attack () =
  let result, jsonl =
    run_with ?f ?seed ?corrupt_at ?script ?network ~tracing:E.Full
      ~target:Minbft ~attack ()
  in
  (result, jsonl ())
