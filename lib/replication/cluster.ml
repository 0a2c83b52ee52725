type 'm t = {
  engine : 'm Thc_sim.Engine.t;
  replicas : int;
  keyring : Thc_crypto.Keyring.t;
  hw : Thc_obsv.Ledger.t;
  client :
    rid_base:int ->
    ident:Thc_crypto.Keyring.secret ->
    plan:(int64 * Kv_store.op) list ->
    'm Thc_sim.Engine.behavior;
  wrap_request : Command.signed_request -> 'm;
  unwrap_reply : 'm -> Command.reply option;
  classify : 'm -> string;
  final_view : unit -> int;
  durability : unit -> Durability.stats;
}

type packed = Cluster : 'm t -> packed

let max_view view_of states () =
  Array.fold_left (fun acc st -> max acc (view_of st)) 0 states

let merged durability states () =
  Durability.merge (Array.to_list (Array.map durability states))

let install engine states behavior =
  Array.iteri
    (fun pid st -> Thc_sim.Engine.set_behavior engine pid (behavior pid st))
    states

(* The keyring draws first from the stream seeded by [seed], the trusted
   hardware second; the engine seeds its own. *)
let base ~spans ~clients ~seed ~delay ~tracing ~n =
  let rng = Thc_util.Rng.create seed in
  let total = n + clients in
  let keyring = Thc_crypto.Keyring.create rng ~n:total in
  let net = Thc_sim.Net.create ~n:total ~default:delay in
  (rng, keyring, Thc_sim.Engine.create ~seed ~tracing ~spans ~n:total ~net ())

(* Every trusted-op ledger bump lands on the ambient span phase. *)
let observe spans hw =
  if Thc_obsv.Span.enabled spans then
    Thc_obsv.Ledger.set_observer hw (Thc_obsv.Span.attribute spans)

let minbft ?(spans = Thc_obsv.Span.nop) ?restart
    ?(world = Thc_hardware.Trinc.create_world) ~f ~batch ~checkpoint_interval
    ~clients ~seed ~delay ~tracing () =
  let config =
    {
      (Minbft.default_config ~f) with
      batch_size = max 1 batch;
      checkpoint_interval = max 0 checkpoint_interval;
    }
  in
  let n = config.n in
  let restart_at =
    match restart with
    | None -> fun _ -> None
    | Some (pid, at) ->
      if pid < 0 || pid >= n then
        invalid_arg "Cluster: only a replica can restart";
      if at <= 0L then invalid_arg "Cluster: restart time must be positive";
      fun self -> if self = pid then Some at else None
  in
  let rng, keyring, engine = base ~spans ~clients ~seed ~delay ~tracing ~n in
  let world = world rng ~n in
  let hw = Thc_hardware.Trinc.ledger world in
  observe spans hw;
  let states =
    Array.init n (fun self ->
        Minbft.create_replica ~config ~keyring ~world
          ~trinket:(Thc_hardware.Trinc.trinket world ~owner:self)
          ~self)
  in
  install engine states (fun pid ->
      Minbft.replica ?restart_at:(restart_at pid));
  ( {
      engine;
      replicas = n;
      keyring;
      hw;
      client = Minbft.client ~config ~keyring;
      wrap_request = Minbft.wrap_request;
      unwrap_reply = Minbft.unwrap_reply;
      classify = Minbft.classify_msg;
      final_view = max_view Minbft.view_of states;
      durability = merged Minbft.durability states;
    },
    states )

let pbft ~spans ~f ~batch ~clients ~seed ~delay ~tracing =
  let config = { (Pbft.default_config ~f) with batch_size = max 1 batch } in
  let n = config.n in
  let _, keyring, engine = base ~spans ~clients ~seed ~delay ~tracing ~n in
  let states =
    Array.init n (fun self ->
        Pbft.create_replica ~config ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid:self)
          ~self)
  in
  install engine states (fun _ -> Pbft.replica);
  {
    engine;
    replicas = n;
    keyring;
    (* no trusted ops: an empty ledger keeps the rates at 0 *)
    hw = Thc_obsv.Ledger.create ();
    client = Pbft.client ~config ~keyring;
    wrap_request = Pbft.wrap_request;
    unwrap_reply = Pbft.unwrap_reply;
    classify = Pbft.classify_msg;
    final_view = max_view Pbft.view_of states;
    durability = (fun () -> Durability.zero);
  }

let ubft ?(spans = Thc_obsv.Span.nop) ~f ~batch ~checkpoint_interval ~clients
    ~seed ~delay ~tracing () =
  let default = Ubft.default_config ~f in
  let config =
    {
      default with
      batch_size = max 1 batch;
      (* uBFT always checkpoints (register memory must stay bounded); a
         positive interval overrides its default cadence. *)
      checkpoint_interval =
        (if checkpoint_interval > 0 then checkpoint_interval
         else default.checkpoint_interval);
    }
  in
  let n = config.n in
  let _, keyring, engine = base ~spans ~clients ~seed ~delay ~tracing ~n in
  (* The trusted hardware is the shared memory: one ledger on every
     register counts its ops (and denied forgeries). *)
  let registers : Ubft.registers = Thc_sharedmem.Swmr.log_array ~n in
  let hw = Thc_obsv.Ledger.create () in
  Thc_sharedmem.Swmr.attach_ledger_all registers hw;
  observe spans hw;
  let states =
    Array.init n (fun self ->
        Ubft.create_replica ~config ~keyring ~registers
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid:self)
          ~self)
  in
  install engine states (fun _ -> Ubft.replica);
  ( {
      engine;
      replicas = n;
      keyring;
      hw;
      client = Ubft.client ~config ~keyring;
      wrap_request = Ubft.wrap_request;
      unwrap_reply = Ubft.unwrap_reply;
      classify = Ubft.classify_msg;
      final_view = max_view Ubft.view_of states;
      durability = merged Ubft.durability states;
    },
    states,
    registers )

let create ?(spans = Thc_obsv.Span.nop) ?restart (protocol : Protocol.t) ~f
    ~batch ~checkpoint_interval ~clients ~seed ~delay ~tracing =
  match (protocol, restart) with
  | Minbft, _ ->
    Cluster
      (fst
         (minbft ~spans ?restart ~f ~batch ~checkpoint_interval ~clients ~seed
            ~delay ~tracing ()))
  | (Pbft | Ubft), Some _ ->
    invalid_arg "Cluster: restart is only wired for minbft"
  | Pbft, None -> Cluster (pbft ~spans ~f ~batch ~clients ~seed ~delay ~tracing)
  | Ubft, None ->
    let c, _, _ =
      ubft ~spans ~f ~batch ~checkpoint_interval ~clients ~seed ~delay ~tracing
        ()
    in
    Cluster c
