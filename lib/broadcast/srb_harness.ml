type report = {
  violations : Srb_spec.violation list;
  delivered : int;
  messages : int;
  duration_us : int64;
}

let fast = Thc_sim.Delay.Uniform (10L, 400L)

let finish (type m) (trace : m Thc_sim.Trace.t) =
  let delivered =
    List.fold_left
      (fun acc pid ->
        acc + List.length (Srb_spec.deliveries trace ~sender:0 ~pid))
      0
      (Thc_sim.Trace.correct_pids trace)
  in
  {
    violations = Srb_spec.check trace ~sender:0;
    delivered;
    messages = Thc_sim.Trace.messages_sent trace;
    duration_us = trace.Thc_sim.Trace.end_time;
  }

(* Broadcast times sit in the first quarter of the script horizon so the
   fault schedule has the rest of the run to interfere and then heal. *)
let plan_times ~horizon ~values =
  List.init values (fun i ->
      Int64.add 100L (Int64.mul (Int64.of_int i) (Int64.div horizon (Int64.of_int (4 * values)))))

let trinc_cluster ~seed ~n ~plan =
  let world = Thc_hardware.Trinc.create_world (Thc_util.Rng.create seed) ~n in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  for pid = 0 to n - 1 do
    let st =
      Srb_from_trinc.create ~world
        ~trinket:(Some (Thc_hardware.Trinc.trinket world ~owner:pid))
        ~n ~self:pid
    in
    let broadcast_plan = if pid = 0 then plan else [] in
    Thc_sim.Engine.set_behavior engine pid
      (Srb_from_trinc.behavior st ~broadcast_plan)
  done;
  (engine, world)

let uni_cluster ~seed ~n ~faults ~values =
  let keyring = Thc_crypto.Keyring.create (Thc_util.Rng.create seed) ~n in
  let net = Thc_sim.Net.create ~n ~default:fast in
  let engine = Thc_sim.Engine.create ~seed ~n ~net () in
  let behavior = Thc_rounds.Shared_rounds.(behaviors Swmr) ~n ~keyring in
  let srbs =
    Array.init n (fun pid ->
        Srb_from_uni.create ~keyring
          ~ident:(Thc_crypto.Keyring.secret keyring ~pid)
          ~sender:0 ~faults)
  in
  List.iter (Srb_from_uni.broadcast srbs.(0)) values;
  for pid = 0 to n - 1 do
    Thc_sim.Engine.set_behavior engine pid
      (behavior ~pid (Srb_from_uni.app srbs.(pid)))
  done;
  engine

(* The script first, then the network model: the model's re-lowering at
   each heal runs after the heal itself. *)
let run_scripted ?network ~script ~n ~until engine =
  Thc_sim.Adversary.install script engine;
  Option.iter
    (fun m -> Thc_network.Model.install m engine ~replicas:n ~script ())
    network;
  finish (Thc_sim.Engine.run ~until ~max_events:10_000_000 engine)

let run_trinc ?network ~seed ~(script : Thc_sim.Adversary.t) ?(n = 4) ?(values = 3) () =
  let plan =
    List.mapi
      (fun i at -> (at, Printf.sprintf "m%d" (i + 1)))
      (plan_times ~horizon:script.horizon ~values)
  in
  run_scripted ?network ~script ~n
    ~until:(Int64.add script.horizon 2_000_000L)
    (fst (trinc_cluster ~seed ~n ~plan))

let run_uni ?network ~seed ~(script : Thc_sim.Adversary.t) ?(n = 5) ?(faults = 2) ?(values = 2) () =
  run_scripted ?network ~script ~n
    ~until:(max 600_000L (Int64.add script.horizon 300_000L))
    (uni_cluster ~seed ~n ~faults
       ~values:(List.init values (fun i -> Printf.sprintf "v%d" (i + 1))))
