type outcome = {
  decisions : string option array;
  agreement : bool;
  validity : bool;
  termination : bool;
  final_view : int;
  messages : int;
  duration_us : int64;
}

(* Process i's input travels as the operation [Put ("decision", input)]; the
   value decided is the input carried by whatever request commits at seq 1. *)
let op_of_input input = Thc_replication.Kv_store.Put ("decision", input)

let input_of_op op =
  match Thc_replication.Kv_store.decode_op op with
  | Thc_replication.Kv_store.Put ("decision", input) -> Some input
  | _ -> None

let first_decision trace ~pid =
  let rec go = function
    | [] -> None
    | obs :: rest ->
      (match (obs : Thc_sim.Obs.t) with
      | Executed { seq = 1; op; _ } -> input_of_op op
      | _ -> go rest)
  in
  go (Thc_sim.Trace.outputs_of trace pid)

let run ~f ~inputs ?(seed = 1L) ?(delay = Thc_sim.Delay.Uniform (50L, 500L))
    ?(crash_leader = false) () =
  let n = (2 * f) + 1 in
  if Array.length inputs <> n then
    invalid_arg "Weak_validity.run: inputs must have length 2f+1";
  (* pids 0..n-1: replicas; pids n..2n-1: the same processes' client halves
     (process i = replica i + client n+i, sharing fate). *)
  let (Thc_replication.Cluster.Cluster
        { engine; keyring; client; final_view; _ }) =
    Thc_replication.Cluster.create Minbft ~f ~batch:1 ~checkpoint_interval:0
      ~clients:n ~seed ~delay ~tracing:Thc_sim.Engine.Outputs_only
  in
  Array.iteri
    (fun i input ->
      Thc_sim.Engine.set_behavior engine (n + i)
        (client ~rid_base:0
           ~ident:(Thc_crypto.Keyring.secret keyring ~pid:(n + i))
           ~plan:[ (Int64.of_int (100 + (i * 37)), op_of_input input) ]))
    inputs;
  if crash_leader then begin
    Thc_sim.Engine.schedule_crash engine ~pid:0 ~at:50L;
    Thc_sim.Engine.schedule_crash engine ~pid:n ~at:50L
  end;
  let trace = Thc_sim.Engine.run ~until:2_000_000L ~max_events:20_000_000 engine in
  let correct i = (not crash_leader) || i > 0 in
  let decisions = Array.init n (fun pid -> first_decision trace ~pid) in
  let correct_decisions =
    List.filter_map
      (fun i -> if correct i then Some decisions.(i) else None)
      (List.init n (fun i -> i))
  in
  let termination = List.for_all Option.is_some correct_decisions in
  let agreement =
    match List.filter_map Fun.id correct_decisions with
    | [] -> true
    | first :: rest -> List.for_all (String.equal first) rest
  in
  let validity =
    if crash_leader then true
    else
      match inputs.(0) with
      | common when Array.for_all (String.equal common) inputs ->
        List.for_all
          (function Some d -> String.equal d common | None -> false)
          correct_decisions
      | _ -> true
  in
  {
    decisions;
    agreement;
    validity;
    termination;
    final_view = final_view ();
    messages = Thc_obsv.Link_stats.sends (Thc_sim.Engine.stats engine);
    duration_us = trace.Thc_sim.Trace.end_time;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>decisions: %s@,agreement=%b validity=%b termination=%b view=%d \
     msgs=%d dur=%Ldus@]"
    (String.concat ", "
       (Array.to_list
          (Array.map (function Some d -> d | None -> "-") o.decisions)))
    o.agreement o.validity o.termination o.final_view o.messages o.duration_us
