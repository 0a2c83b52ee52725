module K = Thc_util.Keyed

type violation = {
  property : [ `Order | `Result | `Liveness | `Replay ];
  info : string;
}

let pp_violation ppf v =
  let name =
    match v.property with
    | `Order -> "order"
    | `Result -> "result"
    | `Liveness -> "liveness"
    | `Replay -> "replay"
  in
  Format.fprintf ppf "SMR %s violation: %s" name v.info

let executions trace pid =
  List.filter_map
    (fun obs ->
      match (obs : Thc_sim.Obs.t) with
      | Executed { seq; op; result } -> Some (seq, (op, result))
      | _ -> None)
    (Thc_sim.Trace.outputs_of trace pid)

let check_safety trace ~replicas =
  let violations = ref [] in
  let add property info = violations := { property; info } :: !violations in
  let correct =
    List.filter (fun p -> p < replicas) (Thc_sim.Trace.correct_pids trace)
  in
  (* Each replica's executions in trace order, and indexed by seq with the
     first execution of a seq deciding. *)
  let execs =
    List.map
      (fun pid ->
        let ep = executions trace pid in
        let by_seq = K.Int.create 64 in
        List.iter
          (fun (seq, e) ->
            if not (K.Int.mem by_seq seq) then K.Int.add by_seq seq e)
          ep;
        (pid, ep, by_seq))
      correct
  in
  List.iter
    (fun (p, ep, _) ->
      List.iter
        (fun (q, _, eq) ->
          if p < q then
            List.iter
              (fun (seq, (op, result)) ->
                match K.Int.find_opt eq seq with
                | None -> ()  (* prefix difference is fine mid-run *)
                | Some (op', result') ->
                  if not (String.equal op op') then
                    add `Order
                      (Printf.sprintf "p%d/p%d differ at seq %d" p q seq)
                  else if not (String.equal result result') then
                    add `Result
                      (Printf.sprintf "p%d/p%d diverge at seq %d" p q seq))
              ep)
        execs)
    execs;
  List.rev !violations

let exec_events trace pid =
  List.filter_map
    (fun obs ->
      match (obs : Thc_sim.Obs.t) with
      | Executed { seq; op; result } -> Some (`Exec (seq, op, result))
      | Recovered { exec_count; _ } -> Some (`Recovered exec_count)
      | _ -> None)
    (Thc_sim.Trace.outputs_of trace pid)

let check_state_determinism trace ~replicas =
  let violations = ref [] in
  let add info = violations := { property = `Replay; info } :: !violations in
  List.iter
    (fun pid ->
      if pid < replicas then begin
        let store = Kv_store.create () in
        (* Stop at the first density break: replaying past a gap would only
           cascade spurious result mismatches.  A [Recovered] marker is a
           state transfer: the store jumped to the donor's checkpoint and
           the ops below it are compacted away, so from that point the
           replay can only check execution density — cross-replica result
           agreement past the jump is {!check_safety}'s job. *)
        let rec replay ~verify i = function
          | [] -> ()
          | `Recovered exec_count :: rest ->
            replay ~verify:false (exec_count + 1) rest
          | `Exec (seq, op, result) :: rest ->
            if seq <> i then
              add
                (Printf.sprintf "p%d executed seq %d at position %d (dense order broken)"
                   pid seq i)
            else begin
              if verify then begin
                let replayed =
                  Kv_store.encode_result (Kv_store.apply store (Kv_store.decode_op op))
                in
                if not (String.equal replayed result) then
                  add
                    (Printf.sprintf
                       "p%d seq %d: recorded result differs from sequential replay" pid seq)
              end;
              replay ~verify (i + 1) rest
            end
        in
        replay ~verify:true 1 (exec_events trace pid)
      end)
    (Thc_sim.Trace.correct_pids trace);
  List.rev !violations

let check_liveness trace ~expected =
  let completed = K.Pair.create 64 in
  List.iter
    (fun (_, pid, obs) ->
      match (obs : Thc_sim.Obs.t) with
      | Client_done { rid; _ } -> K.Pair.replace completed (pid, rid) ()
      | _ -> ())
    (Thc_sim.Trace.outputs trace);
  List.concat_map
    (fun (client, rids) ->
      List.filter_map
        (fun rid ->
          if K.Pair.mem completed (client, rid) then None
          else
            Some
              {
                property = `Liveness;
                info =
                  Printf.sprintf "client p%d request #%d incomplete" client rid;
              })
        rids)
    expected

let expect_range ~clients ~per_client ~first_client_pid =
  List.init clients (fun i ->
      ( first_client_pid + i,
        List.init per_client (fun r -> (i * per_client) + r) ))

let latencies_by_client trace =
  let tbl : float list K.Int.t = K.Int.create 8 in
  List.iter
    (fun (_, pid, obs) ->
      match (obs : Thc_sim.Obs.t) with
      | Client_done { latency_us; _ } ->
        let prev = Option.value ~default:[] (K.Int.find_opt tbl pid) in
        K.Int.replace tbl pid (Int64.to_float latency_us :: prev)
      | _ -> ())
    (Thc_sim.Trace.outputs trace);
  K.Int.fold (fun pid ls acc -> (pid, List.rev ls) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let client_latencies trace =
  List.filter_map
    (fun (_, _, obs) ->
      match (obs : Thc_sim.Obs.t) with
      | Client_done { latency_us; _ } -> Some (Int64.to_float latency_us)
      | _ -> None)
    (Thc_sim.Trace.outputs trace)

let executed_count trace ~pid = List.length (executions trace pid)

let commits trace ~replicas =
  let correct = Thc_sim.Trace.correct_pids trace in
  List.filter_map
    (fun (_, pid, obs) ->
      match (obs : Thc_sim.Obs.t) with
      | Committed { seq; _ }
        when pid < replicas && List.exists (Int.equal pid) correct ->
        Some seq
      | _ -> None)
    (Thc_sim.Trace.outputs trace)
  |> List.sort_uniq compare |> List.length

let distinct_ops_at_seq1 trace ~replicas =
  List.filter_map
    (fun pid ->
      List.find_map
        (fun obs ->
          match (obs : Thc_sim.Obs.t) with
          | Executed { seq = 1; op; _ } -> Some op
          | _ -> None)
        (Thc_sim.Trace.outputs_of trace pid))
    (List.filter (fun p -> p < replicas) (Thc_sim.Trace.correct_pids trace))
  |> List.sort_uniq compare |> List.length
