type violation = {
  property : [ `Validity | `Totality | `Sequencing | `Integrity | `Agreement ];
  info : string;
}

let pp_violation ppf v =
  let name =
    match v.property with
    | `Validity -> "validity"
    | `Totality -> "totality"
    | `Sequencing -> "sequencing"
    | `Integrity -> "integrity"
    | `Agreement -> "agreement"
  in
  Format.fprintf ppf "SRB %s violation: %s" name v.info

let deliveries trace ~sender ~pid =
  List.filter_map
    (fun obs ->
      match (obs : Thc_sim.Obs.t) with
      | Srb_delivered { sender = s; seq; value } when s = sender ->
        Some (seq, value)
      | _ -> None)
    (Thc_sim.Trace.outputs_of trace pid)

let broadcasts trace ~sender =
  List.filter_map
    (fun obs ->
      match (obs : Thc_sim.Obs.t) with
      | Srb_broadcast { seq; value } -> Some (seq, value)
      | _ -> None)
    (Thc_sim.Trace.outputs_of trace sender)

(* Each seq's first value, as [List.assoc_opt] would find it. *)
let first_by_seq pairs =
  let t = Hashtbl.create (List.length pairs) in
  List.iter (fun (seq, v) -> if not (Hashtbl.mem t seq) then Hashtbl.add t seq v) pairs;
  t

let check (trace : _ Thc_sim.Trace.t) ~sender =
  let violations = ref [] in
  let add property info = violations := { property; info } :: !violations in
  (* One walk collects the crashes, every pid's deliveries from [sender]
     and the sender's broadcasts, each list newest first. *)
  let crashed = Hashtbl.create 8 in
  let received = Array.make trace.n [] and sent = ref [] in
  List.iter
    (function
      | Thc_sim.Trace.Crashed { pid; _ } -> Hashtbl.replace crashed pid ()
      | Output { pid; obs = Thc_sim.Obs.Srb_delivered { sender = s; seq; value }; _ }
        when s = sender && pid >= 0 && pid < trace.n ->
        received.(pid) <- (seq, value) :: received.(pid)
      | Output { pid; obs = Thc_sim.Obs.Srb_broadcast { seq; value }; _ } when pid = sender ->
        sent := (seq, value) :: !sent
      | _ -> ())
    trace.entries;
  let correct pid = not (List.mem pid trace.byzantine || Hashtbl.mem crashed pid) in
  let delivered =
    List.filter_map
      (fun pid ->
        if correct pid then
          let ds = List.rev received.(pid) in
          Some (pid, ds, first_by_seq ds)
        else None)
      (List.init trace.n Fun.id)
  in
  (* Sequencing: each correct process delivers 1, 2, 3, ... in order. *)
  List.iter
    (fun (pid, ds, _) ->
      List.iteri
        (fun i (seq, _) ->
          if seq <> i + 1 then
            add `Sequencing
              (Printf.sprintf "p%d delivery #%d has seq %d" pid (i + 1) seq))
        ds)
    delivered;
  (* Agreement + totality: pairwise prefix consistency and equal coverage. *)
  List.iter
    (fun (p, dp, by_p) ->
      List.iter
        (fun (q, dq, by_q) ->
          if p < q then begin
            List.iter
              (fun (seq, v) ->
                match Hashtbl.find_opt by_q seq with
                | Some v' when not (String.equal v v') ->
                  add `Agreement
                    (Printf.sprintf "p%d and p%d disagree at seq %d" p q seq)
                | Some _ -> ()
                | None ->
                  add `Totality
                    (Printf.sprintf "p%d delivered seq %d but p%d did not" p seq
                       q))
              dp;
            List.iter
              (fun (seq, _) ->
                if not (Hashtbl.mem by_p seq) then
                  add `Totality
                    (Printf.sprintf "p%d delivered seq %d but p%d did not" q seq
                       p))
              dq
          end)
        delivered)
    delivered;
  if correct sender then begin
    let bs = List.rev !sent in
    let by_seq = first_by_seq bs in
    (* Validity: everything broadcast is delivered everywhere. *)
    List.iter
      (fun (seq, value) ->
        List.iter
          (fun (pid, _, by_pid) ->
            match Hashtbl.find_opt by_pid seq with
            | Some v when String.equal v value -> ()
            | Some _ ->
              add `Validity
                (Printf.sprintf "p%d delivered a different value at seq %d" pid
                   seq)
            | None ->
              add `Validity
                (Printf.sprintf "p%d never delivered broadcast seq %d" pid seq))
          delivered)
      bs;
    (* Integrity: nothing delivered that was not broadcast. *)
    List.iter
      (fun (pid, ds, _) ->
        List.iter
          (fun (seq, value) ->
            match Hashtbl.find_opt by_seq seq with
            | Some v when String.equal v value -> ()
            | Some _ | None ->
              add `Integrity
                (Printf.sprintf "p%d delivered (%d, ...) never broadcast by p%d"
                   pid seq sender))
          ds)
      delivered
  end;
  List.rev !violations
