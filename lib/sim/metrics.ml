(* Kinds hash in [Hashtbl.hash] order: both folds below sort by count
   only, so kinds of equal count keep the table's order. *)
module Kinds = Thc_util.Keyed.Hash_order.String

let kind_counts trace ~classify =
  let counts = Kinds.create 16 in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { msg; _ } ->
        let kind = classify msg in
        Kinds.replace counts kind
          (1 + Option.value ~default:0 (Kinds.find_opt counts kind))
      | _ -> ())
    trace.Trace.entries;
  Kinds.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

type 'm kind_tally = {
  classify : 'm -> string;
  counts : int ref Kinds.t;
  mutable last : ('m * int ref) option;
      (* A broadcast sends one message value to every destination in a
         row, so the previous send's label is usually the answer. *)
}

(* The same table as [kind_counts], fed the labels in the same order
   (a first occurrence adds, later ones only count), so its fold lists
   equal counts in the same order. *)
let kind_tally ~classify = { classify; counts = Kinds.create 16; last = None }

let tally_send t msg =
  match t.last with
  | Some (m, count) when m == msg -> incr count
  | Some _ | None ->
    let kind = t.classify msg in
    let count =
      match Kinds.find_opt t.counts kind with
      | Some count -> count
      | None ->
        let count = ref 0 in
        Kinds.add t.counts kind count;
        count
    in
    incr count;
    t.last <- Some (msg, count)

let tally_counts t =
  Kinds.fold (fun k v acc -> (k, !v) :: acc) t.counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let sends_by_source trace =
  let counts = Hashtbl.create 16 in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { src; _ } ->
        Hashtbl.replace counts src
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts src))
      | _ -> ())
    trace.Trace.entries;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []
  |> List.sort compare

type delivery_report = {
  latencies : float list;
  delivered : int;
  held_at_end : int;
  dropped : int;
  in_flight_at_end : int;
}

let delivery_report trace =
  let sent_at = Hashtbl.create 256 in
  (* Per-seq lifecycle: a held message can later be delivered (link healed)
     or dropped (link degraded); only seqs whose *last* state is Held are
     still queued when the trace ends. *)
  let delivered = Hashtbl.create 256 in
  let dropped = Hashtbl.create 16 in
  let held = Hashtbl.create 16 in
  let latencies = ref [] in
  List.iter
    (fun entry ->
      match entry with
      | Trace.Sent { time; seq; _ } -> Hashtbl.replace sent_at seq time
      | Trace.Delivered { time; seq; _ } ->
        Hashtbl.replace delivered seq ();
        (match Hashtbl.find_opt sent_at seq with
        | Some t0 ->
          latencies := Int64.to_float (Int64.sub time t0) :: !latencies
        | None -> ())
      | Trace.Dropped { seq; _ } -> Hashtbl.replace dropped seq ()
      | Trace.Held { seq; _ } -> Hashtbl.replace held seq ()
      | Trace.Timer_fired _ | Trace.Crashed _ | Trace.Output _ -> ())
    trace.Trace.entries;
  let held_at_end =
    Hashtbl.fold
      (fun seq () acc ->
        if Hashtbl.mem delivered seq || Hashtbl.mem dropped seq then acc
        else acc + 1)
      held 0
  in
  let matched = Hashtbl.length delivered in
  {
    latencies = List.rev !latencies;
    delivered = matched;
    held_at_end;
    dropped = Hashtbl.length dropped;
    in_flight_at_end =
      Hashtbl.length sent_at - matched - Hashtbl.length dropped - held_at_end;
  }

let delivery_latencies trace = (delivery_report trace).latencies

let events_per_virtual_ms trace =
  let ms = Int64.to_float trace.Trace.end_time /. 1000.0 in
  if ms <= 0.0 then 0.0
  else float_of_int (List.length trace.Trace.entries) /. ms
