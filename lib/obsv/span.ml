(* Request-span tracing: each client request is a root span whose life is
   a fixed set of causal marks (submitted, ingested by the leader, proposed
   in a batch, commit-vote sent, committed, executed, replied).  Marks are
   virtual-time stamps, so span data is deterministic per seed and
   byte-identical across worker counts.  The recorder is a plain mutable
   store keyed by request id — rids are globally unique across clients in
   every driver — and every entry point is guarded by [enabled], so a
   disabled recorder (the [nop] singleton) costs one boolean test on the
   engine hot path and allocates nothing. *)

type mark =
  | Submit
  | Ingress
  | Propose
  | Commit_send
  | Committed
  | Executed
  | Reply_done

let mark_count = 7

let mark_index = function
  | Submit -> 0
  | Ingress -> 1
  | Propose -> 2
  | Commit_send -> 3
  | Committed -> 4
  | Executed -> 5
  | Reply_done -> 6

let mark_names =
  [| "submit"; "ingress"; "propose"; "commit_send"; "committed"; "executed";
     "done" |]

(* The six latency phases are the gaps between consecutive marks; [Other]
   exists only for trusted-op attribution (view changes, probes, anything
   charged outside a request's critical path). *)
type phase =
  | Submit_phase
  | Batching_phase
  | Prepare_phase
  | Commit_phase
  | Execute_phase
  | Reply_phase
  | Other_phase

let phase_count = 7

let latency_phase_count = 6

let phase_index = function
  | Submit_phase -> 0
  | Batching_phase -> 1
  | Prepare_phase -> 2
  | Commit_phase -> 3
  | Execute_phase -> 4
  | Reply_phase -> 5
  | Other_phase -> 6

let phase_names =
  [| "submit"; "batching"; "prepare"; "commit"; "execute"; "reply"; "other" |]

let phase_name p = phase_names.(phase_index p)

(* Phase i of the first six spans marks (i, i+1). *)
let phase_bounds i = (i, i + 1)

type span = {
  s_rid : int;
  mutable s_client : int;  (* -1 until a mark supplies it *)
  mutable s_seq : int;  (* -1 until the protocol assigns a slot *)
  s_marks : int64 array;  (* [mark_count]; -1L = unset; first write wins *)
  s_ops : int array;  (* [phase_count]; trusted ops charged per phase *)
}

type t = {
  enabled : bool;
  spans : span Thc_util.Keyed.Int.t;  (* by rid *)
  mutable cur_phase : int;  (* phase index; -1 = outside any phase *)
  mutable cur_rids : int list;  (* rids the current phase is serving *)
  phase_label_ops : Label_counts.t array;  (* per phase index *)
}

let create () =
  {
    enabled = true;
    spans = Thc_util.Keyed.Int.create 256;
    cur_phase = -1;
    cur_rids = [];
    phase_label_ops = Array.init phase_count (fun _ -> Label_counts.create ());
  }

let nop =
  {
    enabled = false;
    spans = Thc_util.Keyed.Int.create 1;
    cur_phase = -1;
    cur_rids = [];
    phase_label_ops = [||];
  }

let enabled t = t.enabled

let span_of t rid =
  match Thc_util.Keyed.Int.find_opt t.spans rid with
  | Some s -> s
  | None ->
    let s =
      {
        s_rid = rid;
        s_client = -1;
        s_seq = -1;
        s_marks = Array.make mark_count (-1L);
        s_ops = Array.make phase_count 0;
      }
    in
    Thc_util.Keyed.Int.add t.spans rid s;
    s

let mark t ?client ?seq ~rid kind ~at =
  if t.enabled then begin
    let s = span_of t rid in
    (match client with
    | Some c when s.s_client < 0 -> s.s_client <- c
    | _ -> ());
    (match seq with Some q when s.s_seq < 0 -> s.s_seq <- q | _ -> ());
    let i = mark_index kind in
    if s.s_marks.(i) < 0L then s.s_marks.(i) <- at
  end

let mark_all t ?seq ~rids kind ~at =
  if t.enabled then List.iter (fun rid -> mark t ?seq ~rid kind ~at) rids

(* Ambient attribution scope: trusted ops charged while [f] runs are
   credited to [phase] (and to each rid the phase is serving).  Nesting
   restores the outer scope on exit, exceptions included.  The restore
   is written out so that a scope allocates no closure; a raise keeps
   its backtrace. *)
let in_phase t phase ~rids f =
  if not t.enabled then f ()
  else begin
    let saved_phase = t.cur_phase and saved_rids = t.cur_rids in
    t.cur_phase <- phase_index phase;
    t.cur_rids <- rids;
    match f () with
    | v ->
      t.cur_phase <- saved_phase;
      t.cur_rids <- saved_rids;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      t.cur_phase <- saved_phase;
      t.cur_rids <- saved_rids;
      Printexc.raise_with_backtrace e bt
  end

(* Ledger-observer hook ({!Ledger.set_observer}): one aggregate charge per
   phase+label, plus the full charge on every rid in scope — a batch of b
   requests each "paid" the attestation its batch needed, which is exactly
   the amortization view the batching tables measure. *)
let rec charge_rids t p n = function
  | [] -> ()
  | rid :: rest ->
    let s = span_of t rid in
    s.s_ops.(p) <- s.s_ops.(p) + n;
    charge_rids t p n rest

let attribute t label n =
  if t.enabled then begin
    let p = if t.cur_phase < 0 then phase_index Other_phase else t.cur_phase in
    Label_counts.add t.phase_label_ops.(p) label n;
    charge_rids t p n t.cur_rids
  end

(* --- frozen views -------------------------------------------------------- *)

(* Plain immutable snapshots, detached from the recorder, so exec pool
   results can carry them and merge in key order. *)
type view = {
  v_rid : int;
  v_client : int;
  v_seq : int;
  v_marks : int64 array;
  v_ops : int array;
}

let views t =
  Thc_util.Keyed.Int.fold
    (fun _ s acc ->
      {
        v_rid = s.s_rid;
        v_client = s.s_client;
        v_seq = s.s_seq;
        v_marks = Array.copy s.s_marks;
        v_ops = Array.copy s.s_ops;
      }
      :: acc)
    t.spans []
  |> List.sort (fun a b -> compare a.v_rid b.v_rid)

let phase_duration v i =
  let a, b = phase_bounds i in
  let ta = v.v_marks.(a) and tb = v.v_marks.(b) in
  if ta >= 0L && tb >= ta then Some (Int64.sub tb ta) else None

let total_latency v =
  let s = v.v_marks.(mark_index Submit)
  and d = v.v_marks.(mark_index Reply_done) in
  if s >= 0L && d >= s then Some (Int64.sub d s) else None

let complete v = total_latency v <> None

(* Marks are causally ordered, so the highest set index is how far the
   request got before the pipeline stopped (or finished). *)
let last_mark v =
  let best = ref None in
  Array.iteri
    (fun i t -> if t >= 0L then best := Some (mark_names.(i), t))
    v.v_marks;
  !best

(* Per-phase durations of one span, largest first, with each phase's share
   of the span's accounted time — the critical path of that request. *)
let critical_path v =
  let segs =
    List.filter_map
      (fun i ->
        match phase_duration v i with
        | Some d when d > 0L -> Some (phase_names.(i), d)
        | _ -> None)
      (List.init latency_phase_count Fun.id)
  in
  let total =
    List.fold_left (fun acc (_, d) -> Int64.add acc d) 0L segs
  in
  List.stable_sort (fun (_, a) (_, b) -> compare b a) segs
  |> List.map (fun (name, d) ->
         let share =
           if total = 0L then 0.0 else Int64.to_float d /. Int64.to_float total
         in
         (name, d, share))

let slowest ?(top = 5) vs =
  List.filter_map (fun v -> Option.map (fun l -> (l, v)) (total_latency v)) vs
  |> List.stable_sort (fun (a, va) (b, vb) ->
         match compare b a with 0 -> compare va.v_rid vb.v_rid | c -> c)
  |> List.filteri (fun i _ -> i < top)
  |> List.map snd

(* --- aggregate trusted-op rows ------------------------------------------- *)

(* [(phase name, [(label, count)])] for phases that charged anything, in
   causal phase order with labels sorted — a plain value, so multi-seed
   campaigns can ship it across the pool and merge deterministically. *)
let ops_rows t =
  if not t.enabled then []
  else
    List.filter_map
      (fun i ->
        let rows =
          Label_counts.fold
            (fun label c acc -> (label, c) :: acc)
            t.phase_label_ops.(i) []
          |> List.sort compare
        in
        if rows = [] then None else Some (phase_names.(i), rows))
      (List.init phase_count Fun.id)

let merge_ops op_rows =
  let merged = Hashtbl.create 16 in
  List.iter
    (List.iter (fun (phase, rows) ->
         List.iter
           (fun (label, n) ->
             let key = (phase, label) in
             match Hashtbl.find_opt merged key with
             | Some r -> r := !r + n
             | None -> Hashtbl.add merged key (ref n))
           rows))
    op_rows;
  List.filter_map
    (fun i ->
      let phase = phase_names.(i) in
      let rows =
        Hashtbl.fold
          (fun (p, label) r acc -> if p = phase then (label, !r) :: acc else acc)
          merged []
        |> List.sort compare
      in
      if rows = [] then None else Some (phase, rows))
    (List.init phase_count Fun.id)

(* --- summaries ----------------------------------------------------------- *)

type phase_row = {
  p_name : string;
  p_count : int;  (* spans that traversed this phase *)
  p_p50 : int64 option;
  p_p99 : int64 option;
  p_p999 : int64 option;
  p_mean : float option;
  p_max : int64 option;
  p_ops : (string * int) list;  (* aggregate trusted ops charged here *)
}

type summary = {
  spans_total : int;
  spans_complete : int;
  rows : phase_row list;  (* causal order; phases no span traversed omitted *)
  other_ops : (string * int) list;  (* charged outside any request phase *)
}

let summarize ?(ops = []) vs =
  let hists = Array.init latency_phase_count (fun _ -> Metrics.Histogram.create ()) in
  List.iter
    (fun v ->
      for i = 0 to latency_phase_count - 1 do
        match phase_duration v i with
        | Some d -> Metrics.Histogram.record hists.(i) d
        | None -> ()
      done)
    vs;
  let rows =
    List.filter_map
      (fun i ->
        let h = hists.(i) in
        if Metrics.Histogram.count h = 0 then None
        else
          Some
            {
              p_name = phase_names.(i);
              p_count = Metrics.Histogram.count h;
              p_p50 = Metrics.Histogram.p50 h;
              p_p99 = Metrics.Histogram.p99 h;
              p_p999 = Metrics.Histogram.p999 h;
              p_mean = Metrics.Histogram.mean h;
              p_max = Metrics.Histogram.max h;
              p_ops = (match List.assoc_opt phase_names.(i) ops with
                       | Some rows -> rows
                       | None -> []);
            })
      (List.init latency_phase_count Fun.id)
  in
  {
    spans_total = List.length vs;
    spans_complete = List.length (List.filter complete vs);
    rows;
    other_ops =
      (match List.assoc_opt phase_names.(phase_index Other_phase) ops with
      | Some rows -> rows
      | None -> []);
  }

(* --- JSON ---------------------------------------------------------------- *)

let view_to_json v =
  let marks =
    List.filter_map
      (fun i ->
        if v.v_marks.(i) >= 0L then
          Some (mark_names.(i), Json.Int (Int64.to_int v.v_marks.(i)))
        else None)
      (List.init mark_count Fun.id)
  in
  let ops =
    List.filter_map
      (fun i ->
        if v.v_ops.(i) > 0 then Some (phase_names.(i), Json.Int v.v_ops.(i))
        else None)
      (List.init phase_count Fun.id)
  in
  Json.Obj
    ([ ("type", Json.Str "span"); ("rid", Json.Int v.v_rid) ]
    @ (if v.v_client >= 0 then [ ("client", Json.Int v.v_client) ] else [])
    @ (if v.v_seq >= 0 then [ ("seq", Json.Int v.v_seq) ] else [])
    @ [ ("marks", Json.Obj marks); ("ops", Json.Obj ops) ]
    @
    match total_latency v with
    | Some l -> [ ("total_us", Json.Int (Int64.to_int l)) ]
    | None -> [ ("total_us", Json.Null) ])

let index_of_name names name =
  let rec go i =
    if i >= Array.length names then None
    else if names.(i) = name then Some i
    else go (i + 1)
  in
  go 0

let view_of_json j =
  let ( let* ) = Option.bind in
  let int_member k = Option.bind (Json.member k j) Json.to_int in
  let* rid = int_member "rid" in
  let marks = Array.make mark_count (-1L) in
  let ops = Array.make phase_count 0 in
  let* () =
    match Json.member "marks" j with
    | Some (Json.Obj fields) ->
      List.iter
        (fun (name, v) ->
          match (index_of_name mark_names name, Json.to_int v) with
          | Some i, Some t -> marks.(i) <- Int64.of_int t
          | _ -> ())
        fields;
      Some ()
    | _ -> None
  in
  (match Json.member "ops" j with
  | Some (Json.Obj fields) ->
    List.iter
      (fun (name, v) ->
        match (index_of_name phase_names name, Json.to_int v) with
        | Some i, Some n -> ops.(i) <- n
        | _ -> ())
      fields
  | _ -> ());
  Some
    {
      v_rid = rid;
      v_client = Option.value (int_member "client") ~default:(-1);
      v_seq = Option.value (int_member "seq") ~default:(-1);
      v_marks = marks;
      v_ops = ops;
    }

let ops_to_json rows = Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) rows)

let phase_row_to_json r =
  let opt_i64 = function
    | Some v -> Json.Int (Int64.to_int v)
    | None -> Json.Null
  in
  Json.Obj
    [
      ("type", Json.Str "phase");
      ("phase", Json.Str r.p_name);
      ("count", Json.Int r.p_count);
      ("p50_us", opt_i64 r.p_p50);
      ("p99_us", opt_i64 r.p_p99);
      ("p999_us", opt_i64 r.p_p999);
      ( "mean_us",
        match r.p_mean with Some m -> Json.Float m | None -> Json.Null );
      ("max_us", opt_i64 r.p_max);
      ("ops", ops_to_json r.p_ops);
    ]

(* --- rendering ----------------------------------------------------------- *)

let pp_summary ppf s =
  Format.fprintf ppf "@[<v>%d span(s), %d complete@," s.spans_total
    s.spans_complete;
  Format.fprintf ppf
    "| %-8s | %5s | %8s | %8s | %8s | %8s | %8s | %11s |@," "phase" "count"
    "p50 µs" "p99 µs" "p999 µs" "mean µs" "max µs" "trusted ops";
  Format.fprintf ppf
    "|----------|-------|----------|----------|----------|----------|----------|-------------|@,";
  let cell = function Some v -> Int64.to_string v | None -> "-" in
  List.iter
    (fun r ->
      Format.fprintf ppf
        "| %-8s | %5d | %8s | %8s | %8s | %8s | %8s | %11d |@," r.p_name
        r.p_count (cell r.p_p50) (cell r.p_p99) (cell r.p_p999)
        (match r.p_mean with
        | Some m -> Printf.sprintf "%.1f" m
        | None -> "-")
        (cell r.p_max)
        (List.fold_left (fun acc (_, n) -> acc + n) 0 r.p_ops))
    s.rows;
  let attributed =
    List.filter (fun r -> r.p_ops <> []) s.rows
  in
  if attributed <> [] || s.other_ops <> [] then begin
    Format.fprintf ppf "@,trusted-op attribution by phase:@,";
    List.iter
      (fun r ->
        Format.fprintf ppf "  %-8s %s@," r.p_name
          (String.concat ", "
             (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) r.p_ops)))
      attributed;
    if s.other_ops <> [] then
      Format.fprintf ppf "  %-8s %s@," "other"
        (String.concat ", "
           (List.map (fun (l, n) -> Printf.sprintf "%s=%d" l n) s.other_ops))
  end;
  Format.fprintf ppf "@]"

let pp_critical_path ppf v =
  Format.fprintf ppf "@[<v>rid %d" v.v_rid;
  if v.v_client >= 0 then Format.fprintf ppf " (client %d" v.v_client
  else Format.fprintf ppf " (client ?";
  if v.v_seq >= 0 then Format.fprintf ppf ", seq %d)" v.v_seq
  else Format.fprintf ppf ")";
  (match total_latency v with
  | Some l -> Format.fprintf ppf " — total %Ld µs@," l
  | None -> Format.fprintf ppf " — incomplete (no reply)@,");
  List.iter
    (fun (name, d, share) ->
      Format.fprintf ppf "  %-12s %8Ld µs  %5.1f%%@," name d (100.0 *. share))
    (critical_path v);
  Format.fprintf ppf "@]"
