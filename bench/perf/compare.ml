(* Run records and the run-to-run agreement check behind [perf --compare].

   Every invocation given [--out FILE] appends one record line to FILE: the
   result object of its last stdout line, plus the workload, seed, mode and
   output digest it belongs to.  [report] sets two such files side by side. *)

module J = Thc_obsv.Json

type record = {
  workload : string;
  seed : int;
  traced : bool;
  digest : string;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * (float * string)) list;  (* name -> (value, unit) *)
}

(* The result object, exactly as the last stdout line of a run. *)
let result_json r =
  J.Obj
    [
      ("correct", J.Bool r.correct);
      ("attempted", J.Int r.attempted);
      ("failed", J.Int r.failed);
      ( "metrics",
        J.Obj
          (List.map
             (fun (name, (v, u)) ->
               (name, J.Obj [ ("value", J.Float v); ("unit", J.Str u) ]))
             r.metrics) );
    ]

let record_json r =
  J.Obj
    [
      ("type", J.Str "perf-run");
      ("workload", J.Str r.workload);
      ("seed", J.Int r.seed);
      ("trace", J.Int (if r.traced then 1 else 0));
      ("output_digest", J.Str r.digest);
      ("result", result_json r);
    ]

let record_of_json j =
  let ( let* ) = Option.bind in
  let get k f = Option.bind (J.member k j) f in
  let* workload = get "workload" J.to_str in
  let* seed = get "seed" J.to_int in
  let* trace = get "trace" J.to_int in
  let* digest = get "output_digest" J.to_str in
  let* result = J.member "result" j in
  let* correct = match J.member "correct" result with Some (J.Bool b) -> Some b | _ -> None in
  let* attempted = Option.bind (J.member "attempted" result) J.to_int in
  let* failed = Option.bind (J.member "failed" result) J.to_int in
  let* metrics =
    match J.member "metrics" result with
    | Some (J.Obj fields) ->
      Some
        (List.filter_map
           (fun (name, m) ->
             let* v = Option.bind (J.member "value" m) J.to_float in
             let* u = Option.bind (J.member "unit" m) J.to_str in
             Some (name, (v, u)))
           fields)
    | _ -> None
  in
  Some { workload; seed; traced = trace = 1; digest; correct; attempted; failed; metrics }

let read path =
  match In_channel.with_open_bin path In_channel.input_lines with
  | exception Sys_error e -> Error e
  | lines ->
    let rec go acc i = function
      | [] -> Ok (List.rev acc)
      | l :: rest when String.trim l = "" -> go acc (i + 1) rest
      | l :: rest -> (
        match Result.map record_of_json (J.parse l) with
        | Ok (Some r) -> go (r :: acc) (i + 1) rest
        | Ok None | Error _ -> Error (Printf.sprintf "%s:%d: not a perf-run record" path i))
    in
    go [] 1 lines

(* Per-layer metrics that count work rather than time it: deterministic per
   seed, so two runs of one build must agree on them exactly. *)
let exact_units = [ "count"; "ev/req"; "msg/req"; "ops/req"; "req/commit"; "ops/ev" ]

let uniq xs = List.sort_uniq compare xs

(* Set-up time may also grow by 0.05 s whatever its share: a few ms of
   process start-up would otherwise be a regression. *)
let setup_floor_s = 0.05

let bound (m : Spec.metric) =
  let r = Option.value m.bound ~default:0. in
  if m.name = "setup_s" then Pstats.Relative_or_abs (r, setup_floor_s) else Pstats.Relative r

let bound_text = function
  | Pstats.Relative r -> Printf.sprintf "%.1f%%" (100. *. r)
  | Relative_or_abs (r, a) -> Printf.sprintf "%.1f%%|%g" (100. *. r) a
  | Any_increase -> "any"

let report (spec : Spec.t) ~a ~b =
  let buf = Buffer.create 4096 in
  let ok = ref true in
  let line fmt = Printf.kbprintf (fun b -> Buffer.add_char b '\n') buf fmt in
  let samples rs ~workload name =
    List.filter_map
      (fun r ->
        if r.workload = workload && not r.traced then
          Option.map fst (List.assoc_opt name r.metrics)
        else None)
      rs
  in
  let present = List.map (fun r -> r.workload) (a @ b) in
  let workloads = List.filter (fun w -> List.mem w present) spec.workloads in
  line "%-13s %-9s %4s %12s %7s %4s %12s %7s %8s %10s  %s" "metric" "workload"
    "n_A" "median_A" "spread" "n_B" "median_B" "spread" "delta" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          match (samples a ~workload:w m.name, samples b ~workload:w m.name) with
          | [], [] -> ()
          | xa, xb when xa = [] || xb = [] ->
            ok := false;
            line "%-13s %-9s %4d %12s %7s %4d %12s %7s %8s %10s  MISSING" m.name w
              (List.length xa) "-" "-" (List.length xb) "-" "-" "-" "-"
          | xa, xb ->
            let ma = Pstats.median xa and mb = Pstats.median xb in
            let bound = bound m in
            let pass = Pstats.within ~better:m.better ~bound ~base:ma ~cand:mb in
            if not pass then ok := false;
            line "%-13s %-9s %4d %12.6g %6.2f%% %4d %12.6g %6.2f%% %+7.2f%% %10s  %s"
              m.name w (List.length xa) ma
              (100. *. Pstats.spread xa)
              (List.length xb) mb
              (100. *. Pstats.spread xb)
              (if ma = 0. then 0. else 100. *. (mb -. ma) /. Float.abs ma)
              (bound_text bound)
              (if pass then "PASS" else "OUT"))
        spec.end_to_end;
      (* Failed calls are checked as a share of attempted ones, and may not
         rise at all. *)
      let share rs =
        let mine = List.filter (fun r -> r.workload = w) rs in
        let att = List.fold_left (fun s r -> s + r.attempted) 0 mine in
        let fl = List.fold_left (fun s r -> s + r.failed) 0 mine in
        if att = 0 then 0. else float_of_int fl /. float_of_int att
      in
      let fa = share a and fb = share b in
      let pass = Pstats.within ~better:Pstats.Lower ~bound:Pstats.Any_increase ~base:fa ~cand:fb in
      if not pass then ok := false;
      line "%-13s %-9s %4s %12.6g %7s %4s %12.6g %7s %8s %10s  %s" "failed_share" w ""
        fa "" "" fb "" "" (bound_text Pstats.Any_increase) (if pass then "PASS" else "OUT"))
    workloads;
  (* Output digests and exact counts, per (workload, seed) across both sets. *)
  let all = a @ b in
  let keys = uniq (List.map (fun r -> (r.workload, r.seed)) all) in
  List.iter
    (fun (w, seed) ->
      let rs = List.filter (fun r -> r.workload = w && r.seed = seed) all in
      let digests = uniq (List.map (fun r -> r.digest) rs) in
      let same = List.length digests = 1 in
      if not same then ok := false;
      line "output_digest %-9s seed %d: %s over %d run(s)" w seed
        (if same then "identical " ^ List.hd digests
         else "MISMATCH " ^ String.concat " " digests)
        (List.length rs);
      let traced = List.filter (fun r -> r.traced) rs in
      List.iter
        (fun (m : Spec.metric) ->
          if List.mem m.unit_ exact_units then
            let values =
              uniq
                (List.filter_map
                   (fun r -> Option.map fst (List.assoc_opt m.name r.metrics))
                   traced)
            in
            if List.length values > 1 then begin
              ok := false;
              line "count %s %s seed %d: MISMATCH %s" m.name w seed
                (String.concat " " (List.map (Printf.sprintf "%.17g") values))
            end)
        spec.per_layer)
    keys;
  line "%s" (if !ok then "agreement: PASS" else "agreement: OUT");
  (Buffer.contents buf, !ok)
