(* perf.exe: the repository's wall-clock benchmark (see README.md here).

   perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
            [--out FILE] [--trace-out FILE]
   perf.exe --compare A.jsonl B.jsonl [--bench BENCHMARK.json]
   perf.exe --smoke [--bench BENCHMARK.json]

   The last stdout line of a measuring run is one JSON object
   {correct, attempted, failed, metrics}; the exit code is 0 only when every
   call's check held and every pass produced the same output digest. *)

let workload = ref ""
let seed = ref 1
let seconds = ref 25.
let trace = ref 0
let quick = ref false
let out = ref ""
let trace_out = ref ""
let setup_only = ref false
let compare = ref false
let smoke = ref false
let bench = ref "BENCHMARK.json"
let anon = ref []

let usage =
  "perf.exe --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick] [--out FILE] \
   [--trace-out FILE]\n\
   perf.exe --compare A.jsonl B.jsonl [--bench FILE]\n\
   perf.exe --smoke [--bench FILE]"

let spec =
  Arg.align
    [
      ("--workload", Arg.Set_string workload, "W explore | smr_long | loadtest | classify");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measurement window (default 25)");
      ("--trace", Arg.Set_int trace, "0|1 1: the traced per-layer run");
      ("--quick", Arg.Set quick, " tiny inputs, exactly two passes");
      ("--out", Arg.Set_string out, "FILE append this run's record (for --compare)");
      ("--trace-out", Arg.Set_string trace_out, "FILE span JSONL of a traced run");
      ("--setup-only", Arg.Set setup_only, " set up, then exit (setup_s probe)");
      ("--compare", Arg.Set compare, " compare two files of --out records");
      ("--smoke", Arg.Set smoke, " run every workload tiny and check the metric table");
      ("--bench", Arg.Set_string bench, "FILE metric table (default BENCHMARK.json)");
    ]

let now = Tracer.now

(* Fresh processes that only set up, timed from spawn to exit: runtime and
   module initialisation, input generation and warm-up calls.  They are
   spawned a few at a time between timed passes: the host's slow spells
   come in bursts of a few hundred ms, and samples taken back to back would
   often all land in one. *)
let setup_samples = 15
let setups_per_gap = 3

let rec wait pid =
  match Unix.waitpid [] pid with
  | _, status -> status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait pid

let spawn_setup (w : Work.t) =
  let exe = Sys.executable_name in
  let args =
    [ exe; "--setup-only"; "--workload"; w.name; "--seed"; string_of_int !seed ]
    @ if !quick then [ "--quick" ] else []
  in
  let t0 = now () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin Unix.stdout Unix.stderr in
  let status = wait pid in
  (now () -. t0, status = Unix.WEXITED 0)

(* Build the work list and run each warm-up call once; returns the plan and
   the warm-up failures. *)
let set_up (w : Work.t) =
  let plan = w.plan ~seed:(Int64.of_int !seed) ~quick:!quick in
  let failed =
    List.length (List.filter (fun c -> not (fst (Work.checked c)).Work.ok) plan.warmup)
  in
  (plan, failed)

let heap_mb () =
  float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8)) /. 1048576.

let record (w : Work.t) ~traced ~verdict ~attempted ~failed metrics =
  {
    Compare.workload = w.name;
    seed = !seed;
    traced;
    digest = (match verdict with Ok d -> d | Error _ -> "-");
    correct = Result.is_ok verdict;
    attempted;
    failed;
    metrics;
  }

(* The untraced run: one untimed pass for memory, then timed passes over
   the work list until the next one would overrun the window, with set-up
   samples between them.  The window counts from the start of the run, so
   a run takes about [--seconds] whatever the workload's pass length.
   Every pass does the same work, and noise from other processes only ever
   adds time, so wall_s sums each segment's fastest time over the timed
   passes (a segment is a run of consecutive calls of one shape, long
   enough to carry its own share of collector work). *)
let e2e (w : Work.t) =
  let t0 = now () in
  let setups = ref [] in
  let sample_setups k =
    for _ = 1 to k do
      setups := spawn_setup w :: !setups
    done
  in
  let plan, warm_failed = set_up w in
  (* An untimed pass measures memory: each call starts from a settled heap,
     so the peak is the largest call's own and not an accident of how the
     collector's cycles fell across earlier calls. *)
  let settled = Work.run_pass ~settle:true plan.calls in
  let heap = heap_mb () in
  let first = Work.run_pass plan.calls in
  let rec go = function
    | [] -> []
    | last :: _ as acc ->
      sample_setups setups_per_gap;
      let enough =
        if !quick then List.length acc >= 2 else now () -. t0 +. last.Work.wall > !seconds
      in
      if enough then List.rev acc else go (Work.run_pass plan.calls :: acc)
  in
  let passes = go [ first ] in
  sample_setups (setup_samples - List.length !setups);
  let setup_failed = List.length (List.filter (fun (_, ok) -> not ok) !setups) in
  let walls = List.map (fun (p : Work.pass) -> p.wall) passes in
  let wall = Pstats.sum_of_minima (List.map (fun (p : Work.pass) -> p.segment_s) passes) in
  let all = settled :: passes in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 all in
  let failed = setup_failed + warm_failed + sum (fun p -> p.failed) in
  let attempted = List.length !setups + List.length plan.warmup + sum (fun p -> p.attempted) in
  let verdict = Pstats.verdict ~failed ~digests:(List.map (fun (p : Work.pass) -> p.digest) all) in
  let calls = List.concat_map (fun (p : Work.pass) -> p.call_s) passes in
  Printf.printf "perf: %s seed %d: %d pass(es) of %d call(s) in %s; pass s: %s\n" w.name
    !seed (List.length passes) (List.length plan.calls)
    (if !quick then "quick mode" else Printf.sprintf "a %gs window" !seconds)
    (String.concat " " (List.map (Printf.sprintf "%.4f") walls));
  Printf.printf "perf: call latency: median %.4g ms, %s, n=%d\n"
    (1000. *. Pstats.median calls)
    (match Pstats.tail calls with
    | Some (q, v) -> Printf.sprintf "p%g %.4g ms" (100. *. q) (1000. *. v)
    | None -> "no tail percentile (fewer than 10 samples beyond p90)")
    (List.length calls);
  Printf.printf "perf: output_digest %s\n"
    (match verdict with Ok d -> d | Error e -> "INVALID (" ^ e ^ ")");
  let metrics =
    [
      ("wall_s", (wall, "s"));
      ("items_per_s", (float_of_int first.items /. wall, "items/s"));
      ("heap_peak_mb", (heap, "MiB"));
      ("setup_s", (Pstats.median (List.map fst !setups), "s"));
    ]
  in
  (record w ~traced:false ~verdict ~attempted ~failed metrics, verdict)

(* The traced run: one pass of the workload with spans on, then the
   per-layer suite.  The pass goes first so that the suite's heap does not
   slow it.  Tracing overhead is estimated from the measured cost of one
   span times the spans that pass recorded. *)
let traced (w : Work.t) ~write =
  let plan, warm_failed = set_up w in
  let metrics = ref [] and attempted = ref (List.length plan.warmup) and failed = ref warm_failed in
  let sink =
    {
      Layers.add = (fun name u v -> metrics := (name, (v, u)) :: !metrics);
      check =
        (fun what ok ->
          incr attempted;
          if not ok then begin
            incr failed;
            prerr_endline ("perf: check failed: " ^ what)
          end);
    }
  in
  Tracer.enabled := true;
  let p = Work.run_pass plan.calls in
  let spans = !Tracer.count in
  attempted := !attempted + p.attempted;
  failed := !failed + p.failed;
  Layers.run sink ~seed:(Int64.of_int !seed) ~quick:!quick;
  let span_s = Tracer.span_cost () in
  sink.add "trace.pass_s" "s" p.wall;
  sink.add "trace.overhead_share" "share" (float_of_int spans *. span_s /. p.wall);
  let verdict = Pstats.verdict ~failed:!failed ~digests:[ p.digest ] in
  Printf.printf "perf: %s seed %d traced: %d span(s), %.0f ns per span; output_digest %s\n"
    w.name !seed !Tracer.count (1e9 *. span_s)
    (match verdict with Ok d -> d | Error e -> "INVALID (" ^ e ^ ")");
  let r =
    record w ~traced:true ~verdict ~attempted:!attempted ~failed:!failed (List.rev !metrics)
  in
  if write then begin
    let dir = Filename.concat "bench" (Filename.concat "perf" "_out") in
    let path =
      if !trace_out <> "" then !trace_out
      else Filename.concat dir (Printf.sprintf "trace-%s-seed%d.jsonl" w.name !seed)
    in
    match
      if !trace_out = "" && not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      Tracer.write path ~workload:w.name ~seed:(Int64.of_int !seed) ~result:(Compare.result_json r)
    with
    | () -> Printf.printf "perf: trace written to %s\n" path
    | exception Sys_error e -> prerr_endline ("perf: trace not written: " ^ e)
  end;
  Tracer.enabled := false;
  (r, verdict)

let print (r : Compare.record) =
  List.iter (fun (name, (v, u)) -> Printf.printf "%-44s %14.6g %s\n" name v u) r.metrics;
  if !out <> "" then
    Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 !out (fun oc ->
        output_string oc (Thc_obsv.Json.to_string (Compare.record_json r));
        output_char oc '\n');
  print_endline (Thc_obsv.Json.to_string (Compare.result_json r))

let load_spec () =
  match Spec.load !bench with
  | Ok s -> s
  | Error e ->
    prerr_endline ("perf: " ^ !bench ^ ": " ^ e);
    exit 2

(* Every workload tiny for two passes, then one tiny traced run: each must
   print exactly the metrics BENCHMARK.json names, with their units, fail no
   call and agree on its digest. *)
let run_smoke () =
  let table = load_spec () in
  quick := true;
  let problems = ref [] in
  let check what (r : Compare.record) verdict expected =
    let got = List.map (fun (name, (_, u)) -> (name, u)) r.metrics in
    List.iter (fun p -> problems := (what ^ ": " ^ p) :: !problems) (Spec.mismatches expected got);
    match verdict with Ok _ -> () | Error e -> problems := (what ^ ": " ^ e) :: !problems
  in
  List.iter
    (fun name ->
      match Work.find name with
      | None -> problems := ("unknown workload " ^ name) :: !problems
      | Some w ->
        let r, verdict = e2e w in
        check name r verdict table.end_to_end)
    table.workloads;
  (match Work.find (List.hd table.workloads) with
  | Some w ->
    let r, verdict = traced w ~write:false in
    check (w.name ^ " traced") r verdict table.per_layer
  | None -> ());
  match !problems with
  | [] -> print_endline "perf smoke: ok"
  | ps ->
    List.iter prerr_endline (List.rev ps);
    prerr_endline "perf smoke: FAILED";
    exit 1

let () =
  Arg.parse spec (fun a -> anon := !anon @ [ a ]) usage;
  if !compare then begin
    match !anon with
    | [ a; b ] -> (
      let table = load_spec () in
      match (Compare.read a, Compare.read b) with
      | Ok a, Ok b ->
        let text, ok = Compare.report table ~a ~b in
        print_string text;
        exit (if ok then 0 else 1)
      | Error e, _ | _, Error e ->
        prerr_endline ("perf: " ^ e);
        exit 2)
    | _ ->
      prerr_endline usage;
      exit 2
  end
  else if !smoke then run_smoke ()
  else
    match Work.find !workload with
    | None ->
      prerr_endline ("perf: unknown workload " ^ !workload ^ "\n" ^ usage);
      exit 2
    | Some w when !setup_only -> exit (if snd (set_up w) = 0 then 0 else 1)
    | Some w ->
      let r, verdict =
        match !trace with
        | 0 -> e2e w
        | 1 -> traced w ~write:true
        | _ ->
          prerr_endline "perf: --trace takes 0 or 1";
          exit 2
      in
      print r;
      (match verdict with Error e -> prerr_endline ("perf: INVALID: " ^ e) | Ok _ -> ());
      exit (Pstats.exit_code verdict)
