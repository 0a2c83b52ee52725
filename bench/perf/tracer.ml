(* Wall-clock spans around the benchmark's calls into each layer.

   Spans are kept in memory and written once, as JSONL, when the traced run
   ends, so recording costs two clock reads and one small record per span.
   When disabled (every untraced run), [time] is a bare stopwatch. *)

type span = {
  id : int;
  parent : int;  (* 0 for a top-level span *)
  call : int;  (* id of the span that began the call: shared by its spans *)
  name : string;
  start : float;
  stop : float;
}

let enabled = ref false
let spans : span list ref = ref []
let count = ref 0
let open_ = ref 0
let open_call = ref 0

(* Seconds since the process started timing, from the monotonic ns clock
   (microsecond wall-clock readings would round the shortest calls). *)
let origin = Monotonic_clock.now ()
let now () = Int64.to_float (Int64.sub (Monotonic_clock.now ()) origin) *. 1e-9

(* Run [f], returning its result and its wall time in seconds; when tracing
   is on, also record a span named [name] nested in the innermost open one.
   A top-level span, or one marked [~call:true], begins a new call. *)
let time ?(call = false) name f =
  if not !enabled then begin
    let t0 = now () in
    let r = f () in
    (r, now () -. t0)
  end
  else begin
    incr count;
    let id = !count and parent = !open_ and outer_call = !open_call in
    let call = if parent = 0 || call then id else outer_call in
    open_ := id;
    open_call := call;
    let close t0 =
      let t1 = now () in
      open_ := parent;
      open_call := outer_call;
      spans := { id; parent; call; name; start = t0; stop = t1 } :: !spans;
      t1 -. t0
    in
    let t0 = now () in
    match f () with
    | r -> (r, close t0)
    | exception e ->
      ignore (close t0);
      raise e
  end

(* Seconds one recorded span costs, measured by recording 100k empty spans
   and dropping them again. *)
let span_cost () =
  let n = 100_000 in
  let saved = !spans and saved_count = !count and was = !enabled in
  enabled := true;
  let t0 = now () in
  for _ = 1 to n do
    ignore (time "tracer.probe" ignore)
  done;
  let dt = now () -. t0 in
  spans := saved;
  count := saved_count;
  enabled := was;
  dt /. float_of_int n

(* Per span name: how many, total seconds, and self seconds (duration minus
   the part its direct children cover).  Children never overlap: calls are
   sequential. *)
let layers all =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_time s.parent
          (Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.
          +. (s.stop -. s.start)))
    all;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = s.stop -. s.start in
      let self = d -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0. in
      let n, tot, slf = Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.) in
      Hashtbl.replace by_name s.name (n + 1, tot +. d, slf +. self))
    all;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name [])

(* The thc-perf-trace/v1 document: an Envelope header, one line per span
   in start order, one line per span name with its self time, and the
   run's result object. *)
let write path ~workload ~seed ~result =
  let module J = Thc_obsv.Json in
  let all = List.sort (fun a b -> compare a.id b.id) !spans in
  let oc = open_out_bin path in
  let line j =
    output_string oc (J.to_string j);
    output_char oc '\n'
  in
  line
    (Thc_obsv.Envelope.header ~typ:"perf-trace" ~schema:"thc-perf-trace/v1" ~seed
       ~jobs:(List.length all)
       ~extra:[ ("workload", J.Str workload) ]
       ());
  List.iter
    (fun s ->
      line
        (J.Obj
           [
             ("type", J.Str "span");
             ("id", J.Int s.id);
             ("parent", J.Int s.parent);
             ("call", J.Int s.call);
             ("name", J.Str s.name);
             ("start_s", J.Float s.start);
             ("end_s", J.Float s.stop);
           ]))
    all;
  List.iter
    (fun (name, (n, tot, self)) ->
      line
        (J.Obj
           [
             ("type", J.Str "layer");
             ("name", J.Str name);
             ("spans", J.Int n);
             ("total_s", J.Float tot);
             ("self_s", J.Float self);
           ]))
    (layers all);
  line (J.Obj [ ("type", J.Str "result"); ("result", result) ]);
  close_out oc
