type stats = {
  requested_jobs : int;
  workers : int;
  keys : int;
  failed : int;
  wall_us : int64;
  busy_us : int64 array;
  keys_per_worker : int array;
}

let now_us () = Int64.of_float (Unix.gettimeofday () *. 1e6)

let utilization s =
  if s.workers = 0 || Int64.compare s.wall_us 0L <= 0 then 0.0
  else
    let busy = Array.fold_left Int64.add 0L s.busy_us in
    Int64.to_float busy /. (float_of_int s.workers *. Int64.to_float s.wall_us)

let pp_stats ppf s =
  if s.workers = 0 then
    Format.fprintf ppf "[exec] %d key(s) sequentially in %.2fs wall" s.keys
      (Int64.to_float s.wall_us /. 1e6)
  else
    Format.fprintf ppf
      "[exec] %d key(s) over %d worker(s) in %.2fs wall, %.0f%% utilization%s"
      s.keys s.workers
      (Int64.to_float s.wall_us /. 1e6)
      (100.0 *. utilization s)
      (if s.failed > 0 then Printf.sprintf ", %d FAILED" s.failed else "")

let record registry ~name s =
  let open Thc_obsv.Metrics in
  let c k v = add (counter registry (name ^ "." ^ k)) v in
  let g k v = set_gauge (gauge registry (name ^ "." ^ k)) v in
  c "keys" s.keys;
  c "failed" s.failed;
  g "workers" s.workers;
  g "wall_us" (Int64.to_int s.wall_us);
  g "utilization_pct" (int_of_float (100.0 *. utilization s));
  Array.iteri
    (fun w busy ->
      g (Printf.sprintf "worker%d.busy_us" w) (Int64.to_int busy);
      c (Printf.sprintf "worker%d.keys" w) s.keys_per_worker.(w))
    s.busy_us

(* Worker 0 is the calling domain, which also fires [on_result]; workers
   1 .. w-1 are spawned domains.  Every worker claims the next key index
   from [next] and stores its result at that index under [lock]. *)
let map_stats ?(jobs = 1) ?on_result f keys =
  let t0 = now_us () in
  let jobs = max 1 jobs in
  let keys = Array.of_list keys in
  let n = Array.length keys in
  let w = max 1 (min jobs (min n (Domain.recommended_domain_count ()))) in
  let results = Array.make n None in
  let busy_us = Array.make w 0L and keys_per_worker = Array.make w 0 in
  let next = Atomic.make 0 in
  let lock = Mutex.create () and filled = Condition.create () in
  let rec work worker ~after_each =
    let i = Atomic.fetch_and_add next 1 in
    if i < n then begin
      let start = now_us () in
      let r =
        match f keys.(i) with
        | r -> Ok r
        | exception e -> Error (Printexc.to_string e)
      in
      busy_us.(worker) <- Int64.(add busy_us.(worker) (sub (now_us ()) start));
      keys_per_worker.(worker) <- keys_per_worker.(worker) + 1;
      Mutex.protect lock (fun () ->
          results.(i) <- Some r;
          Condition.signal filled);
      after_each ();
      work worker ~after_each
    end
  in
  (* Fire [on_result] for the filled prefix; with [~wait], block until
     every key is filled. *)
  let reported = ref 0 in
  let rec report ~wait =
    let i = !reported in
    if i < n then
      match
        Mutex.protect lock (fun () ->
            while wait && Option.is_none results.(i) do
              Condition.wait filled lock
            done;
            results.(i))
      with
      | None -> ()
      | Some r ->
        Option.iter (fun g -> g i r) on_result;
        reported := i + 1;
        report ~wait
  in
  let spawned =
    List.init (w - 1) (fun j ->
        Domain.spawn (fun () -> work (j + 1) ~after_each:ignore))
  in
  Fun.protect
    ~finally:(fun () ->
      (* A raising [on_result] stops the other workers at their next claim. *)
      Atomic.set next n;
      List.iter Domain.join spawned)
    (fun () ->
      work 0 ~after_each:(fun () -> report ~wait:false);
      report ~wait:true);
  let results = Array.to_list (Array.map Option.get results) in
  let workers = if w > 1 then w else 0 in
  ( results,
    {
      requested_jobs = jobs;
      workers;
      keys = n;
      failed = List.length (List.filter Result.is_error results);
      wall_us = Int64.sub (now_us ()) t0;
      busy_us = (if workers = 0 then [||] else busy_us);
      keys_per_worker = (if workers = 0 then [||] else keys_per_worker);
    } )

let map ?jobs ?on_result f keys = fst (map_stats ?jobs ?on_result f keys)
