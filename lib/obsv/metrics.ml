module Histogram = struct
  type t = {
    bounds : int64 array;  (* strictly increasing upper bounds *)
    counts : int array;  (* length bounds + 1; last is overflow *)
    mutable count : int;
    mutable sum : int64;
    mutable min_v : int64;
    mutable max_v : int64;
  }

  (* 1-2-5 ladder: 10 µs .. 10 s of virtual time. *)
  let default_buckets =
    [|
      10L; 20L; 50L; 100L; 200L; 500L; 1_000L; 2_000L; 5_000L; 10_000L;
      20_000L; 50_000L; 100_000L; 200_000L; 500_000L; 1_000_000L; 2_000_000L;
      5_000_000L; 10_000_000L;
    |]

  let create ?(buckets = default_buckets) () =
    if Array.length buckets = 0 then
      invalid_arg "Histogram.create: no buckets";
    Array.iteri
      (fun i b ->
        if i > 0 && Int64.compare buckets.(i - 1) b >= 0 then
          invalid_arg "Histogram.create: bounds must be strictly increasing")
      buckets;
    {
      bounds = Array.copy buckets;
      counts = Array.make (Array.length buckets + 1) 0;
      count = 0;
      sum = 0L;
      min_v = 0L;
      max_v = 0L;
    }

  let bucket_of t v =
    let n = Array.length t.bounds in
    let rec go i = if i >= n || Int64.compare v t.bounds.(i) <= 0 then i else go (i + 1) in
    go 0

  let record t v =
    let b = bucket_of t v in
    t.counts.(b) <- t.counts.(b) + 1;
    if t.count = 0 || Int64.compare v t.min_v < 0 then t.min_v <- v;
    if t.count = 0 || Int64.compare v t.max_v > 0 then t.max_v <- v;
    t.count <- t.count + 1;
    t.sum <- Int64.add t.sum v

  let count t = t.count

  let sum t = t.sum

  let min t = if t.count = 0 then None else Some t.min_v

  let max t = if t.count = 0 then None else Some t.max_v

  let quantile t q =
    if t.count = 0 then None
    else begin
      let rank =
        Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.count)))
      in
      let n = Array.length t.bounds in
      let rec go i cum =
        let cum = cum + t.counts.(i) in
        if cum >= rank then
          (* Clamp to the recorded max so a sparsely filled top bucket never
             reports a quantile above the largest sample. *)
          if i >= n then t.max_v else Stdlib.min t.bounds.(i) t.max_v
        else go (i + 1) cum
      in
      Some (go 0 0)
    end

  let p50 t = quantile t 0.5

  let p90 t = quantile t 0.9

  let p99 t = quantile t 0.99

  let p999 t = quantile t 0.999

  let mean t =
    if t.count = 0 then None
    else Some (Int64.to_float t.sum /. float_of_int t.count)
end

type counter = int ref

type gauge = { mutable last : int; mutable hwm : int }

type metric =
  | M_counter of counter
  | M_gauge of gauge
  | M_hist of Histogram.t

type t = (string, metric) Hashtbl.t

let create () : t = Hashtbl.create 32

let wrong_kind name =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a different kind" name)

let counter t name =
  match Hashtbl.find_opt t name with
  | Some (M_counter c) -> c
  | Some _ -> wrong_kind name
  | None ->
    let c = ref 0 in
    Hashtbl.add t name (M_counter c);
    c

let incr c = Stdlib.incr c

let add c n = c := !c + n

let counter_value c = !c

let gauge t name =
  match Hashtbl.find_opt t name with
  | Some (M_gauge g) -> g
  | Some _ -> wrong_kind name
  | None ->
    let g = { last = 0; hwm = 0 } in
    Hashtbl.add t name (M_gauge g);
    g

let set_gauge g v =
  g.last <- v;
  if v > g.hwm then g.hwm <- v

let gauge_hwm g = g.hwm

let histogram ?buckets t name =
  match Hashtbl.find_opt t name with
  | Some (M_hist h) -> h
  | Some _ -> wrong_kind name
  | None ->
    let h = Histogram.create ?buckets () in
    Hashtbl.add t name (M_hist h);
    h

type value =
  | Count of int
  | Level of { last : int; hwm : int }
  | Summary of {
      count : int;
      sum : int64;
      p50 : int64 option;
      p90 : int64 option;
      p99 : int64 option;
      max : int64 option;
    }

type snapshot = (string * value) list

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | M_counter c -> Count !c
        | M_gauge g -> Level { last = g.last; hwm = g.hwm }
        | M_hist h ->
          Summary
            {
              count = Histogram.count h;
              sum = Histogram.sum h;
              p50 = Histogram.p50 h;
              p90 = Histogram.p90 h;
              p99 = Histogram.p99 h;
              max = Histogram.max h;
            }
      in
      (name, v) :: acc)
    t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let opt_int64 = function
  | None -> Json.Null
  | Some v -> Json.Int (Int64.to_int v)

let value_to_json = function
  | Count c -> Json.Obj [ ("kind", Json.Str "counter"); ("value", Json.Int c) ]
  | Level { last; hwm } ->
    Json.Obj
      [ ("kind", Json.Str "gauge"); ("last", Json.Int last);
        ("hwm", Json.Int hwm) ]
  | Summary { count; sum; p50; p90; p99; max } ->
    Json.Obj
      [
        ("kind", Json.Str "histogram");
        ("count", Json.Int count);
        ("sum", Json.Int (Int64.to_int sum));
        ("p50", opt_int64 p50);
        ("p90", opt_int64 p90);
        ("p99", opt_int64 p99);
        ("max", opt_int64 max);
      ]

let snapshot_to_json s =
  Json.Obj (List.map (fun (name, v) -> (name, value_to_json v)) s)

let pp_snapshot ppf s =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Format.fprintf ppf "@,";
      match v with
      | Count c -> Format.fprintf ppf "%-32s %d" name c
      | Level { last; hwm } -> Format.fprintf ppf "%-32s %d (hwm %d)" name last hwm
      | Summary { count; p50; p90; p99; max; _ } ->
        let f = function None -> "-" | Some v -> Int64.to_string v in
        Format.fprintf ppf "%-32s n=%d p50=%s p90=%s p99=%s max=%s" name count
          (f p50) (f p90) (f p99) (f max))
    s;
  Format.fprintf ppf "@]"
