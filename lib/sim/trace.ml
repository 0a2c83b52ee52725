type 'm entry =
  | Sent of { time : int64; src : int; dst : int; seq : int; msg : 'm }
  | Delivered of { time : int64; src : int; dst : int; seq : int; msg : 'm }
  | Held of { time : int64; src : int; dst : int; seq : int }
  | Dropped of { time : int64; src : int; dst : int; seq : int }
  | Timer_fired of { time : int64; pid : int; tag : int }
  | Crashed of { time : int64; pid : int }
  | Output of { time : int64; pid : int; obs : Obs.t }

type 'm t = {
  n : int;
  byzantine : int list;
  entries : 'm entry list;
  end_time : int64;
}

let crashed_pids t =
  List.filter_map
    (function Crashed { pid; _ } -> Some pid | _ -> None)
    t.entries

let correct t pid =
  (not (List.mem pid t.byzantine)) && not (List.mem pid (crashed_pids t))

let correct_pids t =
  let crashed = crashed_pids t in
  List.filter
    (fun pid -> not (List.mem pid t.byzantine || List.mem pid crashed))
    (List.init t.n (fun i -> i))

let outputs t =
  List.filter_map
    (function Output { time; pid; obs } -> Some (time, pid, obs) | _ -> None)
    t.entries

let outputs_of t pid =
  List.filter_map
    (function
      | Output { pid = p; obs; _ } when p = pid -> Some obs
      | _ -> None)
    t.entries

let outputs_matching t f =
  List.filter_map
    (function
      | Output { time; pid; obs } ->
        (match f pid obs with Some x -> Some (time, x) | None -> None)
      | _ -> None)
    t.entries

let decision_of t pid =
  let rec first = function
    | [] -> None
    | Obs.Decided d :: _ -> Some d
    | _ :: rest -> first rest
  in
  first (outputs_of t pid)

let reception_transcript t pid =
  List.filter_map
    (function
      | Delivered { dst; src; msg; _ } when dst = pid ->
        Some (src, Thc_util.Codec.encode msg)
      | _ -> None)
    t.entries

let count t pred = List.length (List.filter pred t.entries)

let messages_sent t = count t (function Sent _ -> true | _ -> false)

let map_msg f t =
  {
    n = t.n;
    byzantine = t.byzantine;
    end_time = t.end_time;
    entries =
      List.map
        (function
          | Sent { time; src; dst; seq; msg } ->
            Sent { time; src; dst; seq; msg = f msg }
          | Delivered { time; src; dst; seq; msg } ->
            Delivered { time; src; dst; seq; msg = f msg }
          | Held h -> Held h
          | Dropped d -> Dropped d
          | Timer_fired tf -> Timer_fired tf
          | Crashed c -> Crashed c
          | Output o -> Output o)
        t.entries;
  }

(* --- JSONL export ------------------------------------------------------- *)

module J = Thc_obsv.Json

let int64 v = J.Int (Int64.to_int v)

let entry_to_json ~encode_msg entry =
  let wire kind time src dst seq msg =
    J.Obj
      ([ ("type", J.Str kind); ("time", int64 time); ("src", J.Int src);
         ("dst", J.Int dst); ("seq", J.Int seq) ]
      @ match msg with None -> [] | Some m -> [ ("msg", J.Str (encode_msg m)) ])
  in
  match entry with
  | Sent { time; src; dst; seq; msg } -> wire "sent" time src dst seq (Some msg)
  | Delivered { time; src; dst; seq; msg } ->
    wire "delivered" time src dst seq (Some msg)
  | Held { time; src; dst; seq } -> wire "held" time src dst seq None
  | Dropped { time; src; dst; seq } -> wire "dropped" time src dst seq None
  | Timer_fired { time; pid; tag } ->
    J.Obj
      [ ("type", J.Str "timer"); ("time", int64 time); ("pid", J.Int pid);
        ("tag", J.Int tag) ]
  | Crashed { time; pid } ->
    J.Obj [ ("type", J.Str "crashed"); ("time", int64 time); ("pid", J.Int pid) ]
  | Output { time; pid; obs } ->
    J.Obj
      [
        ("type", J.Str "output");
        ("time", int64 time);
        ("pid", J.Int pid);
        (* Codec bytes round-trip exactly; "show" is for human readers. *)
        ("obs", J.Str (Thc_util.Codec.encode obs));
        ("show", J.Str (Format.asprintf "%a" Obs.pp obs));
      ]

let to_jsonl ~encode_msg t =
  let buf = Buffer.create 4096 in
  let line j =
    Buffer.add_string buf (J.to_string j);
    Buffer.add_char buf '\n'
  in
  line
    (J.Obj
       [
         ("type", J.Str "trace");
         ("n", J.Int t.n);
         ("byzantine", J.List (List.map (fun p -> J.Int p) t.byzantine));
         ("end_time", int64 t.end_time);
       ]);
  List.iter (fun e -> line (entry_to_json ~encode_msg e)) t.entries;
  Buffer.contents buf

let of_jsonl s =
  let ( let* ) = Result.bind in
  let field name conv j =
    match Option.bind (J.member name j) conv with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "missing or ill-typed field %S" name)
  in
  let time j = Result.map Int64.of_int (field "time" J.to_int j) in
  (* [Codec.decode] raises on bytes that are not a marshalled value. *)
  let obs_of_bytes b =
    match (Thc_util.Codec.decode b : Obs.t) with
    | obs -> Ok obs
    | exception (Invalid_argument _ | Failure _) ->
      Error "field \"obs\" is not codec bytes"
  in
  let entry_of_json j =
    let* kind = field "type" J.to_str j in
    let wire () =
      let* time = time j in
      let* src = field "src" J.to_int j in
      let* dst = field "dst" J.to_int j in
      let* seq = field "seq" J.to_int j in
      Ok (time, src, dst, seq)
    in
    match kind with
    | "sent" ->
      let* time, src, dst, seq = wire () in
      let* msg = field "msg" J.to_str j in
      Ok (Some (Sent { time; src; dst; seq; msg }))
    | "delivered" ->
      let* time, src, dst, seq = wire () in
      let* msg = field "msg" J.to_str j in
      Ok (Some (Delivered { time; src; dst; seq; msg }))
    | "held" ->
      let* time, src, dst, seq = wire () in
      Ok (Some (Held { time; src; dst; seq }))
    | "dropped" ->
      let* time, src, dst, seq = wire () in
      Ok (Some (Dropped { time; src; dst; seq }))
    | "timer" ->
      let* time = time j in
      let* pid = field "pid" J.to_int j in
      let* tag = field "tag" J.to_int j in
      Ok (Some (Timer_fired { time; pid; tag }))
    | "crashed" ->
      let* time = time j in
      let* pid = field "pid" J.to_int j in
      Ok (Some (Crashed { time; pid }))
    | "output" ->
      let* time = time j in
      let* pid = field "pid" J.to_int j in
      let* obs = Result.bind (field "obs" J.to_str j) obs_of_bytes in
      Ok (Some (Output { time; pid; obs }))
    | _ -> Ok None (* foreign line (metrics snapshot, ledger, ...) — skip *)
  in
  let lines =
    String.split_on_char '\n' s
    |> List.mapi (fun i l -> (i + 1, l))
    |> List.filter (fun (_, l) -> String.trim l <> "")
  in
  match lines with
  | [] -> Error "empty input"
  | (_, header) :: rest ->
    let* h = J.parse header in
    let* kind = field "type" J.to_str h in
    if kind <> "trace" then Error "first line is not a trace header"
    else
      let* n = field "n" J.to_int h in
      let* end_time = Result.map Int64.of_int (field "end_time" J.to_int h) in
      let* byzantine =
        match J.member "byzantine" h with
        | Some (J.List pids) ->
          List.fold_left
            (fun acc p ->
              let* acc = acc in
              match J.to_int p with
              | Some p -> Ok (p :: acc)
              | None -> Error "ill-typed byzantine pid")
            (Ok []) pids
          |> Result.map List.rev
        | _ -> Error "missing byzantine list"
      in
      let* entries =
        List.fold_left
          (fun acc (lineno, line) ->
            let* acc = acc in
            match Result.bind (J.parse line) entry_of_json with
            | Ok (Some e) -> Ok (e :: acc)
            | Ok None -> Ok acc
            | Error e -> Error (Printf.sprintf "line %d: %s" lineno e))
          (Ok []) rest
        |> Result.map List.rev
      in
      Ok { n; byzantine; end_time; entries }

let pp pp_msg ppf t =
  let pp_entry ppf = function
    | Sent { time; src; dst; seq; msg } ->
      Format.fprintf ppf "%8Ld  p%d -> p%d  send#%d  %a" time src dst seq pp_msg
        msg
    | Delivered { time; src; dst; seq; msg } ->
      Format.fprintf ppf "%8Ld  p%d => p%d  dlvr#%d  %a" time src dst seq pp_msg
        msg
    | Held { time; src; dst; seq } ->
      Format.fprintf ppf "%8Ld  p%d -| p%d  held#%d" time src dst seq
    | Dropped { time; src; dst; seq } ->
      Format.fprintf ppf "%8Ld  p%d -x p%d  drop#%d" time src dst seq
    | Timer_fired { time; pid; tag } ->
      Format.fprintf ppf "%8Ld  p%d  timer %d" time pid tag
    | Crashed { time; pid } -> Format.fprintf ppf "%8Ld  p%d  CRASH" time pid
    | Output { time; pid; obs } ->
      Format.fprintf ppf "%8Ld  p%d  OUT %a" time pid Obs.pp obs
  in
  Format.fprintf ppf "@[<v>trace n=%d byz=[%s] end=%Ld@,%a@]" t.n
    (String.concat "," (List.map string_of_int t.byzantine))
    t.end_time
    (Format.pp_print_list pp_entry)
    t.entries
