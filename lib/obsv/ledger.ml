type t = {
  counts : Label_counts.t;
  mutable observer : (string -> int -> unit) option;
}

let create () = { counts = Label_counts.create (); observer = None }

let set_observer t f = t.observer <- Some f

let clear_observer t = t.observer <- None

let bump_by t label n =
  Label_counts.add t.counts label n;
  match t.observer with None -> () | Some f -> f label n

let bump t label = bump_by t label 1

let count t label = Label_counts.find t.counts label

let rows t =
  Label_counts.fold (fun label c acc -> (label, c) :: acc) t.counts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let total t = Label_counts.fold (fun _ c acc -> acc + c) t.counts 0

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let rejections t =
  Label_counts.fold
    (fun label c acc ->
      if
        contains_sub ~sub:"denied" label
        || contains_sub ~sub:"fail" label
        || contains_sub ~sub:"reject" label
      then acc + c
      else acc)
    t.counts 0

let is_empty t = Label_counts.length t.counts = 0

let per_commit t ~commits =
  List.map
    (fun (label, c) ->
      ( label,
        if commits <= 0 then 0.0
        else float_of_int c /. float_of_int commits ))
    (rows t)

let to_json t =
  Json.Obj (List.map (fun (label, c) -> (label, Json.Int c)) (rows t))

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (label, c) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%-24s %d" label c)
    (rows t);
  Format.fprintf ppf "@]"
