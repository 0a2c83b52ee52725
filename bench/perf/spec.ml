(* The metric table of BENCHMARK.json: names, units, direction and (for
   end-to-end metrics) the regression bound.  The runner's own metric list
   is checked against it by the smoke alias, and [--compare] takes its
   bounds from it, so the bounds live in one place. *)

module J = Thc_obsv.Json

type metric = {
  name : string;
  unit_ : string;
  better : Pstats.better;
  bound : float option;  (* end-to-end metrics only *)
}

type t = {
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field name j =
  match J.member name j with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "BENCHMARK.json: missing %S" name)

let str name j =
  let* v = field name j in
  Option.to_result ~none:(Printf.sprintf "BENCHMARK.json: %S is not a string" name)
    (J.to_str v)

let list name j =
  let* v = field name j in
  match v with
  | J.List xs -> Ok xs
  | _ -> Error (Printf.sprintf "BENCHMARK.json: %S is not a list" name)

let all f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let metric j =
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* better =
    match str "better" j with
    | Ok "lower" -> Ok Pstats.Lower
    | Ok "higher" -> Ok Pstats.Higher
    | _ -> Error (Printf.sprintf "BENCHMARK.json: %s: better must be lower|higher" name)
  in
  let bound = Option.bind (J.member "bound" j) J.to_float in
  Ok { name; unit_; better; bound }

let of_json j =
  let* workloads = list "workloads" j in
  let* workloads = all (str "name") workloads in
  let* e2e = list "end_to_end" j in
  let* end_to_end = all metric e2e in
  let* layers = list "per_layer" j in
  let* per_layer = all metric layers in
  Ok { workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text ->
    let* j = J.parse text in
    of_json j

(* Names and units the runner printed that disagree with the table, plus
   table entries it did not print. *)
let mismatches (expected : metric list) (got : (string * string) list) =
  List.filter_map
    (fun m ->
      match List.assoc_opt m.name got with
      | None -> Some (Printf.sprintf "missing metric %s" m.name)
      | Some u when u <> m.unit_ ->
        Some (Printf.sprintf "metric %s: unit %s, BENCHMARK.json says %s" m.name u m.unit_)
      | Some _ -> None)
    expected
  @ List.filter_map
      (fun (name, _) ->
        if List.exists (fun m -> m.name = name) expected then None
        else Some (Printf.sprintf "metric %s is not in BENCHMARK.json" name))
      got
