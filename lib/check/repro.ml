module Sexp = Thc_util.Sexp

type t = {
  protocol : string;
  seed : int64;
  expect : [ `Pass | `Fail of string list ];
  script : Thc_sim.Adversary.t;
}

let of_outcome ~protocol (o : Sweep.outcome) =
  let expect =
    match Monitor.monitors_of o.Sweep.report.Harness.verdict with
    | [] -> `Pass
    | monitors -> `Fail monitors
  in
  { protocol; seed = o.Sweep.seed; expect; script = o.Sweep.script }

let to_sexp r =
  let expect =
    match r.expect with
    | `Pass -> Sexp.list [ Sexp.atom "pass" ]
    | `Fail monitors ->
      Sexp.list (Sexp.atom "fail" :: List.map Sexp.atom monitors)
  in
  Sexp.list
    [
      Sexp.atom "repro";
      Sexp.list [ Sexp.atom "protocol"; Sexp.atom r.protocol ];
      Sexp.list [ Sexp.atom "seed"; Sexp.int64_atom r.seed ];
      Sexp.list [ Sexp.atom "expect"; expect ];
      Sexp.list [ Sexp.atom "script"; Thc_sim.Adversary.to_sexp r.script ];
    ]

let of_sexp sexp =
  match sexp with
  | Sexp.List
      (Sexp.Atom "repro" :: fields) ->
    let one name conv =
      match
        List.find_map
          (function
            | Sexp.List [ Sexp.Atom tag; v ] when tag = name -> Some v
            | _ -> None)
          fields
      with
      | Some v -> conv v
      | None -> failwith (Printf.sprintf "repro: missing (%s ...)" name)
    in
    let expect =
      one "expect" (function
        | Sexp.List [ Sexp.Atom "pass" ] -> `Pass
        | Sexp.List (Sexp.Atom "fail" :: monitors) when monitors <> [] ->
          `Fail (List.map Sexp.to_atom monitors)
        | s -> failwith ("repro: bad expect: " ^ Sexp.to_string s))
    in
    {
      protocol = one "protocol" Sexp.to_atom;
      seed = one "seed" Sexp.to_int64;
      expect;
      script = one "script" Thc_sim.Adversary.of_sexp;
    }
  | s -> failwith ("repro: expected (repro ...), got " ^ Sexp.to_string s)

let save path r =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Sexp.to_string_hum (to_sexp r));
      output_char oc '\n')

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | contents -> (
    match Sexp.of_string contents with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok sexp -> (
      match of_sexp sexp with
      | r -> Ok r
      | exception Failure msg -> Error (Printf.sprintf "%s: %s" path msg)))

type replay = {
  repro : t;
  report : Harness.report;
  matched : bool;
}

let matches expect (verdict : Monitor.verdict) =
  match (expect, verdict) with
  | `Pass, Monitor.Pass -> true
  | `Pass, Monitor.Fail _ -> false
  | `Fail [], _ -> false
  | `Fail (primary :: _), v -> List.mem primary (Monitor.monitors_of v)

(* A hand-written repro may hold a script the explorer could never draw:
   a pid outside the replicas (the engine would raise), an event before
   time 0, or a horizon past the profile's (a run for hours that ends in
   the engine's event limit).  Refuse those up front.  The budgets are
   [n], not the profile's: [thc explore --crashes] may exceed those. *)
let replay r =
  match Harness.find r.protocol with
  | None -> Error (Printf.sprintf "unknown protocol %S" r.protocol)
  | Some h -> (
    let profile = h.Harness.profile in
    let n = profile.Harness.n in
    let horizon = r.script.Thc_sim.Adversary.horizon in
    match
      Thc_sim.Adversary.admissible r.script ~n ~crash_budget:n ~corrupt_budget:n ()
    with
    | Error e -> Error (Printf.sprintf "script not admissible for %s: %s" r.protocol e)
    | Ok () when horizon < 0L || horizon > profile.Harness.horizon ->
      Error
        (Printf.sprintf "script horizon %Ld outside %s's 0..%Ld" horizon
           r.protocol profile.Harness.horizon)
    | Ok () ->
      let report = h.Harness.run ~seed:r.seed ~script:r.script () in
      Ok { repro = r; report; matched = matches r.expect report.Harness.verdict })

let pp_replay ppf { repro; report; matched } =
  let pp_expect ppf = function
    | `Pass -> Format.pp_print_string ppf "pass"
    | `Fail monitors ->
      Format.fprintf ppf "fail %s" (String.concat " " monitors)
  in
  Format.fprintf ppf "@[<v>%s seed %Ld: expected [%a], got %a — %s@]"
    repro.protocol repro.seed pp_expect repro.expect Monitor.pp_verdict
    report.Harness.verdict
    (if matched then "MATCH" else "MISMATCH")
