module Sexp = Thc_util.Sexp
module Delay = Thc_sim.Delay
module Net = Thc_sim.Net
module Engine = Thc_sim.Engine

type t =
  | Clique of { delay : Delay.t; links : ((int * int) * Delay.t) list }
  | Geo_regions of { regions : int; lan : Delay.t; wan : Delay.t }
  | Asymmetric of { fast : Delay.t; slow : Delay.t }
  | Lossy of { base : Delay.t; drop : float; heal_at : int64; seed : int64 }

(* --- tags and descriptions ---------------------------------------------- *)

let float_str f =
  (* %.12g round-trips every value we print in practice and never emits
     the locale-hostile "1e+06.5" shapes [string_of_float] can. *)
  Printf.sprintf "%.12g" f

let delay_tag = function
  | Delay.Const d -> Printf.sprintf "c%Ld" d
  | Delay.Uniform (lo, hi) -> Printf.sprintf "u%Ld-%Ld" lo hi
  | Delay.Exponential m -> Printf.sprintf "e%s" (float_str m)

let tag = function
  | Clique { delay; links = [] } -> "clique:" ^ delay_tag delay
  | Clique { delay; links } ->
    Printf.sprintf "clique:%s+%dl" (delay_tag delay) (List.length links)
  | Geo_regions { regions; _ } -> "geo" ^ string_of_int regions
  | Asymmetric _ -> "asym"
  | Lossy { drop; _ } ->
    Printf.sprintf "lossy%d" (int_of_float ((drop *. 100.) +. 0.5))

let describe = function
  | Clique { delay; links = [] } ->
    Format.asprintf "full mesh, every link %a" Delay.pp delay
  | Clique { delay; links } ->
    Format.asprintf "full mesh, %a with %d per-link overrides" Delay.pp delay
      (List.length links)
  | Geo_regions { regions; lan; wan } ->
    Format.asprintf
      "%d geo regions (pid mod %d): intra-region %a, cross-region %a" regions
      regions Delay.pp lan Delay.pp wan
  | Asymmetric { fast; slow } ->
    Format.asprintf "per-direction skew: low→high pid %a, high→low %a"
      Delay.pp fast Delay.pp slow
  | Lossy { base; drop; heal_at; seed } ->
    Format.asprintf
      "seeded loss (seed %Ld): each link dropped/held with p=%s until \
       %Ldµs, then %a"
      seed (float_str drop) heal_at Delay.pp base

(* --- sexp codec --------------------------------------------------------- *)

let delay_to_sexp = function
  | Delay.Const d -> Sexp.list [ Sexp.atom "const"; Sexp.int64_atom d ]
  | Delay.Uniform (lo, hi) ->
    Sexp.list [ Sexp.atom "uniform"; Sexp.int64_atom lo; Sexp.int64_atom hi ]
  | Delay.Exponential m ->
    Sexp.list [ Sexp.atom "exp"; Sexp.atom (float_str m) ]

(* The decoders accept only values the simulator runs as written: a term
   that would raise in [Delay.sample] or run as a 0 µs link is refused. *)
let require ok what s =
  if not ok then
    failwith (Printf.sprintf "Topology: %s in %s" what (Sexp.to_string s))

let delay_of_sexp = function
  | Sexp.List [ Sexp.Atom "const"; d ] as s ->
    let d = Sexp.to_int64 d in
    require (d >= 0L) "const needs a delay >= 0" s;
    Delay.Const d
  | Sexp.List [ Sexp.Atom "uniform"; lo; hi ] as s ->
    let lo = Sexp.to_int64 lo and hi = Sexp.to_int64 hi in
    require (0L <= lo && lo <= hi) "uniform needs 0 <= lo <= hi" s;
    Delay.Uniform (lo, hi)
  | Sexp.List [ Sexp.Atom "exp"; m ] as s ->
    let m = float_of_string (Sexp.to_atom m) in
    require (Float.is_finite m && m > 0.) "exp needs a finite positive mean" s;
    Delay.Exponential m
  | s -> failwith ("Topology: bad delay sexp: " ^ Sexp.to_string s)

let field name value = Sexp.list [ Sexp.atom name; value ]

let to_sexp = function
  | Clique { delay; links } ->
    Sexp.list
      (Sexp.atom "clique"
       :: field "delay" (delay_to_sexp delay)
       ::
       (if links = [] then []
        else
          [
            Sexp.list
              (Sexp.atom "links"
              :: List.map
                   (fun ((src, dst), d) ->
                     Sexp.list
                       [ Sexp.int_atom src; Sexp.int_atom dst; delay_to_sexp d ])
                   links);
          ]))
  | Geo_regions { regions; lan; wan } ->
    Sexp.list
      [
        Sexp.atom "geo";
        field "regions" (Sexp.int_atom regions);
        field "lan" (delay_to_sexp lan);
        field "wan" (delay_to_sexp wan);
      ]
  | Asymmetric { fast; slow } ->
    Sexp.list
      [
        Sexp.atom "asym";
        field "fast" (delay_to_sexp fast);
        field "slow" (delay_to_sexp slow);
      ]
  | Lossy { base; drop; heal_at; seed } ->
    Sexp.list
      [
        Sexp.atom "lossy";
        field "base" (delay_to_sexp base);
        field "drop" (Sexp.atom (float_str drop));
        field "heal" (Sexp.int64_atom heal_at);
        field "seed" (Sexp.int64_atom seed);
      ]

let find_field fields name =
  let rec go = function
    | [] -> failwith ("Topology: missing field " ^ name)
    | Sexp.List [ Sexp.Atom n; v ] :: _ when n = name -> v
    | _ :: rest -> go rest
  in
  go fields

let find_links fields =
  let rec go = function
    | [] -> []
    | Sexp.List (Sexp.Atom "links" :: rows) :: _ ->
      List.map
        (function
          | Sexp.List [ src; dst; d ] ->
            ((Sexp.to_int src, Sexp.to_int dst), delay_of_sexp d)
          | s -> failwith ("Topology: bad link row: " ^ Sexp.to_string s))
        rows
    | _ :: rest -> go rest
  in
  go fields

let of_sexp = function
  | Sexp.List (Sexp.Atom "clique" :: fields) ->
    Clique
      {
        delay = delay_of_sexp (find_field fields "delay");
        links = find_links fields;
      }
  | Sexp.List (Sexp.Atom "geo" :: fields) as s ->
    let regions = Sexp.to_int (find_field fields "regions") in
    require (regions >= 1) "geo needs regions >= 1" s;
    Geo_regions
      {
        regions;
        lan = delay_of_sexp (find_field fields "lan");
        wan = delay_of_sexp (find_field fields "wan");
      }
  | Sexp.List (Sexp.Atom "asym" :: fields) ->
    Asymmetric
      {
        fast = delay_of_sexp (find_field fields "fast");
        slow = delay_of_sexp (find_field fields "slow");
      }
  | Sexp.List (Sexp.Atom "lossy" :: fields) as s ->
    let drop = float_of_string (Sexp.to_atom (find_field fields "drop")) in
    require (drop >= 0. && drop <= 1.) "lossy needs drop in [0, 1]" s;
    Lossy
      {
        base = delay_of_sexp (find_field fields "base");
        drop;
        heal_at = Sexp.to_int64 (find_field fields "heal");
        seed = Sexp.to_int64 (find_field fields "seed");
      }
  | s -> failwith ("Topology: unknown topology sexp: " ^ Sexp.to_string s)

(* --- the named zoo ------------------------------------------------------ *)

let legacy = Thc_sim.Delay.Uniform (50L, 500L)
let lan_delay = Thc_sim.Delay.Uniform (5L, 50L)
let wan_delay = Thc_sim.Delay.Uniform (2_000L, 10_000L)

let presets =
  [
    ("uniform", Clique { delay = legacy; links = [] });
    ("lan", Clique { delay = lan_delay; links = [] });
    ("wan", Clique { delay = wan_delay; links = [] });
    ("geo2", Geo_regions { regions = 2; lan = lan_delay; wan = wan_delay });
    ("geo3", Geo_regions { regions = 3; lan = lan_delay; wan = wan_delay });
    ( "asym",
      Asymmetric { fast = legacy; slow = Thc_sim.Delay.Uniform (2_000L, 8_000L) }
    );
    ( "lossy",
      Lossy { base = legacy; drop = 0.2; heal_at = 300_000L; seed = 7L } );
  ]

let of_string s =
  let s = String.trim s in
  match List.assoc_opt s presets with
  | Some t -> Ok t
  | None ->
    if String.length s > 0 && s.[0] = '(' then
      match Sexp.of_string s with
      | Error e -> Error e
      | Ok sexp -> (
        match of_sexp sexp with
        | t -> Ok t
        | exception Failure msg -> Error msg)
    else
      Error
        (Printf.sprintf
           "unknown network %S (expected one of %s, or a (clique|geo|asym|lossy …) sexp)"
           s
           (String.concat "/" (List.map fst presets)))

(* --- the compiler ------------------------------------------------------- *)

let delay_between t ~src ~dst =
  match t with
  | Clique { delay; links } ->
    Option.value (List.assoc_opt (src, dst) links) ~default:delay
  | Geo_regions { regions; lan; wan } ->
    if src mod regions = dst mod regions then lan else wan
  | Asymmetric { fast; slow } -> if src > dst then slow else fast
  | Lossy { base; _ } -> base

(* The initial policy of every directed link, self-links included (a
   broadcast delivers to self through the table like anyone else).  For
   [Lossy] the afflicted set is a pure function of the topology's own
   seed: one SplitMix64 stream, links visited in fixed (src, dst) order,
   one float draw per non-self link. *)
let lowered t ~n =
  let table = Array.make_matrix n n (Net.Deliver legacy) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      table.(src).(dst) <- Net.Deliver (delay_between t ~src ~dst)
    done
  done;
  (match t with
  | Lossy { drop; seed; _ } ->
    let rng = Thc_util.Rng.create seed in
    for src = 0 to n - 1 do
      for dst = 0 to n - 1 do
        if src <> dst then begin
          let u = Thc_util.Rng.float rng 1.0 in
          if u < drop /. 2. then table.(src).(dst) <- Net.Drop
          else if u < drop then table.(src).(dst) <- Net.Block
        end
      done
    done
  | Clique _ | Geo_regions _ | Asymmetric _ -> ());
  table

let healed_table t ~n =
  let table = Array.make_matrix n n (Net.Deliver legacy) in
  for src = 0 to n - 1 do
    for dst = 0 to n - 1 do
      table.(src).(dst) <- Net.Deliver (delay_between t ~src ~dst)
    done
  done;
  table

(* Mid-run reconfiguration goes through [Engine.set_link] so a held
   queue behind a [Block]ed link is released the moment the model says
   the link delivers again. *)
let set_table engine table =
  Array.iteri
    (fun src row ->
      Array.iteri (fun dst policy -> Engine.set_link engine ~src ~dst policy) row)
    table

let apply t engine =
  let n = Net.n (Engine.net engine) in
  set_table engine (lowered t ~n);
  match t with
  | Lossy { heal_at; _ } ->
    Engine.at engine heal_at (fun () -> set_table engine (healed_table t ~n))
  | Clique _ | Geo_regions _ | Asymmetric _ -> ()

let reapply t engine ~at =
  let n = Net.n (Engine.net engine) in
  let table =
    match t with
    | Lossy { heal_at; _ } when at >= heal_at -> healed_table t ~n
    | _ -> lowered t ~n
  in
  Engine.at engine at (fun () -> set_table engine table)
