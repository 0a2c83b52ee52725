module Sexp = Thc_util.Sexp
module Delay = Thc_sim.Delay
module Net = Thc_sim.Net
module Engine = Thc_sim.Engine

type t =
  | Racing_client of { alpha : float }
  | Lazy_replica of { alpha : float; slack_us : int64 }

let clamp01 a = Float.max 0.0 (Float.min 1.0 a)

(* ceil (alpha * count), never exceeding count. *)
let deviators ~alpha count =
  min count (int_of_float (Float.ceil (clamp01 alpha *. float_of_int count)))

let float_str f = Printf.sprintf "%.12g" f

let tag = function
  | Racing_client { alpha } -> Printf.sprintf "race:%s" (float_str alpha)
  | Lazy_replica { alpha; slack_us } ->
    Printf.sprintf "lazy:%s,%Ld" (float_str alpha) slack_us

let describe = function
  | Racing_client { alpha } ->
    Printf.sprintf
      "racing client (alpha=%s): duplicate each submission to the f+1 \
       fastest replicas"
      (float_str alpha)
  | Lazy_replica { alpha; slack_us } ->
    Printf.sprintf
      "lazy replica (alpha=%s): +%Ldµs on non-critical-path \
       replica→replica sends"
      (float_str alpha) slack_us

let to_sexp = function
  | Racing_client { alpha } ->
    Sexp.list [ Sexp.atom "race"; Sexp.atom (float_str alpha) ]
  | Lazy_replica { alpha; slack_us } ->
    Sexp.list
      [ Sexp.atom "lazy"; Sexp.atom (float_str alpha); Sexp.int64_atom slack_us ]

(* The one range check, for the term and the s-expression forms alike. *)
let validate = function
  | (Racing_client { alpha } | Lazy_replica { alpha; _ })
    when not (alpha >= 0.0 && alpha <= 1.0) ->
    Error (Printf.sprintf "alpha %s out of [0, 1]" (float_str alpha))
  | Lazy_replica { slack_us; _ } when slack_us < 0L ->
    Error (Printf.sprintf "negative lazy slack %Ld µs" slack_us)
  | t -> Ok t

let of_sexp sexp =
  let t =
    match sexp with
    | Sexp.List [ Sexp.Atom "race"; a ] ->
      Racing_client { alpha = float_of_string (Sexp.to_atom a) }
    | Sexp.List [ Sexp.Atom "lazy"; a; s ] ->
      Lazy_replica
        { alpha = float_of_string (Sexp.to_atom a); slack_us = Sexp.to_int64 s }
    | s -> failwith ("Rational: bad strategy sexp: " ^ Sexp.to_string s)
  in
  match validate t with Ok t -> t | Error e -> failwith ("Rational: " ^ e)

let of_term s =
  let parse_alpha a =
    match float_of_string_opt a with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad alpha %S" a)
  in
  let parsed =
    match String.index_opt s ':' with
    | Some i -> (
      let kind = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match kind with
      | "race" ->
        Result.map (fun alpha -> Racing_client { alpha }) (parse_alpha rest)
      | "lazy" -> (
        let alpha_s, slack_s =
          match String.index_opt rest ',' with
          | Some j ->
            ( String.sub rest 0 j,
              Some (String.sub rest (j + 1) (String.length rest - j - 1)) )
          | None -> (rest, None)
        in
        Result.bind (parse_alpha alpha_s) (fun alpha ->
            match slack_s with
            | None -> Ok (Lazy_replica { alpha; slack_us = 2_000L })
            | Some sl -> (
              match Int64.of_string_opt sl with
              | Some slack_us -> Ok (Lazy_replica { alpha; slack_us })
              | None -> Error (Printf.sprintf "bad lazy slack %S (µs)" sl))))
      | k -> Error (Printf.sprintf "unknown rational strategy %S" k))
    | None ->
      Error
        (Printf.sprintf
           "bad rational term %S (expected race:<alpha> or lazy:<alpha>[,<slack_us>])"
           s)
  in
  Result.bind parsed validate

let racing_quorum t ~topology ~client ~replicas ~f =
  match t with
  | Lazy_replica _ -> []
  | Racing_client _ ->
    let ranked =
      List.sort
        (fun (m1, r1) (m2, r2) ->
          match compare (m1 : float) m2 with 0 -> compare r1 r2 | c -> c)
        (List.init replicas (fun r ->
             ( Delay.mean_us (Topology.delay_between topology ~src:client ~dst:r),
               r )))
    in
    List.filteri (fun i _ -> i <= f) ranked |> List.map snd

let wrap_client t ~topology ~replicas ~f ~clients ~client_index ~pid
    (inner : 'm Engine.behavior) : 'm Engine.behavior =
  match t with
  | Lazy_replica _ -> inner
  | Racing_client { alpha } ->
    if client_index >= deviators ~alpha clients then inner
    else begin
      let fast = racing_quorum t ~topology ~client:pid ~replicas ~f in
      (* Wrap-style ctx interception: the duplicate is a second ordinary
         send, so it samples its own link delay — the race is real. *)
      let hedged (ctx : 'm Engine.ctx) =
        {
          ctx with
          Engine.send =
            (fun dst msg ->
              ctx.Engine.send dst msg;
              if dst < replicas && List.mem dst fast then
                ctx.Engine.send dst msg);
        }
      in
      {
        Engine.init = (fun ctx -> inner.Engine.init (hedged ctx));
        on_message =
          (fun ctx ~src msg -> inner.Engine.on_message (hedged ctx) ~src msg);
        on_timer = (fun ctx tag -> inner.Engine.on_timer (hedged ctx) tag);
      }
    end

let apply_links t ~replicas engine =
  match t with
  | Racing_client _ -> ()
  | Lazy_replica { alpha; slack_us } ->
    let net = Engine.net engine in
    let lazy_count = deviators ~alpha (max 0 (replicas - 1)) in
    (* Highest pids first; pid 0 (the view-0 leader) never free-rides —
       a lazy leader is a liveness attack, not a rational deviation. *)
    for i = 0 to lazy_count - 1 do
      let src = replicas - 1 - i in
      if src > 0 then
        for dst = 0 to replicas - 1 do
          if dst <> src then
            match Net.get net ~src ~dst with
            | Net.Deliver d ->
              Net.set net ~src ~dst (Net.Deliver (Delay.shift d slack_us))
            | Net.Block | Net.Drop -> ()
        done
    done
