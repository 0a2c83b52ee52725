type handle = {
  self : int;
  n : int;
  round : unit -> int;
  output : Thc_sim.Obs.t -> unit;
  now : unit -> int64;
  rng : Thc_util.Rng.t;
}

type verdict = Advance of string option | Hold | Stop

type app = {
  first_payload : handle -> string option;
  on_receive : handle -> round:int -> from:int -> string -> unit;
  on_round_check : handle -> round:int -> verdict;
}

let silent_app =
  {
    first_payload = (fun _ -> None);
    on_receive = (fun _ ~round:_ ~from:_ _ -> ());
    on_round_check = (fun _ ~round:_ -> Advance None);
  }

let chatter ~rounds =
  {
    first_payload = (fun h -> Some (Printf.sprintf "r1-p%d" h.self));
    on_receive = (fun _ ~round:_ ~from:_ _ -> ());
    on_round_check =
      (fun h ~round ->
        if round >= rounds then Stop
        else Advance (Some (Printf.sprintf "r%d-p%d" (round + 1) h.self)));
  }
