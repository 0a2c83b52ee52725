module Out = struct
  type t = {
    trinket : Thc_hardware.Trinc.t;
    mutable log : Thc_hardware.Trinc.attestation list;  (* newest first *)
  }

  let create trinket = { trinket; log = [] }

  let seal t payload =
    let counter = Thc_hardware.Trinc.last_counter t.trinket + 1 in
    match Thc_hardware.Trinc.attest t.trinket ~counter ~message:payload with
    | Some a ->
      t.log <- a :: t.log;
      a
    | None -> assert false (* last + 1 is always attestable *)

  let sent_log t = List.rev t.log

  (* Off the sent-log: a rewind is the attacker's side channel, not part of
     the replica's history. *)
  let rewind t payload =
    Thc_hardware.Trinc.attest t.trinket
      ~counter:(Thc_hardware.Trinc.last_counter t.trinket)
      ~message:payload
end

module In = struct
  type stream = {
    pending : (int, Thc_hardware.Trinc.attestation) Hashtbl.t;
    mutable released : int;  (* last counter released *)
  }

  type t = { world : Thc_hardware.Trinc.world; streams : stream array }

  let create ~world ~n =
    {
      world;
      streams =
        Array.init n (fun _ -> { pending = Hashtbl.create 8; released = 0 });
    }

  let reject t label =
    Thc_obsv.Ledger.bump (Thc_hardware.Trinc.ledger t.world) label;
    []

  let accept t (a : Thc_hardware.Trinc.attestation) =
    if a.owner < 0 || a.owner >= Array.length t.streams || a.prev <> a.counter - 1
    then reject t "link.reject_malformed"
    else if not (Thc_hardware.Trinc.check t.world a ~id:a.owner) then
      reject t "link.reject_forged"
    else begin
      let s = t.streams.(a.owner) in
      if a.counter <= s.released || Hashtbl.mem s.pending a.counter then
        reject t "link.reject_replay"
      else begin
        Hashtbl.replace s.pending a.counter a;
        let out = ref [] in
        let rec drain () =
          match Hashtbl.find_opt s.pending (s.released + 1) with
          | Some next ->
            Hashtbl.remove s.pending next.counter;
            s.released <- next.counter;
            out := next :: !out;
            drain ()
          | None -> ()
        in
        drain ();
        List.rev !out
      end
    end

  let delivered_upto t ~owner = t.streams.(owner).released
end

let check_log ~world ~owner log =
  let rec go expected acc = function
    | [] -> Some (List.rev acc)
    | (a : Thc_hardware.Trinc.attestation) :: rest ->
      if
        a.counter = expected
        && a.prev = expected - 1
        && Thc_hardware.Trinc.check world a ~id:owner
      then go (expected + 1) (a.message :: acc) rest
      else None
  in
  go 1 [] log
