type attestation = {
  owner : int;
  prev : int;
  counter : int;
  message : string;
  tag : int64;
}

module Tags = Thc_util.Keyed.Tag

(* [verified] remembers, by tag, every attestation this world's trinkets
   produced or [check] accepted.  It holds host work only: an entry's tag
   is genuine for its own fields, so a field-equal attestation would hash
   to the same tag, and [check] skips only that hash. *)
type world = {
  nonces : int64 array;
  claimed : bool array;
  ops : Thc_obsv.Ledger.t;
  monotonic : bool;
  verified : attestation Tags.t;
}

type t = {
  owner : int;
  nonce : int64;
  mutable last : int;
  ops : Thc_obsv.Ledger.t;
  monotonic : bool;
  verified : attestation Tags.t;
}

let make_world ~monotonic rng ~n =
  if n <= 0 then invalid_arg "Trinc.create_world: n must be positive";
  {
    nonces = Array.init n (fun _ -> Thc_util.Rng.next_int64 rng);
    claimed = Array.make n false;
    ops = Thc_obsv.Ledger.create ();
    monotonic;
    verified = Tags.create 64;
  }

let create_world rng ~n = make_world ~monotonic:true rng ~n

let create_unattested_world rng ~n = make_world ~monotonic:false rng ~n

(* The unattested world is no trusted hardware at all: it charges nothing,
   so its runs report 0 trusted ops. *)
let charge ~monotonic ops label =
  if monotonic then Thc_obsv.Ledger.bump ops label

let ledger (world : world) = world.ops

let ledger_of (t : t) = t.ops

let trinket world ~owner =
  if owner < 0 || owner >= Array.length world.nonces then
    invalid_arg "Trinc.trinket: unknown owner";
  if world.claimed.(owner) then
    invalid_arg "Trinc.trinket: trinket already claimed";
  world.claimed.(owner) <- true;
  {
    owner;
    nonce = world.nonces.(owner);
    last = 0;
    ops = world.ops;
    monotonic = world.monotonic;
    verified = world.verified;
  }

let tag_of ~nonce ~owner ~prev ~counter ~message =
  Thc_crypto.Digest.to_int64
    (Thc_crypto.Digest.of_value (nonce, owner, prev, counter, message))

let attest t ~counter ~message =
  if t.monotonic && counter <= t.last then begin
    Thc_obsv.Ledger.bump t.ops "trinc.attest_denied";
    None
  end
  else begin
    charge ~monotonic:t.monotonic t.ops "trinc.attest";
    (* Without monotonicity the previous counter is whatever the caller's
       counter implies — on a dense stream the same value TrInc records. *)
    let prev = if t.monotonic then t.last else counter - 1 in
    t.last <- max t.last counter;
    let tag = tag_of ~nonce:t.nonce ~owner:t.owner ~prev ~counter ~message in
    let a = { owner = t.owner; prev; counter; message; tag } in
    Tags.replace t.verified tag a;
    Some a
  end

let remembered (world : world) (a : attestation) =
  match Tags.find_opt world.verified a.tag with
  | Some m ->
    m == a
    || m.owner = a.owner
       && m.prev = a.prev
       && m.counter = a.counter
       && String.equal m.message a.message
  | None -> false

let tag_verifies (world : world) (a : attestation) ~id =
  remembered world a
  ||
  let ok =
    Int64.equal a.tag
      (tag_of ~nonce:world.nonces.(id) ~owner:a.owner ~prev:a.prev
         ~counter:a.counter ~message:a.message)
  in
  if ok then Tags.replace world.verified a.tag a;
  ok

let check (world : world) (a : attestation) ~id =
  charge ~monotonic:world.monotonic world.ops "trinc.check";
  let ok =
    a.owner = id
    && id >= 0
    && id < Array.length world.nonces
    && tag_verifies world a ~id
  in
  if not ok then charge ~monotonic:world.monotonic world.ops "trinc.check_fail";
  ok

let last_counter t = t.last

let counterfeit ~owner ~prev ~counter ~message ~tag =
  { owner; prev; counter; message; tag }
