(* [memo] remembers the values signed or verified under this keyring, each
   with its signer, by tag and identity.  Values are stored with [Obj.repr]
   only to be compared by identity; none is read back.  [vacant] is a block
   no caller can hold, so no value matches an empty slot. *)
type memo = (Obj.t, int) Thc_util.Identity_table.t

let vacant = Obj.repr (ref ())

type secret = { pid : int; nonce : int64; memo : memo }

type t = { nonces : int64 array; memo : memo }

let create rng ~n =
  if n <= 0 then invalid_arg "Keyring.create: n must be positive";
  {
    nonces = Array.init n (fun _ -> Thc_util.Rng.next_int64 rng);
    memo = Thc_util.Identity_table.create ~vacant (-1);
  }

let n t = Array.length t.nonces

let secret t ~pid =
  if pid < 0 || pid >= Array.length t.nonces then
    invalid_arg "Keyring.secret: unknown pid";
  { pid; nonce = t.nonces.(pid); memo = t.memo }

let pid_of_secret s = s.pid

let tag_of ~pid ~nonce digest =
  Digest.to_int64 (Digest.of_value (pid, nonce, Digest.to_int64 digest))

let attach_tag s digest = tag_of ~pid:s.pid ~nonce:s.nonce digest

let check_tag t ~signer ~digest ~tag =
  signer >= 0
  && signer < Array.length t.nonces
  && Int64.equal (tag_of ~pid:signer ~nonce:t.nonces.(signer) digest) tag

let attach_value_tag s v =
  let tag = attach_tag s (Digest.of_value v) in
  Thc_util.Identity_table.add s.memo ~tag (Obj.repr v) s.pid;
  tag

(* A hit needs the very value ([==]) remembered with this signer and tag.
   Values are immutable and a tag is a function of signer and value, so the
   hash below would accept it too: a hit skips host work, never a check. *)
let check_value_tag t ~signer ~tag v =
  let i = Thc_util.Identity_table.find t.memo ~tag (Obj.repr v) in
  (i >= 0 && Thc_util.Identity_table.value t.memo i = signer)
  ||
  let ok = check_tag t ~signer ~digest:(Digest.of_value v) ~tag in
  if ok then Thc_util.Identity_table.add t.memo ~tag (Obj.repr v) signer;
  ok
