(* Tests for the simulated cryptographic substrate: digests, keyring,
   signatures, quorum certificates — including the forgery attempts the
   paper's unforgeability assumption rules out. *)

let qcheck = QCheck_alcotest.to_alcotest

let rng () = Thc_util.Rng.create 99L

let keyring ?(n = 4) () = Thc_crypto.Keyring.create (rng ()) ~n

(* --- digests ---------------------------------------------------------------- *)

let test_digest_deterministic () =
  Alcotest.(check bool) "equal inputs equal digests" true
    (Thc_crypto.Digest.equal
       (Thc_crypto.Digest.of_string "hello")
       (Thc_crypto.Digest.of_string "hello"))

let test_digest_distinct () =
  Alcotest.(check bool) "distinct inputs distinct digests" false
    (Thc_crypto.Digest.equal
       (Thc_crypto.Digest.of_string "hello")
       (Thc_crypto.Digest.of_string "hellp"))

let test_digest_combine_order () =
  let a = Thc_crypto.Digest.of_string "a" in
  let b = Thc_crypto.Digest.of_string "b" in
  Alcotest.(check bool) "combine is order-sensitive" false
    (Thc_crypto.Digest.equal
       (Thc_crypto.Digest.combine a b)
       (Thc_crypto.Digest.combine b a))

let test_digest_hex () =
  Alcotest.(check int) "hex width" 16
    (String.length (Thc_crypto.Digest.to_hex (Thc_crypto.Digest.of_string "x")))

let prop_digest_injective_on_sample =
  QCheck.Test.make ~name:"no collisions on random pairs" ~count:500
    QCheck.(pair string string)
    (fun (a, b) ->
      String.equal a b
      || not
           (Thc_crypto.Digest.equal
              (Thc_crypto.Digest.of_string a)
              (Thc_crypto.Digest.of_string b)))

(* [of_value] hashes [Codec.encode v]'s bytes out of a reused scratch
   buffer (4 KiB at first, doubled on overflow).  Values run from a few
   bytes to three times that size, so the buffer must grow, and each small
   value is digested right after a large one, so stale bytes past the
   small encoding must not count. *)
let scratch_bytes = 4096

let of_value_reference v =
  Thc_crypto.Digest.of_string (Thc_util.Codec.encode v)

let same_digest v =
  Thc_crypto.Digest.equal (Thc_crypto.Digest.of_value v) (of_value_reference v)

type sample = {
  label : string;
  stamp : int64;
  pairs : (int * int64) list;
  nested : string list list;
}

let gen_sample =
  QCheck.Gen.(
    map
      (fun (label, stamp, pairs, nested) -> { label; stamp; pairs; nested })
      (quad (string_size (int_bound 16)) ui64
         (list_size (int_bound 8) (pair small_int ui64))
         (list_size (int_bound 4)
            (list_size (int_bound 4) (string_size (int_bound 64))))))

let test_digest_scratch_growth () =
  List.iter
    (fun len ->
      let big = String.make len 'x' in
      Alcotest.(check bool)
        (Printf.sprintf "%d-byte string" len)
        true (same_digest big);
      Alcotest.(check bool)
        (Printf.sprintf "small value after %d bytes" len)
        true
        (same_digest (1, 2L)))
    (* Ascending, so the encoding that exactly fills the first buffer
       comes before the one that makes it grow. *)
    (List.init 80 (fun i -> scratch_bytes - 72 + i)
    @ [ (2 * scratch_bytes) + 1; 3 * scratch_bytes ])

let prop_of_value_matches_encode =
  QCheck.Test.make ~name:"of_value = of_string (Codec.encode v)" ~count:200
    QCheck.(
      make
        Gen.(
          triple gen_sample
            (string_size (int_range 0 (3 * scratch_bytes)))
            (list_size (int_bound 3) gen_sample)))
    (fun (s, big, more) ->
      same_digest big
      && same_digest s
      && same_digest (s, big, more)
      && same_digest (List.map (fun m -> (m.stamp, [ m ])) more)
      && same_digest (Int64.logxor s.stamp 1L, [ Some s.label; None ]))

(* --- keyring ----------------------------------------------------------------- *)

let test_keyring_size () = Alcotest.(check int) "n" 4 (Thc_crypto.Keyring.n (keyring ()))

let test_keyring_secret_pid () =
  let k = keyring () in
  Alcotest.(check int) "pid bound in secret" 2
    (Thc_crypto.Keyring.pid_of_secret (Thc_crypto.Keyring.secret k ~pid:2))

let test_keyring_unknown_pid () =
  let k = keyring () in
  Alcotest.check_raises "bad pid" (Invalid_argument "Keyring.secret: unknown pid")
    (fun () -> ignore (Thc_crypto.Keyring.secret k ~pid:7))

let test_keyring_tags_differ_by_signer () =
  let k = keyring () in
  let d = Thc_crypto.Digest.of_string "m" in
  let t0 = Thc_crypto.Keyring.attach_tag (Thc_crypto.Keyring.secret k ~pid:0) d in
  let t1 = Thc_crypto.Keyring.attach_tag (Thc_crypto.Keyring.secret k ~pid:1) d in
  Alcotest.(check bool) "tags differ across signers" true (t0 <> t1)

(* --- signatures ---------------------------------------------------------------- *)

let test_sign_verify () =
  let k = keyring () in
  let s = Thc_crypto.Signature.sign (Thc_crypto.Keyring.secret k ~pid:1) "msg" in
  Alcotest.(check bool) "verifies" true (Thc_crypto.Signature.verify k s "msg");
  Alcotest.(check int) "signer recorded" 1 s.signer

let test_sign_wrong_message () =
  let k = keyring () in
  let s = Thc_crypto.Signature.sign (Thc_crypto.Keyring.secret k ~pid:1) "msg" in
  Alcotest.(check bool) "rejects other message" false
    (Thc_crypto.Signature.verify k s "other")

let test_sign_wrong_claimed_signer () =
  let k = keyring () in
  let s = Thc_crypto.Signature.sign (Thc_crypto.Keyring.secret k ~pid:1) "msg" in
  let relabeled = { s with Thc_crypto.Signature.signer = 2 } in
  Alcotest.(check bool) "relabeling breaks verification" false
    (Thc_crypto.Signature.verify k relabeled "msg")

let test_counterfeit_rejected () =
  let k = keyring () in
  let forged = Thc_crypto.Signature.counterfeit ~signer:0 ~tag:123456789L in
  Alcotest.(check bool) "forgery rejected" false
    (Thc_crypto.Signature.verify k forged "msg")

let test_signature_transferable () =
  (* A signature survives serialization inside another message. *)
  let k = keyring () in
  let s = Thc_crypto.Signature.sign_value (Thc_crypto.Keyring.secret k ~pid:3) (42, "v") in
  let shipped : Thc_crypto.Signature.t =
    Thc_util.Codec.decode (Thc_util.Codec.encode s)
  in
  Alcotest.(check bool) "still verifies after transfer" true
    (Thc_crypto.Signature.verify_value k shipped (42, "v"))

let test_sealed () =
  let k = keyring () in
  let sealed = Thc_crypto.Signature.seal (Thc_crypto.Keyring.secret k ~pid:2) "payload" in
  Alcotest.(check bool) "sealed ok" true (Thc_crypto.Signature.sealed_ok k sealed);
  Alcotest.(check bool) "sealed by 2" true
    (Thc_crypto.Signature.sealed_by k sealed ~expect:2);
  Alcotest.(check bool) "not sealed by 1" false
    (Thc_crypto.Signature.sealed_by k sealed ~expect:1);
  let tampered = { sealed with Thc_crypto.Signature.value = "other" } in
  Alcotest.(check bool) "tampered payload rejected" false
    (Thc_crypto.Signature.sealed_ok k tampered)

let prop_sign_verify_roundtrip =
  QCheck.Test.make ~name:"every signed payload verifies" ~count:300
    QCheck.(pair (int_bound 3) string)
    (fun (pid, payload) ->
      let k = keyring () in
      let s = Thc_crypto.Signature.sign (Thc_crypto.Keyring.secret k ~pid) payload in
      Thc_crypto.Signature.verify k s payload)

let prop_random_tags_rejected =
  QCheck.Test.make ~name:"random tags never verify" ~count:300
    QCheck.(pair (int_bound 3) int64)
    (fun (signer, tag) ->
      let k = keyring () in
      not
        (Thc_crypto.Signature.verify k
           (Thc_crypto.Signature.counterfeit ~signer ~tag)
           "payload"))

(* [sign_value]/[verify_value] digest the value in place; they must agree
   with [sign]/[verify] over the same value's [Codec.encode] bytes. *)
let prop_value_signatures_match_bytes =
  QCheck.Test.make ~name:"value signatures match encoded bytes" ~count:200
    QCheck.(
      make
        Gen.(
          triple (int_bound 3) gen_sample
            (string_size (int_range 0 (3 * scratch_bytes)))))
    (fun (pid, s, big) ->
      let k = keyring () in
      let secret = Thc_crypto.Keyring.secret k ~pid in
      let v = (s, big) in
      let bytes = Thc_util.Codec.encode v in
      let sv = Thc_crypto.Signature.sign_value secret v in
      let sb = Thc_crypto.Signature.sign secret bytes in
      let other = Thc_crypto.Signature.sign secret (bytes ^ "!") in
      Thc_crypto.Signature.equal sv sb
      && Thc_crypto.Signature.verify_value k sv v
      && Thc_crypto.Signature.verify k sv bytes
      && (not (Thc_crypto.Signature.verify_value k other v))
      && not (Thc_crypto.Signature.verify k other bytes))

(* --- signature memo ------------------------------------------------------------- *)

(* Each keyring remembers the values it signed or verified, and
   [verify_value] answers from that memo when it holds the very value under
   the same signer and tag.  The memo-free reference is [check_tag] over
   [Digest.of_value]: on every call the two must agree. *)
let reference k (s : Thc_crypto.Signature.t) v =
  Thc_crypto.Keyring.check_tag k ~signer:s.signer
    ~digest:(Thc_crypto.Digest.of_value v) ~tag:s.tag

let memo_pool =
  Array.init 24 (fun i ->
      {
        label = string_of_int i;
        stamp = Int64.of_int i;
        pairs = [ (i, Int64.of_int (i * i)) ];
        nested = [ [ "x" ] ];
      })

let copy v : sample = Thc_util.Codec.decode (Thc_util.Codec.encode v)

(* Random sequences of seals and verifies over two keyrings (the second
   drawn from another seed): genuine, tampered and structurally copied
   values, counterfeit tags in the genuine tag's pair and relabelled
   signers.  Sequences run past 64 seals, so slots are overwritten. *)
let prop_memo_matches_hash =
  QCheck.Test.make ~name:"verify_value = check_tag over of_value" ~count:60
    QCheck.(
      list_of_size
        Gen.(int_range 1 300)
        (quad (int_bound 5) (int_bound 7) small_nat small_nat))
    (fun ops ->
      let rings =
        [| keyring (); Thc_crypto.Keyring.create (Thc_util.Rng.create 7L) ~n:4 |]
      in
      let signed = ref [||] in
      List.for_all
        (fun (kind, b, c, d) ->
          let k = rings.(b mod 2) in
          let value = memo_pool.(d mod Array.length memo_pool) in
          let agrees s v =
            Bool.equal (Thc_crypto.Signature.verify_value k s v) (reference k s v)
          in
          if kind = 0 || Array.length !signed = 0 then begin
            let secret = Thc_crypto.Keyring.secret k ~pid:(c mod 4) in
            let s = Thc_crypto.Signature.sign_value secret value in
            signed := Array.append !signed [| (s, value) |];
            true
          end
          else
            let s, v = !signed.(c mod Array.length !signed) in
            match kind with
            | 1 -> agrees s v
            | 2 -> agrees s value
            | 3 -> agrees s (copy v)
            | 4 ->
              agrees
                (Thc_crypto.Signature.counterfeit ~signer:s.signer
                   ~tag:(Int64.add s.tag (Int64.of_int (64 * (d + 1)))))
                v
            | _ ->
              agrees
                (Thc_crypto.Signature.counterfeit
                   ~signer:((s.signer + 1 + b) mod 5) ~tag:s.tag)
                v)
        ops)

let test_memo_refuses_lookalikes () =
  let k = keyring () in
  let v = memo_pool.(3) in
  let s = Thc_crypto.Signature.sign_value (Thc_crypto.Keyring.secret k ~pid:1) v in
  Alcotest.(check bool) "remembered value verifies" true
    (Thc_crypto.Signature.verify_value k s v);
  let refused label s' v' =
    Alcotest.(check bool) label false (Thc_crypto.Signature.verify_value k s' v')
  in
  refused "counterfeit tag in the same pair"
    (Thc_crypto.Signature.counterfeit ~signer:1 ~tag:(Int64.add s.tag 64L))
    v;
  refused "another signer"
    (Thc_crypto.Signature.counterfeit ~signer:2 ~tag:s.tag)
    v;
  refused "structurally equal value, different tag"
    (Thc_crypto.Signature.counterfeit ~signer:1 ~tag:(Int64.add s.tag 64L))
    (copy v);
  Alcotest.(check bool) "another keyring" false
    (Thc_crypto.Signature.verify_value
       (Thc_crypto.Keyring.create (Thc_util.Rng.create 7L) ~n:4)
       s v);
  Alcotest.(check bool) "structurally equal value, same tag (hashed)" true
    (Thc_crypto.Signature.verify_value k s (copy v))

(* The memo answers for the very value it holds, which is why signed values
   must be immutable: [Bytes] changed in place after signing still passes
   while its slot holds it.  Once a thousand later seals have overwritten
   that slot, the same call hashes and refuses the changed bytes, and an
   untouched value signed before them still verifies by hashing. *)
let test_memo_overwritten_slot_hashes () =
  let k = keyring () in
  let secret = Thc_crypto.Keyring.secret k ~pid:0 in
  let kept = memo_pool.(5) in
  let s_kept = Thc_crypto.Signature.sign_value secret kept in
  let b = Bytes.of_string "signed" in
  let s_b = Thc_crypto.Signature.sign_value secret b in
  Bytes.set b 0 'S';
  Alcotest.(check bool) "held slot answers from the memo" true
    (Thc_crypto.Signature.verify_value k s_b b);
  for i = 1 to 1000 do
    ignore (Thc_crypto.Signature.sign_value secret (i, "filler"))
  done;
  Alcotest.(check bool) "overwritten slot hashes: changed bytes refused" false
    (Thc_crypto.Signature.verify_value k s_b b);
  Alcotest.(check bool) "overwritten slot hashes: untouched value verifies" true
    (Thc_crypto.Signature.verify_value k s_kept kept)

(* --- certificates ----------------------------------------------------------------- *)

let sig_on k pid v = Thc_crypto.Signature.sign_value (Thc_crypto.Keyring.secret k ~pid) v

let test_cert_support () =
  let k = keyring () in
  let v = "decision" in
  let c =
    Thc_crypto.Cert.of_signatures v [ sig_on k 0 v; sig_on k 1 v; sig_on k 2 v ]
  in
  Alcotest.(check int) "support counts distinct valid signers" 3
    (Thc_crypto.Cert.support k c);
  Alcotest.(check bool) "meets threshold 3" true
    (Thc_crypto.Cert.validate k ~threshold:3 c);
  Alcotest.(check bool) "misses threshold 4" false
    (Thc_crypto.Cert.validate k ~threshold:4 c)

let test_cert_duplicates_discounted () =
  let k = keyring () in
  let v = "decision" in
  let s0 = sig_on k 0 v in
  let c = Thc_crypto.Cert.of_signatures v [ s0; s0; s0 ] in
  Alcotest.(check int) "duplicates count once" 1 (Thc_crypto.Cert.support k c)

let test_cert_invalid_excluded () =
  let k = keyring () in
  let v = "decision" in
  let wrong = sig_on k 1 "other-value" in
  let c = Thc_crypto.Cert.of_signatures v [ sig_on k 0 v; wrong ] in
  Alcotest.(check int) "wrong-value signature excluded" 1
    (Thc_crypto.Cert.support k c)

let test_cert_signers_sorted () =
  let k = keyring () in
  let v = "v" in
  let c = Thc_crypto.Cert.of_signatures v [ sig_on k 2 v; sig_on k 0 v ] in
  Alcotest.(check (list int)) "signers ascending" [ 0; 2 ] (Thc_crypto.Cert.signers c)

let test_cert_add () =
  let k = keyring () in
  let v = "v" in
  let c = Thc_crypto.Cert.add (Thc_crypto.Cert.empty v) (sig_on k 1 v) in
  Alcotest.(check int) "added signature counted" 1 (Thc_crypto.Cert.support k c)

let () =
  Alcotest.run "thc_crypto"
    [
      ( "digest",
        [
          Alcotest.test_case "deterministic" `Quick test_digest_deterministic;
          Alcotest.test_case "distinct" `Quick test_digest_distinct;
          Alcotest.test_case "combine order" `Quick test_digest_combine_order;
          Alcotest.test_case "hex" `Quick test_digest_hex;
          qcheck prop_digest_injective_on_sample;
          Alcotest.test_case "of_value past scratch size" `Quick
            test_digest_scratch_growth;
          qcheck prop_of_value_matches_encode;
        ] );
      ( "keyring",
        [
          Alcotest.test_case "size" `Quick test_keyring_size;
          Alcotest.test_case "secret pid" `Quick test_keyring_secret_pid;
          Alcotest.test_case "unknown pid" `Quick test_keyring_unknown_pid;
          Alcotest.test_case "tags per signer" `Quick test_keyring_tags_differ_by_signer;
        ] );
      ( "signature",
        [
          Alcotest.test_case "sign/verify" `Quick test_sign_verify;
          Alcotest.test_case "wrong message" `Quick test_sign_wrong_message;
          Alcotest.test_case "relabeled signer" `Quick test_sign_wrong_claimed_signer;
          Alcotest.test_case "counterfeit" `Quick test_counterfeit_rejected;
          Alcotest.test_case "transferable" `Quick test_signature_transferable;
          Alcotest.test_case "sealed values" `Quick test_sealed;
          qcheck prop_sign_verify_roundtrip;
          qcheck prop_random_tags_rejected;
          qcheck prop_value_signatures_match_bytes;
        ] );
      ( "memo",
        [
          qcheck prop_memo_matches_hash;
          Alcotest.test_case "refuses lookalikes" `Quick test_memo_refuses_lookalikes;
          Alcotest.test_case "overwritten slot hashes" `Quick
            test_memo_overwritten_slot_hashes;
        ] );
      ( "cert",
        [
          Alcotest.test_case "support" `Quick test_cert_support;
          Alcotest.test_case "duplicates" `Quick test_cert_duplicates_discounted;
          Alcotest.test_case "invalid excluded" `Quick test_cert_invalid_excluded;
          Alcotest.test_case "signers sorted" `Quick test_cert_signers_sorted;
          Alcotest.test_case "add" `Quick test_cert_add;
        ] );
    ]
