type t = { signer : int; tag : int64 }

let sign_digest secret digest =
  { signer = Keyring.pid_of_secret secret; tag = Keyring.attach_tag secret digest }

let sign secret payload = sign_digest secret (Digest.of_string payload)

let sign_value secret v =
  { signer = Keyring.pid_of_secret secret; tag = Keyring.attach_value_tag secret v }

let verify_digest keyring t digest =
  Keyring.check_tag keyring ~signer:t.signer ~digest ~tag:t.tag

let verify keyring t payload =
  verify_digest keyring t (Digest.of_string payload)

let verify_value keyring t v =
  Keyring.check_value_tag keyring ~signer:t.signer ~tag:t.tag v

let counterfeit ~signer ~tag = { signer; tag }

let equal a b = a.signer = b.signer && Int64.equal a.tag b.tag

let pp ppf t = Format.fprintf ppf "sig[p%d:%Lx]" t.signer t.tag

type 'a signed = { value : 'a; signature : t }

let seal secret v = { value = v; signature = sign_value secret v }

let sealed_ok keyring s = verify_value keyring s.signature s.value

let sealed_by keyring s ~expect = s.signature.signer = expect && sealed_ok keyring s
