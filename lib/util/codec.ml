let encode v = Marshal.to_string v []

let rec encode_into buf v =
  match Marshal.to_buffer !buf 0 (Bytes.length !buf) v [] with
  | len -> len
  | exception Failure _ ->
    buf := Bytes.create (2 * Bytes.length !buf);
    encode_into buf v

let decode s = Marshal.from_string s 0
