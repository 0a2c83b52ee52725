module Keys = Thc_util.Keyed.Hash_order.String

type t = string Keys.t

type op = Get of string | Put of string * string | Delete of string | Incr of string

type result = Value of string option | Stored | Counter of int

let create () = Keys.create 64

let apply t = function
  | Get key -> Value (Keys.find_opt t key)
  | Put (key, value) ->
    Keys.replace t key value;
    Stored
  | Delete key ->
    Keys.remove t key;
    Stored
  | Incr key ->
    let current =
      match Keys.find_opt t key with
      | Some s -> ( try int_of_string s with Failure _ -> 0)
      | None -> 0
    in
    let next = current + 1 in
    Keys.replace t key (string_of_int next);
    Counter next

let digest t =
  (* XOR of per-binding digests: order-insensitive, collision-negligible at
     simulation scale. *)
  Keys.fold
    (fun k v acc ->
      Int64.logxor acc (Thc_crypto.Digest.to_int64 (Thc_crypto.Digest.of_value (k, v))))
    t 0L

let size = Keys.length

(* Sorted bindings, so two stores with equal contents snapshot to equal
   lists — state transfer ships these and verifies the digest after
   [restore]. *)
let snapshot t =
  Keys.fold (fun k v acc -> (k, v) :: acc) t []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let restore bindings =
  let t = create () in
  List.iter (fun (k, v) -> Keys.replace t k v) bindings;
  t

let reset_to t bindings =
  Keys.reset t;
  List.iter (fun (k, v) -> Keys.replace t k v) bindings

let encode_op (o : op) = Thc_util.Codec.encode o
let decode_op s = (Thc_util.Codec.decode s : op)
let encode_result (r : result) = Thc_util.Codec.encode r
let decode_result s = (Thc_util.Codec.decode s : result)

let pp_result ppf = function
  | Value None -> Format.pp_print_string ppf "nil"
  | Value (Some v) -> Format.fprintf ppf "val(%s)" v
  | Stored -> Format.pp_print_string ppf "ok"
  | Counter n -> Format.fprintf ppf "ctr(%d)" n
