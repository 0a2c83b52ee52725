(* An odd multiplier, so [mix a b] keeps distinct small [a] apart in the
   low bits a table indexes by. *)
let mix a b = (a * 0x9E3779B1) + b

module Int_key = struct
  type t = int

  let equal = Stdlib.Int.equal
end

module Pair_key = struct
  type t = int * int

  let equal ((a, b) : t) (c, d) = a = c && b = d
end

module Int = Hashtbl.Make (struct
  include Int_key

  let hash x = x
end)

module Pair = Hashtbl.Make (struct
  include Pair_key

  let hash (k : t) =
    let a, b = k in
    mix a b
end)

module Triple = Hashtbl.Make (struct
  type t = int * int * int64

  let equal ((a, b, c) : t) (d, e, f) = a = d && b = e && Int64.equal c f

  let hash (k : t) =
    let a, b, c = k in
    mix (mix a b) (Int64.to_int c)
end)

module Tag = Hashtbl.Make (struct
  type t = int64

  let equal = Int64.equal

  let hash = Int64.to_int
end)

module Hash_order = struct
  module Int = Hashtbl.Make (struct
    include Int_key

    let hash = Hashtbl.hash
  end)

  module Pair = Hashtbl.Make (struct
    include Pair_key

    let hash = Hashtbl.hash
  end)

  module String = Hashtbl.Make (struct
    type t = string

    let equal = Stdlib.String.equal

    let hash = Hashtbl.hash
  end)
end
