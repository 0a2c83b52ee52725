type ('k, 'v) t = { tags : int64 array; keys : 'k array; values : 'v array }

let slots = 64

let create ~vacant v =
  {
    tags = Array.make slots 0L;
    keys = Array.make slots vacant;
    values = Array.make slots v;
  }

let pair tag = 2 * (Int64.to_int tag land ((slots / 2) - 1))

let holds t i ~tag k = t.keys.(i) == k && Int64.equal t.tags.(i) tag

let find t ~tag k =
  let i = pair tag in
  if holds t i ~tag k then i else if holds t (i + 1) ~tag k then i + 1 else -1

let value t i = t.values.(i)

let add t ~tag k v =
  let i = pair tag in
  t.tags.(i + 1) <- t.tags.(i);
  t.keys.(i + 1) <- t.keys.(i);
  t.values.(i + 1) <- t.values.(i);
  t.tags.(i) <- tag;
  t.keys.(i) <- k;
  t.values.(i) <- v
