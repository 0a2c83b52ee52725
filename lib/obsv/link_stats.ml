type t = {
  n : int;
  mutable sends : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable in_flight : int;
  mutable in_flight_hwm : int;
  mutable held_now : int;
  mutable held_total : int;
  mutable held_hwm : int;
  mutable settled : int;  (* once-held messages delivered live or dropped *)
  depth : int array;  (* per-link held queue depth, row-major src*n+dst *)
  src_sends : int array;  (* sends per source pid *)
}

let create ~n =
  if n <= 0 then invalid_arg "Link_stats.create: n must be positive";
  {
    n;
    sends = 0;
    delivered = 0;
    dropped = 0;
    in_flight = 0;
    in_flight_hwm = 0;
    held_now = 0;
    held_total = 0;
    held_hwm = 0;
    settled = 0;
    depth = Array.make (n * n) 0;
    src_sends = Array.make n 0;
  }

let slot t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Link_stats: bad pid";
  (src * t.n) + dst

let on_send t ~src =
  t.sends <- t.sends + 1;
  t.src_sends.(src) <- t.src_sends.(src) + 1

let on_enqueue t =
  t.in_flight <- t.in_flight + 1;
  if t.in_flight > t.in_flight_hwm then t.in_flight_hwm <- t.in_flight

let on_dequeue t = t.in_flight <- t.in_flight - 1

let on_deliver t = t.delivered <- t.delivered + 1

let on_held t ~src ~dst =
  let i = slot t ~src ~dst in
  t.depth.(i) <- t.depth.(i) + 1;
  if t.depth.(i) > t.held_hwm then t.held_hwm <- t.depth.(i);
  t.held_now <- t.held_now + 1;
  t.held_total <- t.held_total + 1

let on_release t ~src ~dst =
  let i = slot t ~src ~dst in
  t.depth.(i) <- t.depth.(i) - 1;
  t.held_now <- t.held_now - 1

let on_drop t = t.dropped <- t.dropped + 1

let on_settle t = t.settled <- t.settled + 1

let sends t = t.sends

let delivered t = t.delivered

let dropped t = t.dropped

let in_flight t = t.in_flight

let in_flight_hwm t = t.in_flight_hwm

let held_now t = t.held_now

let held_total t = t.held_total

let held_hwm t = t.held_hwm

let held_depth t ~src ~dst = t.depth.(slot t ~src ~dst)

let held_unsettled t = t.held_total - t.settled

let sends_by_source t =
  List.filter
    (fun (_, c) -> c > 0)
    (List.init t.n (fun pid -> (pid, t.src_sends.(pid))))

let rows t =
  [
    ("sent", t.sends);
    ("delivered", t.delivered);
    ("dropped", t.dropped);
    ("in-flight at end", t.in_flight);
    ("in-flight high-water", t.in_flight_hwm);
    ("held at end", t.held_now);
    ("held total", t.held_total);
    ("held queue high-water", t.held_hwm);
  ]

let to_json t =
  Json.Obj
    [
      ("sent", Json.Int t.sends);
      ("delivered", Json.Int t.delivered);
      ("dropped", Json.Int t.dropped);
      ("in_flight", Json.Int t.in_flight);
      ("in_flight_hwm", Json.Int t.in_flight_hwm);
      ("held_now", Json.Int t.held_now);
      ("held_total", Json.Int t.held_total);
      ("held_hwm", Json.Int t.held_hwm);
    ]
