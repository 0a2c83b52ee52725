type policy = Deliver of Delay.t | Block | Drop

(* Recycled message buffers for held (blocked-link) traffic.  A buffer
   is a flat growable vector; releasing it back to the pool clears the
   value slots to the pool's null sentinel (so parked messages are not
   pinned against the GC) and keeps the capacity for the next partition
   episode — steady-state partitions allocate nothing. *)
module Pool = struct
  type 'a buf = { mutable data : 'a array; mutable len : int; null : 'a }

  type 'a t = { null : 'a; mutable spare : 'a buf list }

  let create ~null () = { null; spare = [] }

  let acquire t =
    match t.spare with
    | buf :: rest ->
      t.spare <- rest;
      buf
    | [] -> { data = [||]; len = 0; null = t.null }

  let release t buf =
    Array.fill buf.data 0 buf.len buf.null;
    buf.len <- 0;
    t.spare <- buf :: t.spare

  let push buf v =
    let cap = Array.length buf.data in
    if buf.len = cap then begin
      let data = Array.make (if cap = 0 then 8 else cap * 2) buf.null in
      Array.blit buf.data 0 data 0 buf.len;
      buf.data <- data
    end;
    buf.data.(buf.len) <- v;
    buf.len <- buf.len + 1

  let length buf = buf.len

  let get buf i =
    if i < 0 || i >= buf.len then invalid_arg "Net.Pool.get: out of bounds";
    buf.data.(i)
end

type t = { links : policy array array }

let create ~n ~default =
  if n <= 0 then invalid_arg "Net.create: n must be positive";
  { links = Array.init n (fun _ -> Array.make n (Deliver default)) }

let n t = Array.length t.links

let check t pid name =
  if pid < 0 || pid >= n t then invalid_arg ("Net." ^ name ^ ": bad pid")

let get t ~src ~dst =
  check t src "get";
  check t dst "get";
  t.links.(src).(dst)

let set t ~src ~dst policy =
  check t src "set";
  check t dst "set";
  t.links.(src).(dst) <- policy

let set_from t ~src policy =
  check t src "set_from";
  for dst = 0 to n t - 1 do
    t.links.(src).(dst) <- policy
  done

let set_to t ~dst policy =
  check t dst "set_to";
  for src = 0 to n t - 1 do
    t.links.(src).(dst) <- policy
  done

let isolate_groups t ~groups policy =
  let group_of = Array.make (n t) (-1) in
  List.iteri
    (fun gi members -> List.iter (fun p -> group_of.(p) <- gi) members)
    groups;
  (* Unmentioned processes together form one implicit extra group (id -1). *)
  for src = 0 to n t - 1 do
    for dst = 0 to n t - 1 do
      if src <> dst && group_of.(src) <> group_of.(dst) then
        t.links.(src).(dst) <- policy
    done
  done
