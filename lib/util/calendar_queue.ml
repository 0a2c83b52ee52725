(* Calendar queue with a binary-heap fallback for sparse horizons.

   The structure is a classic discrete-event calendar: the near future
   (one "year" = nbuckets * width time units) is divided into
   fixed-width bucket slices, and an event lands in the bucket of its
   slice in O(1).  Events beyond the current year go to an overflow
   binary heap; when the calendar drains, the year re-anchors at the
   overflow minimum and every overflow event inside the new year
   migrates into the buckets.  Both sides are structs-of-arrays (parallel
   int arrays for times and ties, a value array alongside) so the hot
   path touches flat unboxed memory instead of boxed tuple keys.

   Each bucket keeps its entries sorted by (time, tie) between a head
   index and its length.  A push inserts from the tail, so the in-order
   pushes a broadcast wave makes cost O(1); a pop takes the head.  A
   burst of k events at one instant therefore drains in O(k): no pop
   looks at more than one entry.

   Ordering invariants (the simulator depends on all three):

   - bucketed events always precede overflow events: an event is only
     bucketed while its time < year_end, and every overflow event has
     time >= year_end;
   - within the current year, the cursor bucket's events all precede
     later buckets' events: past-time pushes are clamped into the cursor
     bucket, and a bucket strictly before the cursor is necessarily
     empty (the cursor only advances over drained buckets);
   - two co-resident events with equal time are always in the same
     bucket, and each bucket is sorted by (time, tie), so the caller's
     tie counter is a total insertion order at equal times. *)

(* Live entries sit in slots [bhd, blen), ascending (time, tie); an
   empty bucket has bhd = blen = 0.  Every bucket starts as the queue's
   one [vacant] record, which stays empty, and gets its own record on
   its first push, so a queue pays only for the buckets it uses. *)
type 'v bucket = {
  mutable bt : int array;  (* times *)
  mutable bs : int array;  (* ties *)
  mutable bv : 'v array;  (* values *)
  mutable bhd : int;  (* first live slot *)
  mutable blen : int;  (* one past the last live slot *)
}

type 'v t = {
  null : 'v;  (* sentinel written into vacated value slots *)
  nbuckets : int;
  width : int;
  vacant : 'v bucket;  (* shared by the buckets never pushed to *)
  buckets : 'v bucket array;
  mutable year_start : int;  (* inclusive, a multiple of width *)
  mutable ys_slice : int;  (* year_start / width, cached for push *)
  mutable year_end : int;  (* year_start + nbuckets * width *)
  mutable cursor : int;  (* bucket currently being drained *)
  mutable bucketed : int;  (* physical entries across all buckets *)
  (* Overflow min-heap on (time, tie), struct-of-arrays. *)
  mutable ht : int array;
  mutable hs : int array;
  mutable hv : 'v array;
  mutable hlen : int;
  cancelled : (int, unit) Hashtbl.t;  (* ties cancelled, not yet purged *)
  mutable live : int;  (* pushed - popped - cancelled *)
  mutable taken_time : int;  (* key of the entry [take] last removed *)
  mutable taken_tie : int;
}

let create ?(nbuckets = 256) ?(width = 32) ~null () =
  if nbuckets < 1 then invalid_arg "Calendar_queue.create: nbuckets < 1";
  if width < 1 then invalid_arg "Calendar_queue.create: width < 1";
  let vacant = { bt = [||]; bs = [||]; bv = [||]; bhd = 0; blen = 0 } in
  {
    null;
    nbuckets;
    width;
    vacant;
    buckets = Array.make nbuckets vacant;
    year_start = 0;
    ys_slice = 0;
    year_end = nbuckets * width;
    cursor = 0;
    bucketed = 0;
    ht = [||];
    hs = [||];
    hv = [||];
    hlen = 0;
    cancelled = Hashtbl.create 16;
    live = 0;
    taken_time = 0;
    taken_tie = 0;
  }

let length t = t.live

let is_empty t = t.live = 0

(* ---------- bucket vectors ---------- *)

(* Free a slot at the tail of a full bucket: slide the live entries
   back to slot 0 when at most half the array is live, otherwise double
   the arrays.  Either way at least half the array is free afterwards,
   so the copying is amortised O(1) per push. *)
let make_room t b =
  let live = b.blen - b.bhd and cap = Array.length b.bt in
  if b.bhd > 0 && 2 * live <= cap then begin
    Array.blit b.bt b.bhd b.bt 0 live;
    Array.blit b.bs b.bhd b.bs 0 live;
    Array.blit b.bv b.bhd b.bv 0 live;
    Array.fill b.bv live (b.blen - live) t.null
  end
  else begin
    let cap' = if cap = 0 then 8 else cap * 2 in
    let bt = Array.make cap' 0 and bs = Array.make cap' 0 in
    let bv = Array.make cap' t.null in
    Array.blit b.bt b.bhd bt 0 live;
    Array.blit b.bs b.bhd bs 0 live;
    Array.blit b.bv b.bhd bv 0 live;
    b.bt <- bt;
    b.bs <- bs;
    b.bv <- bv
  end;
  b.bhd <- 0;
  b.blen <- live

(* Insert keeping the bucket sorted: walk back from the tail past every
   entry that sorts after (time, tie).  The pushes of a broadcast wave
   arrive in order and stop at once. *)
let bucket_push t b time tie v =
  if b.blen = Array.length b.bt then make_room t b;
  let i = ref b.blen in
  while
    !i > b.bhd
    &&
    let j = !i - 1 in
    b.bt.(j) > time || (b.bt.(j) = time && b.bs.(j) > tie)
  do
    let j = !i - 1 in
    b.bt.(!i) <- b.bt.(j);
    b.bs.(!i) <- b.bs.(j);
    b.bv.(!i) <- b.bv.(j);
    i := j
  done;
  b.bt.(!i) <- time;
  b.bs.(!i) <- tie;
  b.bv.(!i) <- v;
  b.blen <- b.blen + 1

(* Bucket [idx] to push into: its own record, made on first use. *)
let own_bucket t idx =
  if t.buckets.(idx) == t.vacant then
    t.buckets.(idx) <- { bt = [||]; bs = [||]; bv = [||]; bhd = 0; blen = 0 };
  t.buckets.(idx)

(* Drop the head entry, resetting a drained bucket to slot 0. *)
let bucket_drop_head t b =
  b.bv.(b.bhd) <- t.null;
  b.bhd <- b.bhd + 1;
  if b.bhd = b.blen then begin
    b.bhd <- 0;
    b.blen <- 0
  end

(* ---------- overflow heap ---------- *)

(* [(time, tie)] sorts before heap slot [j]. *)
let heap_before t time tie j =
  time < t.ht.(j) || (time = t.ht.(j) && tie < t.hs.(j))

(* Write an entry into heap slot [i]. *)
let heap_set t i time tie v =
  t.ht.(i) <- time;
  t.hs.(i) <- tie;
  t.hv.(i) <- v

(* Both sifts move a hole rather than swapping: each level copies one
   entry, and the sifted entry is written once, where it stops. *)
let heap_push t time tie v =
  let cap = Array.length t.ht in
  if t.hlen = cap then begin
    let cap' = if cap = 0 then 8 else cap * 2 in
    let ht = Array.make cap' 0 and hs = Array.make cap' 0 in
    let hv = Array.make cap' t.null in
    Array.blit t.ht 0 ht 0 t.hlen;
    Array.blit t.hs 0 hs 0 t.hlen;
    Array.blit t.hv 0 hv 0 t.hlen;
    t.ht <- ht;
    t.hs <- hs;
    t.hv <- hv
  end;
  let i = ref t.hlen in
  t.hlen <- t.hlen + 1;
  while !i > 0 && heap_before t time tie ((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    heap_set t !i t.ht.(parent) t.hs.(parent) t.hv.(parent);
    i := parent
  done;
  heap_set t !i time tie v

(* Remove the heap minimum; callers read it at slot 0 first.  The last
   entry sifts down from the root. *)
let heap_drop_min t =
  let last = t.hlen - 1 in
  let time = t.ht.(last) and tie = t.hs.(last) and v = t.hv.(last) in
  t.hv.(last) <- t.null;
  t.hlen <- last;
  if last > 0 then begin
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c =
        if l + 1 < last && heap_before t t.ht.(l + 1) t.hs.(l + 1) l then l + 1
        else l
      in
      if c < last && not (heap_before t time tie c) then begin
        heap_set t !i t.ht.(c) t.hs.(c) t.hv.(c);
        i := c
      end
      else continue := false
    done;
    heap_set t !i time tie v
  end

(* ---------- push ---------- *)

let push t ~time ~tie v =
  if time < 0 then invalid_arg "Calendar_queue.push: negative time";
  t.live <- t.live + 1;
  if time >= t.year_end then heap_push t time tie v
  else begin
    (* Slice index relative to the year; anything at or before the
       cursor's slice (including past times) drains via the cursor
       bucket, whose sorted insert puts it before every later entry. *)
    let rel = (time / t.width) - t.ys_slice in
    let idx = if rel <= t.cursor then t.cursor else rel in
    bucket_push t (own_bucket t idx) time tie v;
    t.bucketed <- t.bucketed + 1
  end

(* ---------- cancel ---------- *)

let cancel t ~tie =
  Hashtbl.replace t.cancelled tie ();
  t.live <- t.live - 1

(* ---------- pop / peek ---------- *)

(* Most queues never see a cancellation, so the common case tests the
   table's length and hashes nothing. *)
let is_cancelled t tie =
  Hashtbl.length t.cancelled > 0 && Hashtbl.mem t.cancelled tie

(* Drop cancelled entries off the head of bucket [b], in order, until
   its head is live or it is empty. *)
let purge_head t b =
  while b.blen > 0 && is_cancelled t b.bs.(b.bhd) do
    Hashtbl.remove t.cancelled b.bs.(b.bhd);
    bucket_drop_head t b;
    t.bucketed <- t.bucketed - 1
  done

(* Re-anchor the year at the overflow minimum and migrate every overflow
   event now inside the year into the buckets.  Requires hlen > 0. *)
let re_anchor t =
  let min_time = t.ht.(0) in
  t.ys_slice <- min_time / t.width;
  t.year_start <- t.ys_slice * t.width;
  t.year_end <- t.year_start + (t.nbuckets * t.width);
  t.cursor <- 0;
  while t.hlen > 0 && t.ht.(0) < t.year_end do
    let time = t.ht.(0) and tie = t.hs.(0) and v = t.hv.(0) in
    heap_drop_min t;
    (* Cancelled entries were already subtracted from [live]; dropping
       them here is the purge. *)
    if is_cancelled t tie then Hashtbl.remove t.cancelled tie
    else begin
      let rel = (time / t.width) - t.ys_slice in
      bucket_push t (own_bucket t rel) time tie v;
      t.bucketed <- t.bucketed + 1
    end
  done

(* Advance to the first nonempty bucket whose head is live and return
   its index; that head is the queue minimum.  Returns -1 when the queue
   is logically empty. *)
let rec locate t =
  if t.live = 0 then -1
  else if t.bucketed > 0 then begin
    while t.buckets.(t.cursor).blen = 0 do
      t.cursor <- t.cursor + 1
      (* t.bucketed > 0 guarantees a nonempty bucket at or after the
         cursor (buckets before it are drained), so no bounds check. *)
    done;
    let b = t.buckets.(t.cursor) in
    purge_head t b;
    if b.blen = 0 then locate t else t.cursor
  end
  else begin
    (* All live entries sit in the overflow heap: shed cancelled heap
       minima, then re-anchor the year there. *)
    while t.hlen > 0 && is_cancelled t t.hs.(0) do
      Hashtbl.remove t.cancelled t.hs.(0);
      heap_drop_min t
    done;
    if t.hlen = 0 then locate t
    else begin
      re_anchor t;
      locate t
    end
  end

let peek t =
  let idx = locate t in
  if idx < 0 then None
  else
    let b = t.buckets.(idx) in
    let i = b.bhd in
    Some (b.bt.(i), b.bs.(i), b.bv.(i))

let take t =
  let idx = locate t in
  if idx < 0 then t.null
  else begin
    let b = t.buckets.(idx) in
    let i = b.bhd in
    let v = b.bv.(i) in
    t.taken_time <- b.bt.(i);
    t.taken_tie <- b.bs.(i);
    bucket_drop_head t b;
    t.bucketed <- t.bucketed - 1;
    t.live <- t.live - 1;
    v
  end

let taken_time t = t.taken_time

let taken_tie t = t.taken_tie

(* [null] may itself be a pushed value, so emptiness is read off [live]. *)
let pop t =
  if t.live = 0 then None
  else
    let v = take t in
    Some (t.taken_time, t.taken_tie, v)

let clear t =
  Array.iter
    (fun b ->
      Array.fill b.bv 0 (Array.length b.bv) t.null;
      b.bhd <- 0;
      b.blen <- 0)
    t.buckets;
  Array.fill t.hv 0 (Array.length t.hv) t.null;
  t.hlen <- 0;
  t.bucketed <- 0;
  t.cursor <- 0;
  t.year_start <- 0;
  t.ys_slice <- 0;
  t.year_end <- t.nbuckets * t.width;
  Hashtbl.reset t.cancelled;
  t.live <- 0
