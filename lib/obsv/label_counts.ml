(* A hash table of counters with an identity front: the first [front]
   labels added are kept, with their counters, in two small arrays that a
   charge scans by [==] before it hashes.  Every label a run charges
   often is among them, since a ledger sees a handful of labels. *)

let front = 8

type t = {
  tbl : (string, int ref) Hashtbl.t;
  keys : string array;  (* the labels first added, as passed *)
  refs : int ref array;  (* their counters, shared with [tbl] *)
  mutable n : int;  (* live front slots *)
}

let create () =
  {
    tbl = Hashtbl.create 8;
    keys = Array.make front "";
    refs = Array.make front (ref 0);
    n = 0;
  }

let miss t label =
  match Hashtbl.find_opt t.tbl label with
  | Some r -> r
  | None ->
    let r = ref 0 in
    Hashtbl.add t.tbl label r;
    if t.n < front then begin
      t.keys.(t.n) <- label;
      t.refs.(t.n) <- r;
      t.n <- t.n + 1
    end;
    r

let rec counter t label i =
  if i = t.n then miss t label
  else if t.keys.(i) == label then t.refs.(i)
  else counter t label (i + 1)

let add t label k =
  let r = counter t label 0 in
  r := !r + k

let find t label =
  match Hashtbl.find_opt t.tbl label with Some r -> !r | None -> 0

let fold f t acc = Hashtbl.fold (fun label r acc -> f label !r acc) t.tbl acc

let length t = Hashtbl.length t.tbl
