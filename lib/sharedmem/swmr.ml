type 'a t = {
  owner : int;
  acl : Acl.t;
  mutable value : 'a;
  mutable writes : int;
  mutable hw : Thc_obsv.Ledger.t option;
}

let create ~owner ~init =
  { owner; acl = Acl.only owner; value = init; writes = 0; hw = None }

let owner t = t.owner

let attach_ledger t ledger = t.hw <- Some ledger

let attach_ledger_all a ledger = Array.iter (fun t -> attach_ledger t ledger) a

let charge t label =
  match t.hw with None -> () | Some hw -> Thc_obsv.Ledger.bump hw label

let read t =
  charge t "swmr.read";
  t.value

let enforce t ~ident ~op =
  try ignore (Acl.enforce t.acl ~ident ~op : int)
  with Acl.Violation _ as e ->
    charge t (Printf.sprintf "swmr.%s_denied" op);
    raise e

let write t ~ident v =
  enforce t ~ident ~op:"write";
  charge t "swmr.write";
  t.value <- v;
  t.writes <- t.writes + 1

let write_count t = t.writes

type 'a log = 'a list t

let create_log ~owner = create ~owner ~init:[]

let append t ~ident v =
  enforce t ~ident ~op:"append";
  charge t "swmr.append";
  t.value <- v :: t.value;
  t.writes <- t.writes + 1

let entries t = List.rev (read t)

type 'a cursor = { log : 'a log; mutable seen : 'a list }

let cursor log = { log; seen = [] }

(* Walk the newest-first list down to the one the last read returned,
   collecting oldest first; an owner [write] that dropped it yields every
   entry, as the walk then ends at [[]]. *)
let read_new c =
  let current = read c.log and seen = c.seen in
  let rec fresh acc l =
    if l == seen then acc
    else match l with [] -> acc | x :: older -> fresh (x :: acc) older
  in
  c.seen <- current;
  fresh [] current

let array ~n ~init = Array.init n (fun i -> create ~owner:i ~init:(init i))

let log_array ~n = Array.init n (fun i -> create_log ~owner:i)
