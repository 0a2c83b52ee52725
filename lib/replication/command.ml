type request = { client : int; rid : int; op : string }

type signed_request = request Thc_crypto.Signature.signed

let make ~ident ~rid op =
  Thc_crypto.Signature.seal ident
    {
      client = Thc_crypto.Keyring.pid_of_secret ident;
      rid;
      op = Kv_store.encode_op op;
    }

let valid keyring (sr : signed_request) =
  Thc_crypto.Signature.sealed_by keyring sr ~expect:sr.value.client

let digest r = Thc_crypto.Digest.to_int64 (Thc_crypto.Digest.of_value r)

let key r = (r.client, r.rid)

let pp ppf r = Format.fprintf ppf "req(c%d#%d)" r.client r.rid

(* --- batches ----------------------------------------------------------- *)

type batch = signed_request list

let batch_digest_of_requests (rs : request list) =
  Thc_crypto.Digest.to_int64 (Thc_crypto.Digest.of_value (List.map digest rs))

let batch_digest (b : batch) =
  batch_digest_of_requests
    (List.map (fun (sr : signed_request) -> sr.Thc_crypto.Signature.value) b)

let batch_valid keyring (b : batch) = b <> [] && List.for_all (valid keyring) b

let batch_keys (b : batch) =
  List.map (fun (sr : signed_request) -> key sr.Thc_crypto.Signature.value) b

let pp_batch ppf (b : batch) =
  Format.fprintf ppf "batch[%a]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ";")
       (fun ppf (sr : signed_request) -> pp ppf sr.Thc_crypto.Signature.value))
    b

type reply = { replica : int; rid : int; result : string }

module Collector = struct
  module Rids = Thc_util.Keyed.Int

  type t = {
    quorum : int;
    votes : (int * string) list Rids.t;  (* rid -> (replica, result) *)
    send_times : int64 Rids.t;
    done_ : unit Rids.t;
  }

  type completion = { result : string; sent_at : int64 option }

  let create ~quorum =
    {
      quorum;
      votes = Rids.create 32;
      send_times = Rids.create 32;
      done_ = Rids.create 32;
    }

  let sent t ~rid ~at =
    if not (Rids.mem t.done_ rid) then Rids.replace t.send_times rid at

  let rec voted replica = function
    | [] -> false
    | (r, _) :: rest -> r = replica || voted replica rest

  (* A completed request keeps only its [done_] mark: that alone answers
     every later reply, so its votes and send time go. *)
  let add t (r : reply) =
    if Rids.mem t.done_ r.rid then None
    else begin
      let votes = Option.value ~default:[] (Rids.find_opt t.votes r.rid) in
      if voted r.replica votes then None
      else begin
        let votes = (r.replica, r.result) :: votes in
        let matching result =
          List.length (List.filter (fun (_, res) -> String.equal res result) votes)
        in
        if matching r.result >= t.quorum then begin
          let sent_at = Rids.find_opt t.send_times r.rid in
          Rids.remove t.votes r.rid;
          Rids.remove t.send_times r.rid;
          Rids.replace t.done_ r.rid ();
          Some { result = r.result; sent_at }
        end
        else begin
          Rids.replace t.votes r.rid votes;
          None
        end
      end
    end

  let completed t ~rid = Rids.mem t.done_ rid

  let outstanding t ~rid = Rids.mem t.send_times rid || Rids.mem t.votes rid
end
