(** Protocol-independent replication client.

    Sends each planned request to all replicas at its scheduled time, waits
    for a quorum of matching replies, and emits [Obs.Client_done] with the
    end-to-end latency.  {!Minbft.client}, {!Pbft.client} and
    {!Ubft.client} instantiate it over their message types, each with
    quorum f+1: replies only need one correct replica, plus f to out-vote
    liars. *)

val behavior :
  rid_base:int ->
  n_replicas:int ->
  quorum:int ->
  ident:Thc_crypto.Keyring.secret ->
  plan:(int64 * Kv_store.op) list ->
  wrap:(Command.signed_request -> 'm) ->
  unwrap:('m -> Command.reply option) ->
  'm Thc_sim.Engine.behavior
(** [wrap] embeds a request into the protocol's wire type; [unwrap] projects
    replies out of it (anything else → [None]).  Request ids are
    [rid_base + i] for plan index [i]: when several clients
    run concurrently, give each a disjoint base so rids stay globally unique
    in the trace. *)
