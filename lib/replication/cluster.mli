(** One place that turns a protocol choice into a running cluster: the
    keyring, the protocol's trusted hardware (a TrInc world for MinBFT,
    SWMR registers with a ledger attached for uBFT, none for PBFT), the
    engine, and the replicas at pids [0..n-1] with their behaviors
    installed.  Callers install their clients at pids [n..], their faults
    and their network model on [engine], then run it: {!Harness},
    [Thc_workload.Loadtest] and [Thc_agreement.Weak_validity] through
    {!create}; the attack rig and {!Ablation} through the typed builders,
    which also hand back the replica states (and uBFT's registers) that
    attack code drives. *)

type 'm t = {
  engine : 'm Thc_sim.Engine.t;
  replicas : int;  (** n *)
  keyring : Thc_crypto.Keyring.t;  (** One identity per replica and client. *)
  hw : Thc_obsv.Ledger.t;  (** Trusted-op ledger; empty for PBFT. *)
  client :
    rid_base:int ->
    ident:Thc_crypto.Keyring.secret ->
    plan:(int64 * Kv_store.op) list ->
    'm Thc_sim.Engine.behavior;  (** The protocol's open-loop client. *)
  wrap_request : Command.signed_request -> 'm;
  unwrap_reply : 'm -> Command.reply option;
  classify : 'm -> string;  (** Wire-message kind label. *)
  final_view : unit -> int;  (** Maximum view among the replicas. *)
  durability : unit -> Durability.stats;  (** Merged; zero for PBFT. *)
}

type packed = Cluster : 'm t -> packed

val minbft :
  ?spans:Thc_obsv.Span.t ->
  ?restart:int * int64 ->
  ?world:(Thc_util.Rng.t -> n:int -> Thc_hardware.Trinc.world) ->
  f:int ->
  batch:int ->
  checkpoint_interval:int ->
  clients:int ->
  seed:int64 ->
  delay:Thc_sim.Delay.t ->
  tracing:Thc_sim.Engine.tracing ->
  unit ->
  Minbft.msg t * Minbft.t array
(** A MinBFT cluster and its replica states, by pid.  [world] (default
    {!Thc_hardware.Trinc.create_world}) builds the TrInc world the
    trinkets come from; the ablation passes
    {!Thc_hardware.Trinc.create_unattested_world}.  MinBFT checkpoints iff
    [checkpoint_interval > 0].  [restart = (pid, at)] wipes replica [pid]
    at [at] µs ({!Minbft.replica}); raises [Invalid_argument] unless [pid]
    is a replica and [at] positive. *)

val ubft :
  ?spans:Thc_obsv.Span.t ->
  f:int ->
  batch:int ->
  checkpoint_interval:int ->
  clients:int ->
  seed:int64 ->
  delay:Thc_sim.Delay.t ->
  tracing:Thc_sim.Engine.tracing ->
  unit ->
  Ubft.msg t * Ubft.t array * Ubft.registers
(** A uBFT cluster, its replica states and its registers.  uBFT keeps its
    default checkpoint cadence unless [checkpoint_interval] is positive. *)

val create :
  ?spans:Thc_obsv.Span.t ->
  ?restart:int * int64 ->
  Protocol.t ->
  f:int ->
  batch:int ->
  checkpoint_interval:int ->
  clients:int ->
  seed:int64 ->
  delay:Thc_sim.Delay.t ->
  tracing:Thc_sim.Engine.tracing ->
  packed
(** The protocol's builder with the default TrInc world.  Every builder
    seeds one RNG stream with [seed] that draws the keyring ([n + clients]
    identities) and then the TrInc world; the engine seeds its own.  When
    [spans] (default {!Thc_obsv.Span.nop}) is enabled, every ledger bump is
    attributed to the ambient span phase.  [batch] is clamped to at least
    1.  [restart] raises [Invalid_argument] unless the protocol is
    MinBFT. *)
