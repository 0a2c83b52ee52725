(** The SRB clusters, and the scripted-fault adapters over them — the
    broadcast layer's entry points into the {!Thc_check} fault explorer.

    Each cluster is built in one place: processes [0..n-1] on a clique of
    uniform 10–400 µs links, an engine that records [Full], and the
    designated sender at process 0.  Each scripted run installs an
    {!Thc_sim.Adversary} script on top of its cluster, runs past the
    script's horizon (so every temporary partition has healed and held
    messages have drained), and judges the full four-property SRB
    specification ({!Srb_spec.check}) on the trace. *)

val trinc_cluster :
  seed:int64 ->
  n:int ->
  plan:(int64 * string) list ->
  Srb_from_trinc.msg Thc_sim.Engine.t * Thc_hardware.Trinc.world
(** {!Srb_from_trinc} at every process, on a TrInc world drawn from a
    stream seeded by [seed]: sender 0 broadcasts [plan] (time, value);
    the others chain and echo. *)

val uni_cluster :
  seed:int64 -> n:int -> faults:int -> values:string list -> 'm Thc_sim.Engine.t
(** Algorithm 1 ({!Srb_from_uni}, bound [t = faults]) over SWMR-register
    rounds, with a keyring drawn from a stream seeded by [seed]: sender 0
    queues [values] in order.  Register operations send no message, so
    the engine's message type is free. *)

type report = {
  violations : Srb_spec.violation list;
      (** SRB spec violations for sender 0's stream. *)
  delivered : int;
      (** Total deliveries of that stream summed over correct processes. *)
  messages : int;
  duration_us : int64;
}

val run_trinc :
  ?network:Thc_network.Model.t ->
  seed:int64 -> script:Thc_sim.Adversary.t -> ?n:int -> ?values:int -> unit -> report
(** {!Srb_from_trinc} (trusted-log SRB, any [f < n]): sender 0 broadcasts
    [values] (default 3) attested values early in the run; receivers chain
    and echo.  Default [n] = 4.  Crashes and partitions from the script are
    tolerated by construction — the expected verdict is a clean spec.
    [network] lowers a named topology onto the links
    ({!Thc_network.Model.install}, re-lowered after every scripted heal);
    rational client strategies do not apply (there are no clients). *)

val run_uni :
  ?network:Thc_network.Model.t ->
  seed:int64 -> script:Thc_sim.Adversary.t -> ?n:int -> ?faults:int -> ?values:int ->
  unit -> report
(** Algorithm 1 ({!Srb_from_uni}) over SWMR-register rounds, [n] = 5,
    [faults] = 2 by default.  Register operations bypass the message
    network, so only the script's crashes bite — which is itself a property
    worth sweeping: shared-memory rounds shrug off any partition script. *)
