(** Safety/liveness monitors for the replicated state machines.

    Judged on [Obs.Executed] / [Obs.Client_done] observations, uniformly for
    {!Minbft} and {!Pbft}. *)

type violation = {
  property : [ `Order | `Result | `Liveness | `Replay ];
  info : string;
}
(** [`Order] — two correct replicas executed different operations at one
    sequence number; [`Result] — same op, different results (state machine
    divergence); [`Liveness] — an expected client request never completed;
    [`Replay] — a replica's recorded execution is not a dense sequential
    history of the KV machine (see {!check_state_determinism}). *)

val pp_violation : Format.formatter -> violation -> unit

val check_safety : 'm Thc_sim.Trace.t -> replicas:int -> violation list
(** Pairwise execution-prefix consistency across correct replicas
    (pids [0 .. replicas-1]). *)

val check_state_determinism : 'm Thc_sim.Trace.t -> replicas:int -> violation list
(** Single-writer-order assertion per replica (the linearizability half the
    pairwise check cannot see): the [Executed] stream must carry dense
    sequence numbers [1, 2, ...], and replaying its operations in that order
    against a fresh {!Kv_store} must reproduce every recorded result.
    Together with {!check_safety} (all replicas share one order) this pins
    the committed history to one sequential execution of the service. *)

val check_liveness :
  'm Thc_sim.Trace.t -> expected:(int * int list) list -> violation list
(** [expected] maps each client pid to the request ids it must have
    completed; one violation per missing [Client_done]. *)

val expect_range :
  clients:int -> per_client:int -> first_client_pid:int -> (int * int list) list
(** The {!check_liveness} expectation for the standard multi-client layout:
    client [i] (pid [first_client_pid + i]) owns the contiguous rid block
    [i * per_client .. (i+1) * per_client - 1]. *)

val client_latencies : 'm Thc_sim.Trace.t -> float list
(** All [Client_done] latencies, µs, across every client pid. *)

val latencies_by_client : 'm Thc_sim.Trace.t -> (int * float list) list
(** [Client_done] latencies grouped by the emitting client pid (sorted by
    pid, latencies in completion order). *)

val executed_count : 'm Thc_sim.Trace.t -> pid:int -> int

val commits : 'm Thc_sim.Trace.t -> replicas:int -> int
(** Distinct sequence numbers committed by at least one correct replica —
    the denominator of the trusted-ops-per-commit rate. *)

val distinct_ops_at_seq1 : 'm Thc_sim.Trace.t -> replicas:int -> int
(** How many different operations correct replicas executed at sequence 1
    — more than one is an equivocation fork made concrete. *)
