(** The durability interface shared by the long-lived protocols.

    A service that runs forever needs three things on top of consensus:
    checkpoint certificates (so a prefix of the log can be declared stable
    by quorum, not by hope), log truncation to the last stable checkpoint
    (bounded memory), and state transfer (so a restarted or lagging
    replica can rejoin from a certified snapshot instead of replaying an
    unbounded log).  MinBFT attests its checkpoints with trusted counters
    (the unattested ablation runs the same code on a world without
    monotonicity); uBFT's register truncation predates this module — both
    report through the same
    {!stats} rows so harness outcomes, the soak workload and bench S8 read
    one vocabulary.

    The quorum rule lives here as a pure function over {!vote}s so its
    edge cases (f+1 boundary, duplicate signers, mismatched metadata) are
    directly testable without running a cluster. *)

type vote = { owner : int; upto : int; digest : int64; exec_count : int }
(** One replica's claim "after executing slots 1..[upto] my store digest
    is [digest] and my dense execution index is [exec_count]".  How the
    claim is authenticated (counter attestation, plain signature, register
    ownership) is the protocol's business; by the time votes reach the
    quorum rule they are assumed authentic. *)

val quorum : f:int -> int
(** [f + 1] — a stable checkpoint needs at least one correct signer. *)

val cert_stable : f:int -> vote list -> bool
(** Whether the votes certify their checkpoint: at least [f + 1]
    {e distinct} owners agreeing on the same [(upto, digest, exec_count)]
    metadata.  Duplicate owners count once; votes for other metadata do
    not help (and do not hurt). *)

type stats = {
  live : int;  (** Log entries currently held (slots not yet truncated). *)
  hwm : int;  (** High-water mark of [live] over the run. *)
  stable_upto : int;  (** Highest quorum-certified checkpoint. *)
  truncations : int;  (** Times the log was compacted. *)
}

val zero : stats

val merge : stats list -> stats
(** Cluster view of per-replica stats: max [live]/[hwm] (the bound must
    hold at the worst replica), min [stable_upto] (the laggard), summed
    [truncations]. *)

val rows : prefix:string -> stats -> (string * int) list
(** [[prefix ^ ".log_live"; ...]] — the observability rows harness
    outcomes and the soak report publish. *)

val bound : checkpoint_interval:int -> int
(** The truncation bound the soak workload asserts: with checkpointing
    every [checkpoint_interval] slots, a healthy replica's live log never
    exceeds [2 * checkpoint_interval] slots (one interval accumulating,
    one awaiting its certificate); [0] when checkpointing is disabled
    (no bound). *)

val bound_ok : checkpoint_interval:int -> stats -> bool
(** [hwm <= bound], vacuously true when disabled. *)
