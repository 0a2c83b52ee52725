(** Sequenced reliable broadcast: the specification as a trace monitor.

    The paper's Definition (Sequenced Reliable Broadcast) lists four
    properties of deliveries from a designated sender [p]; this module
    checks each on a finished execution trace, using the
    [Obs.Srb_broadcast] / [Obs.Srb_delivered] observations that every SRB
    implementation in the repository emits.

    "Eventually" clauses are judged at the end of the trace, so positive
    experiments must run executions to quiescence (healing any temporary
    partition first — the asynchronous model obliges eventual delivery).
    Over shared-memory rounds {!Thc_sim.Engine.run} finds that point
    itself: it ends the run once no register can change any more, and a
    run to any later horizon would only add polls that find nothing new,
    so the verdict is the same. *)

type violation = {
  property : [ `Validity | `Totality | `Sequencing | `Integrity | `Agreement ];
  info : string;
}
(** [`Validity] — property 1: a correct sender's broadcast was not delivered
    by some correct process.
    [`Totality] — property 2: some correct process delivered [(k, m)] but
    another correct process did not.
    [`Sequencing] — property 3: a correct process delivered sequence numbers
    out of order / with gaps.
    [`Integrity] — property 4: a delivery from a correct sender that the
    sender never broadcast.
    [`Agreement] — two correct processes delivered different values at one
    sequence number (implied by totality; reported separately for sharper
    diagnostics). *)

val pp_violation : Format.formatter -> violation -> unit

val check : 'm Thc_sim.Trace.t -> sender:int -> violation list
(** All violations of the four properties (plus agreement) for deliveries
    attributed to [sender].  Empty list = the execution satisfies SRB.
    [sender] is judged by {!Thc_sim.Trace.correct}, so a pid outside
    [0 .. n-1] counts as correct unless marked Byzantine or crashed.
    One walk of the trace; seqs are matched through per-process hash
    tables, where a process's first delivery of a seq (and the sender's
    first broadcast of it) decides. *)

val deliveries : 'm Thc_sim.Trace.t -> sender:int -> pid:int -> (int * string) list
(** [(seq, value)] deliveries from [sender] at [pid], in delivery order. *)

val broadcasts : 'm Thc_sim.Trace.t -> sender:int -> (int * string) list
(** [(seq, value)] the sender handed to broadcast, in order. *)
