(** Generic write-then-scan round driver over a shared-memory board.

    The paper's §3.2 claim is deliberately broad: {e any} shared-memory
    object with a modify operation restricted to one process and a read
    operation open to all (under ACLs) supports the unidirectional round
    construction.  This module implements the construction once, against an
    abstract {!board}; {!Swmr_rounds}, {!Sticky_rounds} and {!Peats_rounds}
    instantiate it for the three object families named in the paper.

    Protocol per round [r] (identical to {!Swmr_rounds}'s docstring):
    publish [(r, m)] through the owner-restricted modify operation, then
    read all [targets] board locations in random order, one per
    [scan_delay]; entries found are receptions.  The write precedes every
    read of the same sweep, which is the entire unidirectionality
    argument.

    Every read and every pause between sweeps is armed as a poll
    ({!Thc_sim.Engine.ctx}'s [set_poll]).  A read that finds an entry new
    to this process declares a change ([quiet false]), and a sweep that
    ends in [Hold] declares the process quiet.  So a run over any board
    ends at quiescence ({!Thc_sim.Engine.run}) once no process can receive
    anything new, instead of polling on to its horizon. *)

type board = {
  publish : round:int -> payload:string -> unit;
      (** Owner-restricted modify operation (closes over the caller's
          identity capability; raises {!Thc_sharedmem.Acl.Violation} if the
          capability does not own the slot). *)
  read : int -> (int * int * string) list;
      (** Read location [j]: visible entries as [(owner, round, payload)].
          It may omit entries this reader already received from location
          [j] ({!Swmr_rounds} returns only the entries new to it), but
          must return every entry it has not. *)
  targets : int;  (** Number of locations a sweep must read. *)
}
(** The driver keeps a table of every [(owner, round, payload)] it has
    received and hands the app only entries not in it.  The table stays
    even though a board may omit old entries: the sticky and PEATS boards
    return every visible entry on each read, an owner that rewrites its
    SWMR log makes {!Swmr_rounds} return every current entry again, and
    the table's iteration order decides the order of the
    [Round_received] outputs emitted when a round starts with entries
    already received for it. *)

val behavior :
  board:board ->
  ?scan_delay:Thc_sim.Delay.t ->
  ?poll_delay:Thc_sim.Delay.t ->
  Round_app.app ->
  'm Thc_sim.Engine.behavior
(** Same timing parameters and trace contract as {!Swmr_rounds.behavior}. *)
