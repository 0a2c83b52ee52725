(** Single-writer multi-reader atomic registers.

    The canonical shared-memory-with-ACL primitive of the paper (§2.1):
    every process may [read] every register; each register has a unique
    owner which is the only process allowed to [write].  Registers are
    linearizable by construction — the simulation engine executes handler
    code atomically, so each operation takes effect at one instant.

    The unidirectional-round protocol (paper §3.2) needs registers whose
    contents {e grow}: the owner "appends (r, m)".  [append] provides
    that pattern directly on a list-valued register.

    Registers can carry a trusted-op ledger ({!attach_ledger}): every
    [read]/[write]/[append] then charges one [swmr.*] ledger op, and an
    {!Acl.Violation} charges a [swmr.<op>_denied] rejection before
    re-raising — so protocols built on shared memory (uBFT-sim) report
    register-ops-per-request next to MinBFT's seal/verify counts, and
    [thc attack] shows blocked register forgeries instead of silence. *)

type 'a t
(** A register holding ['a], with an owner-only write ACL. *)

val create : owner:int -> init:'a -> 'a t

val owner : 'a t -> int

val attach_ledger : 'a t -> Thc_obsv.Ledger.t -> unit
(** Route this register's operation accounting to [ledger]: successful
    ops charge [swmr.read] / [swmr.write] / [swmr.append]; denied writes
    and appends charge [swmr.write_denied] / [swmr.append_denied] (which
    {!Thc_obsv.Ledger.rejections} counts) before the {!Acl.Violation}
    propagates.  Unattached registers (the default) charge nothing. *)

val attach_ledger_all : 'a t array -> Thc_obsv.Ledger.t -> unit
(** {!attach_ledger} over a whole {!array} / {!log_array}. *)

val read : 'a t -> 'a
(** Readable by everyone (no identity needed — reads are unrestricted in the
    paper's setting). *)

val write : 'a t -> ident:Thc_crypto.Keyring.secret -> 'a -> unit
(** Owner-only.  @raise Acl.Violation for any other caller. *)

val write_count : 'a t -> int
(** Number of successful writes (for linearization-order assertions). *)

type 'a log = 'a list t
(** A register used append-only, newest element first. *)

val create_log : owner:int -> 'a log

val append : 'a log -> ident:Thc_crypto.Keyring.secret -> 'a -> unit
(** Owner-only append: pushes [v] as the newest element in one register
    operation (one [swmr.append] ledger charge, one write-count tick).
    @raise Acl.Violation for any caller but the owner. *)

val entries : 'a log -> 'a list
(** Oldest first. *)

type 'a cursor
(** One reader's position in one {!log}: the entries that reader has
    already been handed.  Creating a cursor reads nothing and charges
    nothing. *)

val cursor : 'a log -> 'a cursor

val read_new : 'a cursor -> 'a list
(** The entries appended since this cursor's last [read_new], oldest
    first ([[]] if none), from exactly one {!read}, so it costs what
    {!entries} costs: one [swmr.read] ledger charge.  It walks the
    register's newest-first list only until it meets, by [==], the list
    its last read returned.  If an owner {!write} has since dropped that
    list, so that it is no longer a tail of the register's list (a list
    cut below it, reordered, or rebuilt from a copy), the walk runs to
    the end and every current entry is returned.  Either way the reader
    misses no entry; after a rewrite it may be handed one again.
    Cursors are independent: each reader keeps its own. *)

val array : n:int -> init:(int -> 'a) -> 'a t array
(** One register per process, [o.(i)] owned by [i] — the standard layout. *)

val log_array : n:int -> 'a log array
