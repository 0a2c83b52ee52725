(** Named network models and their compiler onto the {!Thc_sim.Net}
    policy table.

    Every simulated run so far wired its links by hand (one default
    {!Thc_sim.Delay.t} for the whole clique); this module makes the
    network a first-class, nameable value — the CPR-style model zoo of
    ROADMAP item 3 — so a protocol × network × scenario grid can be swept
    the same way protocols and adversary scripts already are.  A topology
    is plain data with a stable {!tag}, a human {!describe} line and an
    S-expression codec, and {!apply} lowers it onto an engine's existing
    per-link policy table.

    Lowering is deterministic: [Lossy] draws its per-link drop pattern
    from its own seed (never the engine's RNG streams), so a run remains
    a pure function of [(seed, topology, script)] and exports stay
    byte-identical at every [--jobs] value. *)

type t =
  | Clique of { delay : Thc_sim.Delay.t; links : ((int * int) * Thc_sim.Delay.t) list }
      (** Uniform full mesh: every directed link delivers with [delay];
          [links] lists per-link overrides [((src, dst), d)] applied on
          top (out-of-range pairs are ignored, so one topology value
          serves clusters of any size). *)
  | Geo_regions of { regions : int; lan : Thc_sim.Delay.t; wan : Thc_sim.Delay.t }
      (** Geo-replicated mix: process [p] lives in region [p mod regions];
          intra-region links deliver with [lan], cross-region links with
          [wan] — the WAN regime under which uBFT-style microsecond
          claims (made on a LAN/RDMA network) visibly erode. *)
  | Asymmetric of { fast : Thc_sim.Delay.t; slow : Thc_sim.Delay.t }
      (** Per-direction skew: links from lower to higher pid deliver with
          [fast], the reverse direction with [slow] (self-links are
          [fast]) — upload/download asymmetry, not a partition. *)
  | Lossy of { base : Thc_sim.Delay.t; drop : float; heal_at : int64; seed : int64 }
      (** Seeded random loss, distinct from Byzantine omission: each
          non-self directed link independently starts [Drop]ped (messages
          lost) with probability [drop /. 2.], or [Block]ed (messages
          held) with probability [drop /. 2.], else delivers with [base].
          All afflicted links heal to [base] at virtual time [heal_at]
          (held messages are then released), restoring the asynchronous
          model's eventual-delivery obligation.  The pattern is a pure
          function of [seed]. *)

val tag : t -> string
(** Stable short identifier, parameter-bearing ([clique:u50-500],
    [geo3], [asym], [lossy20], …) — the token used in bench S7 keys and
    recorded in export envelope headers.  Parseable back by
    {!of_string} only when it names a {!presets} entry; arbitrary
    topologies round-trip through the sexp codec instead. *)

val describe : t -> string
(** One-line human description for [--list] style output and docs. *)

val to_sexp : t -> Thc_util.Sexp.t
(** Canonical persistence form, e.g.
    [(geo (regions 3) (lan (uniform 5 50)) (wan (uniform 2000 10000)))]. *)

val of_sexp : Thc_util.Sexp.t -> t
(** Inverse of {!to_sexp}; raises [Failure] on malformed input and on
    values the simulator cannot run as written: a [uniform] range outside
    [0 <= lo <= hi], a negative [const], an [exp] mean that is not finite
    and positive, [regions < 1], or a [drop] outside [[0, 1]]. *)

val presets : (string * t) list
(** The named zoo, in display order: [uniform] (the legacy default
    clique), [lan], [wan], [geo2], [geo3], [asym], [lossy]. *)

val of_string : string -> (t, string) result
(** A preset name from {!presets}, or a full sexp form (anything
    starting with ['(']) parsed via {!of_sexp}. *)

val delay_between : t -> src:int -> dst:int -> Thc_sim.Delay.t
(** The delivery distribution {!apply} gives the directed link
    [src → dst] (for [Lossy], the post-heal [base]).  Exposed for tests
    (geo intra < inter spot checks) and for mean-delay rankings like the
    racing client's fastest-quorum choice. *)

val apply : t -> 'm Thc_sim.Engine.t -> unit
(** Compile the topology onto the engine's {!Thc_sim.Net} table: set
    every directed link's policy, and for [Lossy] additionally schedule
    the heal at [heal_at] via {!Thc_sim.Engine.at}.  Call after the
    engine is created and before {!Thc_sim.Engine.run}. *)

val reapply : t -> 'm Thc_sim.Engine.t -> at:int64 -> unit
(** Schedule a re-lowering of the topology at virtual time [at] —
    installed {e after} any already-scheduled action at the same time,
    so a scripted adversary heal ({!Thc_sim.Adversary.install} resets
    every link to its fixed fast policy) is immediately overridden by
    the configured model again.  For [Lossy], a re-lowering at or past
    [heal_at] applies the healed table rather than the initial drop
    pattern. *)
