(** Rational (selfish, not Byzantine) participant strategies.

    Game-theoretic BFT work (see PAPERS.md) distinguishes Byzantine
    behavior — arbitrary, possibly sacrificing the attacker's own
    utility — from {e rational} deviation: a participant that follows the
    protocol's interface but optimizes its own latency or cost.  The two
    strategies here are expressed the same way {!Thc_byz.Wrap} expresses
    corruptions — by intercepting a behavior's {!Thc_sim.Engine.ctx}
    sends or rewriting its outbound link policies — and both carry an
    [alpha] participation knob (the deviating fraction of the
    population), so a sweep can trace the cost of selfishness from 0 to
    everyone.

    Neither strategy forges, equivocates or violates any hardware
    discipline; protocols must stay safe under them by construction, and
    the interesting output is the latency / message-overhead curve. *)

type t =
  | Racing_client of { alpha : float }
      (** A latency-minimizing client hedges: every submission it sends
          to one of the [f + 1] fastest replicas (ranked by the
          topology's mean link delay from this client, ties to the lower
          pid) is sent {e twice}, racing two independent delay samples —
          the earlier arrival wins.  The first [ceil (alpha × clients)]
          clients deviate.  Duplicates are absorbed by the protocols'
          request dedup, so the cost is pure message overhead. *)
  | Lazy_replica of { alpha : float; slack_us : int64 }
      (** A free-riding replica delays its non-critical-path sends: the
          [ceil (alpha × (replicas − 1))] highest-pid replicas (never
          the view-0 leader) add [slack_us] to every replica→replica
          link they originate — relying on the prompt majority to form
          quorums — while their client-facing replies stay prompt (the
          deviator still wants credit for answering). *)

val tag : t -> string
(** Stable short identifier: [race:<alpha>] / [lazy:<alpha>,<slack>]. *)

val describe : t -> string

val to_sexp : t -> Thc_util.Sexp.t

val of_sexp : Thc_util.Sexp.t -> t
(** Raises [Failure] on malformed input, on an alpha outside [0, 1] (NaN
    included) and on a negative lazy slack. *)

val of_term : string -> (t, string) result
(** One [+]-joined component of a [--network] term: [race:0.5] or
    [lazy:0.5] / [lazy:0.5,2000] (slack in µs, default 2000).  Refuses
    what {!of_sexp} refuses. *)

val racing_quorum :
  t -> topology:Topology.t -> client:int -> replicas:int -> f:int -> int list
(** The [f + 1] replicas a [Racing_client] at pid [client] races —
    ascending mean delay of [client → r] under [topology], ties broken
    toward the lower pid.  [[]] for [Lazy_replica]. *)

val wrap_client :
  t ->
  topology:Topology.t ->
  replicas:int ->
  f:int ->
  clients:int ->
  client_index:int ->
  pid:int ->
  'm Thc_sim.Engine.behavior ->
  'm Thc_sim.Engine.behavior
(** Apply a [Racing_client] deviation to the client behavior at
    [pid] (the [client_index]-th of [clients]): its ctx's [send] is
    wrapped to duplicate sends whose destination is in
    {!racing_quorum}.  Identity for non-deviating clients and for
    [Lazy_replica]. *)

val apply_links : t -> replicas:int -> 'm Thc_sim.Engine.t -> unit
(** Apply a [Lazy_replica] deviation to the engine's link table:
    shift ({!Thc_sim.Delay.shift}) the deviators' outbound
    replica→replica [Deliver] policies by [slack_us].  Call after the
    topology has been lowered.  No-op for [Racing_client]. *)
