(** The shared sweep flags, spelled once.

    Every sweep-shaped command ([thc explore], [thc attack],
    [thc loadtest], the bench binary) takes the same four knobs; this
    module is the single definition of their names, defaults and
    documentation so the surfaces cannot drift apart again:

    - [--runs N] — campaign size (seeds swept from the base seed),
    - [--seed S] — base RNG seed, default 1,
    - [--export FILE] — write the run's JSONL export,
    - [--jobs N] — domains of this process, default 1; output is
      byte-identical at every value. *)

val checked :
  'a Cmdliner.Arg.conv -> ('a -> bool) -> string -> 'a Cmdliner.Arg.conv
(** [checked conv ok expected] parses like [conv] but refuses a value
    failing [ok], so a flag the run cannot use exits 124 with a message
    naming it and saying what was [expected] ("a positive integer"),
    instead of dying inside a worker or running a meaningless cell. *)

val positive_int : int Cmdliner.Arg.conv

val runs : ?default:int -> doc:string -> unit -> int Cmdliner.Term.t
(** [--runs N], a positive integer. *)

val seed : ?default:int64 -> unit -> int64 Cmdliner.Term.t
(** [--seed] with the repository-wide default of [1L]. *)

val export : doc:string -> unit -> string option Cmdliner.Term.t
(** [--export FILE]. *)

val top : ?default:int -> doc:string -> unit -> int Cmdliner.Term.t
(** [--top N] — how many worst-case items a drill-down shows (slowest
    requests in [thc trace], stalled spans in [thc attack]). *)

val jobs : unit -> int Cmdliner.Term.t
(** [--jobs N], a positive integer, default 1 (sequential).  Values above
    1 run the sweep on up to [N] domains of this process, no more than the
    keys or [Domain.recommended_domain_count ()]; summaries and exports
    stay byte-identical. *)

val network : unit -> Thc_network.Model.t option Cmdliner.Term.t
(** [--network MODEL] — the shared network-model flag: a preset name
    (uniform, lan, wan, geo2, geo3, asym, lossy), a
    {!Thc_network.Topology} s-expression, or either followed by
    [+race:ALPHA] / [+lazy:ALPHA,SLACK] rational-strategy terms
    ({!Thc_network.Model.of_string}).  [None] (the default) keeps each
    command's legacy uniform clique, byte-identical to pre-S7 output.
    Documented per-model in NETWORKS.md. *)

val stats_reporter : jobs:int -> Pool.stats -> unit
(** The standard way a CLI surfaces pool accounting: when [jobs > 1],
    record the run into a fresh {!Thc_obsv.Metrics} registry and print
    the one-line summary plus the registry snapshot to {e stderr} (never
    stdout — wall-clock numbers must not contaminate deterministic
    output). *)
