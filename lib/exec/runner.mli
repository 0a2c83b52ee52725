(** The one sweep shape every fan-out driver in this repository reduces
    to: a list of keys, a pure [run_one : key -> outcome], and a
    [summarize : outcome list -> summary] over the outcomes {e in key
    order}.  {!Check.Sweep}, {!Byz.Matrix}, {!Workload.Loadtest} and the
    bench tables all instantiate this signature, which is what lets one
    {!Pool} give them all the same [--jobs N] semantics: identical keys +
    identical [run_one] ⇒ identical summary, at any parallelism.

    [run_one] runs on several domains of one heap at once, so it must not
    mutate state that another key's [run_one] can reach. *)

type ('k, 'o, 's) t = {
  name : string;  (** For metrics names and failure messages. *)
  keys : 'k list;
  run_one : 'k -> 'o;
      (** A function of its key alone: pool domains run it side by side
          on one heap. *)
  summarize : 'o list -> 's;  (** Receives outcomes in key order. *)
}

exception
  Job_failed of {
    runner : string;
    index : int;
    reason : string;
  }
(** Raised by {!run} when a job raised.  Sweep jobs are deterministic
    functions of their key, so a failure is a bug, never load-dependent —
    surfacing it beats folding a hole into the summary. *)

val outcomes :
  ?jobs:int ->
  ?on_outcome:(int -> 'o -> unit) ->
  ?stats:(Pool.stats -> unit) ->
  ('k, 'o, 's) t ->
  'o list
(** The raw outcome list, in key order.  [on_outcome] fires once per key
    in ascending key order (so progress output is byte-identical at every
    [jobs] value).  [stats] receives the pool's wall-clock/utilization
    accounting.  Raises {!Job_failed} on the first (lowest-key) failed
    job. *)

val run :
  ?jobs:int ->
  ?on_outcome:(int -> 'o -> unit) ->
  ?stats:(Pool.stats -> unit) ->
  ('k, 'o, 's) t ->
  's
(** [summarize] applied to {!outcomes}. *)
