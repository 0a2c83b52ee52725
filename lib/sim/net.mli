(** Network configuration: per-directed-link delivery policy.

    The adversary of the asynchronous model is expressed as a schedule of
    reconfigurations of this structure (performed through {!Engine.at}
    scripts): a link can deliver with a sampled delay, hold messages back
    ([Block], the paper's "arbitrarily delayed"), or drop them ([Drop],
    used only on links from Byzantine processes or to model fair-loss
    experiments — correct-to-correct links must stay eventually live for
    the asynchronous model's guarantees to apply).

    Hand-setting links is the low-level interface; the intended
    high-level entry point is the topology compiler
    ([Thc_network.Topology.apply]), which lowers a named network model —
    clique, geo regions, asymmetric skew, seeded loss — onto this policy
    table in one call and schedules any heals it needs. *)

type policy =
  | Deliver of Delay.t  (** Deliver after a sampled delay. *)
  | Block
      (** Hold messages; they are queued and released when the link is later
          set back to [Deliver] (see {!Engine.set_link}). *)
  | Drop  (** Silently discard. *)

(** Recycled flat buffers for held (blocked-link) traffic.  The engine
    parks messages for a blocked link in one [buf] per directed link and
    returns it to the pool when the link heals, so repeated partition
    episodes reuse the same backing arrays instead of allocating queue
    cells per message. *)
module Pool : sig
  type 'a buf
  (** Growable vector of parked values, FIFO by insertion index. *)

  type 'a t

  val create : null:'a -> unit -> 'a t
  (** [null] is the sentinel written into vacated slots on {!release} so
      a pooled buffer never pins its previous contents. *)

  val acquire : 'a t -> 'a buf
  (** An empty buffer — a recycled one when available. *)

  val release : 'a t -> 'a buf -> unit
  (** Clear [buf] (slots overwritten with the null sentinel) and return
      it to the pool for the next {!acquire}. *)

  val push : 'a buf -> 'a -> unit

  val length : 'a buf -> int

  val get : 'a buf -> int -> 'a
  (** [get buf i] is the [i]-th pushed value; raises [Invalid_argument]
      out of bounds. *)
end

type t

val create : n:int -> default:Delay.t -> t
(** Fully connected [n]-process network; every link (including self-loops,
    which model local delivery) starts as [Deliver default]. *)

val n : t -> int

val get : t -> src:int -> dst:int -> policy

val set : t -> src:int -> dst:int -> policy -> unit

val set_from : t -> src:int -> policy -> unit
(** Set all links out of [src]. *)

val set_to : t -> dst:int -> policy -> unit
(** Set all links into [dst]. *)

val isolate_groups : t -> groups:int list list -> policy -> unit
(** Apply [policy] to every link whose endpoints lie in different groups.
    Processes not mentioned in any group form an implicit extra group. *)
