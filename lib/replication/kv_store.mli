(** Deterministic key-value state machine — the replicated service.

    Both replication protocols execute the same command stream against this
    machine; determinism (same command sequence ⇒ same results and state
    digest) is what the safety monitors check across replicas. *)

type t

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Incr of string  (** Numeric increment; non-numeric values count as 0. *)

type result =
  | Value of string option  (** [Get]: the mapped value. *)
  | Stored  (** [Put]/[Delete] acknowledgement. *)
  | Counter of int  (** [Incr]: the post-increment value. *)

val create : unit -> t

val apply : t -> op -> result
(** Execute one operation, mutating the store. *)

val digest : t -> int64
(** Order-insensitive digest of the current contents — equal iff the maps
    are equal; replicas compare these after executing a prefix. *)

val size : t -> int

val snapshot : t -> (string * string) list
(** Current contents as sorted bindings — equal stores snapshot to equal
    lists.  What a checkpoint certificate's digest commits to and what
    state transfer ships. *)

val restore : (string * string) list -> t
(** Fresh store holding exactly the given bindings;
    [digest (restore (snapshot t)) = digest t]. *)

val reset_to : t -> (string * string) list -> unit
(** Replace [t]'s contents in place (a restarting replica installing a
    verified snapshot into its existing store). *)

val encode_op : op -> string
val decode_op : string -> op
val encode_result : result -> string
val decode_result : string -> result
val pp_result : Format.formatter -> result -> unit
