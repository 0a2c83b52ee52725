(** The shared-memory round drivers behind one selector: each run gets a
    fresh shared object (SWMR registers, a sticky-bit board or a PEATS
    space) that every process's behavior writes and scans. *)

type driver = Swmr | Sticky | Peats

val all : (string * driver) list
(** [swmr], [sticky], [peats], in that order. *)

val behaviors :
  driver ->
  n:int ->
  keyring:Thc_crypto.Keyring.t ->
  pid:int ->
  Round_app.app ->
  'm Thc_sim.Engine.behavior
(** [behaviors d ~n ~keyring] creates the run's shared object for [n]
    processes; apply it to each [pid] (which signs with its secret in
    [keyring]) and that process's app. *)
