(** Deterministic pseudo-random number generation for simulations.

    The simulator must be fully reproducible: every run with the same seed
    produces the same event ordering and the same statistics.  This module
    wraps a SplitMix64 generator, which has a tiny state, good statistical
    quality for simulation purposes, and supports cheap splitting so every
    node / workload thread can own an independent stream.

    The 64-bit state is kept unboxed, so {!int}, {!float} and {!bool}
    allocate nothing per draw; only {!next_int64} returns a boxed value. *)

type t

val create : seed:int -> t
(** [create ~seed] makes a fresh generator.  Equal seeds give equal
    streams. *)

val copy : t -> t
(** Independent copy with identical future output. *)

val split : t -> t
(** [split t] derives a new generator whose stream is statistically
    independent of [t]'s; [t] advances by one step. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val bool : t -> p:float -> bool
(** [bool t ~p] is [true] with probability [p]. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
