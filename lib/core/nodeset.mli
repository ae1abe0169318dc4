(** Sets of node identifiers, represented as bit vectors.

    Directory sharing vectors are bit-per-node in the modeled machine; this
    module gives them a typed interface.  Supports up to 62 nodes. *)

type t

val empty : t

val singleton : int -> t

val add : t -> int -> t

val remove : t -> int -> t

val mem : t -> int -> bool

val union : t -> t -> t

val diff : t -> t -> t

val cardinal : t -> int

val is_empty : t -> bool

val iter : (int -> unit) -> t -> unit

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a

val filter : (int -> bool) -> t -> t

val to_list : t -> int list
(** Ascending node order. *)

val of_list : int list -> t

val of_mask : int -> t
(** The set holding node [n] exactly when bit [n] of the mask is set. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
