(** Remote Access Cache (§2.1).

    A per-node hub cache for remote data with three roles: a victim cache
    for remote lines evicted from the processor caches, the landing buffer
    for speculative updates pushed by producers (updates cannot be pushed
    into processor caches), and a surrogate "main memory" for lines
    delegated to this node — those entries are {e pinned} so the data
    always has a local resting place. *)

type t

type fill_origin =
  | Victim  (** evicted shared remote line *)
  | Pushed_update  (** arrived via a speculative update (§2.4) *)
  | Delegated  (** pinned backing store for a line delegated to this node *)

val create : rng:Pcc_engine.Rng.t -> lines:int -> ways:int -> unit -> t

val lookup : t -> Types.line -> int option
(** Value of a valid entry; refreshes recency.  Consuming a pushed update
    marks it as consumed for accounting. *)

val contains : t -> Types.line -> bool

val fill : t -> Types.line -> value:int -> origin:fill_origin -> bool
(** Insert or overwrite.  [Delegated] fills are pinned; the fill fails
    (returns [false]) if every way of the set is pinned.  Unpinned
    victims are evicted silently. *)

val write : t -> Types.line -> value:int -> bool
(** Overwrite the value of an existing entry; false when absent. *)

val invalidate : t -> Types.line -> unit
(** Drop the entry (pinned or not); used by coherence invalidations. *)

val unpin : t -> Types.line -> unit
(** Delegation released: entry becomes an ordinary evictable copy. *)

val clear : t -> unit
(** Drop every entry, pinned or not (fail-stop crash).  The cumulative
    update counters are kept: they describe traffic that really
    happened. *)

val size : t -> int

val capacity : t -> int

val updates_consumed : t -> int
(** Pushed updates later read locally (useful speculative pushes). *)

val updates_wasted : t -> int
(** Pushed updates invalidated or evicted before any local read. *)

val evictions : t -> int
(** Valid entries displaced by a capacity fill. *)

val fill_refusals : t -> int
(** Fills refused because every way of the set was pinned. *)

val pressure : t -> int
(** [evictions + fill_refusals] — zero exactly when this RAC never felt
    capacity pressure, in which case a larger RAC (same associativity,
    set count a multiple of this one's) would have behaved identically.
    The bench matrix uses this to collapse redundant size configs. *)

val peek : t -> Types.line -> int option
(** Value without recency or consumption side effects. *)

val iter : (Types.line -> int -> unit) -> t -> unit
(** Visit every resident line/value (inspection/invariant checks). *)
