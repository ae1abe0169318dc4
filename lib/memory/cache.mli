(** Generic set-associative cache with LRU or random replacement and entry
    pinning.

    This one structure backs the processor L2 model, the Remote Access
    Cache (whose delegated lines must be {e pinned}, §2.1 of the paper),
    the directory cache, and the delegate-cache tables (§2.3, 4-way with
    random replacement).

    Keys are cache-line numbers (or tags in general); payloads are
    caller-defined.

    Probes of an LRU cache allocate nothing: {!find}, {!peek}, {!mem},
    {!remove}, the pin operations and an {!insert} that overwrites a
    resident key with its current payload touch no minor heap.  Each way
    keeps its payload boxed as [Some payload], which {!find}, {!peek}
    and {!remove} return as is; a removed key's way keeps that box and
    its slot record for the next key inserted there.  Only an insert
    that fills a never-used way, stores a new payload, or evicts (the
    victim pair) allocates.  Random-replacement caches keep per-set hash
    tables, whose hits box their result. *)

type 'a t

type policy = Lru | Random

val create : ?policy:policy -> ?rng:Pcc_engine.Rng.t -> sets:int -> ways:int -> unit -> 'a t
(** [sets] and [ways] must be positive.  [Random] replacement requires an
    [rng] (a deterministic default is used otherwise). *)

type 'a insert_result =
  | Inserted of (int * 'a) option
      (** Success; carries the evicted (unpinned) victim, if the set was
          full. *)
  | All_ways_pinned
      (** Every way of the target set is pinned; nothing was inserted. *)

val insert : ?pin:bool -> 'a t -> int -> 'a -> 'a insert_result
(** Insert or overwrite the entry for a key (overwriting keeps the existing
    pin unless [pin] is given).  The inserted entry becomes most recently
    used. *)

val find : 'a t -> int -> 'a option
(** Lookup {e with} LRU side effect: a hit becomes most recently used. *)

val peek : 'a t -> int -> 'a option
(** Lookup without disturbing recency. *)

val mem : 'a t -> int -> bool

val remove : 'a t -> int -> 'a option

val pin : 'a t -> int -> unit
(** Mark an entry non-evictable.  No-op when the key is absent. *)

val unpin : 'a t -> int -> unit

val is_pinned : 'a t -> int -> bool

val size : 'a t -> int
(** Number of resident entries. *)

val capacity : 'a t -> int
(** [sets * ways]. *)

val iter : (int -> 'a -> unit) -> 'a t -> unit

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b

val clear : 'a t -> unit
