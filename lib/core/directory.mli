(** Home-node directory state.

    Every line has a home node that stores its memory contents and
    directory entry (sharing vector, owner, protocol state).  Directory
    entries live logically in memory; a small {e directory cache} holds the
    recently used ones, and — following §2.2 — the producer-consumer
    predictor bits exist {e only} inside directory-cache entries: when an
    entry is evicted from the directory cache its predictor history is
    lost. *)

type dstate =
  | Unowned
  | Shared_s  (** read-only copies at [sharers] *)
  | Excl  (** writable at [owner] *)
  | Busy_shared  (** intervention in flight: [owner] downgrading for [requester] *)
  | Busy_excl  (** ownership transfer / recall in flight for [requester] *)
  | Dele  (** directory management delegated to [owner] (§2.3) *)

type entry = {
  mutable state : dstate;
  mutable sharers : Nodeset.t;
  mutable owner : Types.node_id;
  mutable requester : Types.node_id;  (** pending requester in Busy states *)
  mutable requester_op : Types.op_kind;
  mutable requester_tid : int;  (** the pending requester's transaction id *)
  mutable requester_epoch : int;
      (** the requester's incarnation epoch when the Busy state was set
          (crash-capable machines only, 0 otherwise).  A Busy resolution
          whose requester has since crashed — even if restarted — must not
          be granted: the grant would name an owner that no longer holds
          (or expects) the line. *)
  mutable mem_value : int;  (** line contents in home memory *)
}

type t

type access = {
  latency : int;  (** directory lookup cost: cache hit or memory fetch *)
  dir_cache_hit : bool;
  predictor : Predictor.entry;
      (** live predictor state for this line; fresh if the entry was just
          (re)inserted into the directory cache *)
}

val create :
  config:Config.t -> rng:Pcc_engine.Rng.t -> home:Types.node_id -> t

val entry : t -> Types.line -> entry
(** The authoritative directory entry, created [Unowned] on first touch.
    Raises [Invalid_argument] if the line is not homed here. *)

val find : t -> Types.line -> entry option
(** Non-creating probe: the entry if the line was ever touched at this
    home, with no side effects.  Audit/inspection code must use this
    rather than {!entry} so probing cannot manufacture state. *)

val access : t -> Types.line -> access
(** Model one directory-controller lookup: charges the directory-cache
    hit or miss latency and returns the (possibly freshly reset)
    predictor entry. *)

val reset_predictor : t -> Types.line -> unit
(** Clear the predictor history for a line (no timing effect).  Done on
    undelegation so a capacity-evicted delegation must re-establish its
    pattern before being delegated again — the anti-thrash rule that
    makes producer-table capacity a real resource (§3.3.4). *)

val iter : (Types.line -> entry -> unit) -> t -> unit
