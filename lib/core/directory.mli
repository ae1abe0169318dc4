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

val state_code : dstate -> int
(** Dense code in [0, 6), in declaration order: the flight ring's
    [dir-state] argument and the model checker's state byte. *)

(** {2 The home's transitions}

    The home directory controller (§2.3, Figs. 3-4) as one table.  The
    simulator ([Node]) and the model checker
    ([Pcc_mcheck.Protocol_model]) look up a {!step} for every message
    that reaches a home and interpret its {!action}, each with only its
    own side's effects (the simulator's latencies, predictor, statistics
    and flight notes; the model's packets and nondeterministic
    delegation), so the two cannot disagree on a home decision.  The
    delegated home has its own table ([Delegate_cache.producer_step]),
    and so does the requester side ([L2.requester_step]).  Below, "the
    sender" is the
    message's source and the fields are {!entry}'s. *)

type input =
  | Get_shared
  | Get_exclusive
  | Writeback  (** always acknowledged, whatever its action *)
  | Shared_writeback
  | Transfer_ack
  | Undelegate
  | Recall_nack

type role =
  | Owner  (** the sender is [owner] *)
  | Requester  (** the sender is the waiting [requester]; read only while Busy *)
  | Other

type action =
  | Serve
      (** memory answers: shared data, the sender joining [sharers]; or,
          for [Get_exclusive] at [Unowned], exclusive data with no acks,
          the sender becoming [owner] *)
  | Grant_or_delegate
      (** invalidate every sharer but the sender, which becomes [owner]:
          by exclusive data (next [Excl]), or by a [Delegate] that
          doubles as the grant (then [Dele]) *)
  | Nack_busy
  | Nack_pending  (** the sender owns the line: its writeback is in flight *)
  | Intervene  (** the sender waits as [requester]; [Intervention] to [owner] *)
  | Transfer  (** the sender waits as [requester]; [Transfer] to [owner] *)
  | Recall  (** the sender waits as [requester]; [Recall] to the delegated home *)
  | Forward  (** [Fwd_get_shared] to the delegated home, [New_home] to the sender *)
  | Retry_recall  (** the producer had no entry yet: [Recall] again *)
  | Serve_waiting
      (** memory takes the written-back value and serves the waiting
          reader, the only sharer; no owner *)
  | Rerun_waiting  (** as {!Take_back}, then the waiting request runs again *)
  | Share
      (** memory takes the downgraded value; the sender is the only
          sharer (the reader it served is no longer current); no owner *)
  | Share_with_reader  (** as {!Share}, and the reader it served shares too *)
  | Confirm_transfer
      (** the new owner the ack names owns the line, no sharers; a value
          riding the ack raises memory to it *)
  | Checkpoint
      (** a delegated producer's later value raises memory to it;
          nothing else changes (crash-capable machines) *)
  | Take_back
      (** memory takes the written-back value (a [Transfer_ack]'s raises
          it); no owner, no sharers *)
  | Reclaim
      (** the delegated home gave the line back: memory takes its value,
          the state is {!reclaimed} from the returned owner and sharers,
          the predictor resets, and the request it carries runs *)
  | Reclaim_and_rerun  (** as {!Reclaim}, then the waiting request runs too *)
  | Stale  (** nothing changes *)

type step = private {
  next : dstate;
      (** the state afterwards; [Grant_or_delegate] names [Excl], the
          reclaims [Unowned] (see {!action}) *)
  action : action;
}

val role : owner:Types.node_id -> requester:Types.node_id -> Types.node_id -> role
(** The sender's role; the owner wins a tie. *)

val home_step : dstate -> input -> role -> current:bool -> step
(** [current]: is a Busy entry's waiting requester still the incarnation
    that asked (always true without crashes; ignored outside Busy
    states)?  Allocation-free: every step is a static constant. *)

val reclaimed : kept_owner:bool -> sharers:bool -> dstate
(** [Excl] when the producer kept exclusivity, else [Shared_s] with
    returned sharers, else [Unowned]. *)

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
