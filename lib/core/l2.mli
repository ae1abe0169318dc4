(** Processor-side cache model.

    The L1s filter only latency, not coherence traffic, so the model keeps
    a single coherent cache level per processor (the L2 of Table 1).
    Lines are [Shared] or [Exclusive]; invalid lines are simply absent. *)

type line_state = Shared | Exclusive

type entry = { state : line_state; value : int; dirty : bool }

type victim = { victim_line : Types.line; victim_entry : entry }

type t

val create : rng:Pcc_engine.Rng.t -> lines:int -> ways:int -> unit -> t

val lookup : t -> Types.line -> entry option
(** Refreshes recency. *)

val peek : t -> Types.line -> entry option

val fill : t -> Types.line -> entry -> victim option
(** Insert (or overwrite) a line, returning any evicted victim the caller
    must write back or victim-cache. *)

val set : t -> Types.line -> entry -> unit
(** Overwrite an existing line's state/value; raises [Invalid_argument]
    when absent (state changes must target resident lines). *)

val invalidate : t -> Types.line -> entry option

val clear : t -> unit
(** Drop every resident line (fail-stop crash: the cache dies with its
    node). *)

val size : t -> int

val capacity : t -> int

val iter : (Types.line -> entry -> unit) -> t -> unit
(** Visit every resident line (inspection/invariant checks). *)

(** {2 The requester's transitions}

    The processor side of the adaptive protocol (§2.3, §2.4.3) as one
    table: a miss's issue, its replies and NACK retries, invalidations,
    pushed updates (which answer a load in flight) and the owner's answer
    to a forwarded [Intervention] or [Transfer].  The simulator ([Node])
    and the model checker ([Pcc_mcheck.Protocol_model]) look up an
    {!action} for every such event and interpret it, each with only its
    own side's effects (the simulator's latencies, miss classification,
    statistics, invalidation debtor sets, timeouts and routing; the model's
    packets, seeded bugs and labels).  Evictions, [New_home],
    [Writeback_ack] and [Update_flush] are one rule each and stay with
    their callers. *)

type copy = No_copy | Shared_copy | Exclusive_copy  (** the node's L2 copy *)

val copy_of : entry option -> copy

(** The node's outstanding transaction on the event's line. *)
type txn =
  | Idle  (** none (or one on another line) *)
  | Loading
  | Awaiting_grant  (** a store waiting for its exclusive data or delegation *)
  | Granted  (** a store holding its grant, collecting invalidation acks *)

type event =
  | Issue_load  (** the processor loads (the L2 lookup) *)
  | Issue_store
  | Data_shared
  | Data_exclusive
  | Delegate  (** doubles as the exclusive reply (Fig. 4a) *)
  | Nack  (** [Busy] or [Pending] *)
  | Nack_not_home  (** the target is no longer the delegated home *)
  | Inv_ack
  | Inval
  | Update  (** a producer's push (§2.4) *)
  | Intervention
  | Transfer

type action =
  | Hit  (** the L2 copy suffices: a load hits any copy, a store an exclusive one *)
  | Local
      (** served at the node: a load by its RAC copy; a store by its
          producer entry, whose [Own_store] row
          ([Delegate_cache.producer_step]) says how *)
  | Request  (** [Get_shared] or [Get_exclusive] to the home, or the hinted one *)
  | Commit_load  (** the reply commits the load, cached unless an inval poisoned it *)
  | Take_grant  (** the store holds its grant and owes the acks the reply names *)
  | Take_delegation
      (** as {!Take_grant}, the node becoming the line's delegated home
          (the simulator may refuse: capacity or fallback) *)
  | Return_delegation  (** no transaction wants it: [Undelegate] it back *)
  | Retry  (** send the request again after the retry delay *)
  | Retry_unhinted  (** drop the consumer hint, then {!Retry} *)
  | Credit_ack
  | Invalidate  (** drop the L2 and RAC copies; ack the requester *)
  | Invalidate_and_poison
      (** {!Invalidate}; the waiting load commits without caching *)
  | Commit_update  (** the push is the load's reply (§2.4.3), and is cached *)
  | Fill_rac  (** the push lands in the RAC *)
  | Defer  (** the request waits for the store's commit, then runs again *)
  | Serve
      (** an [Intervention] downgrades the copy and shares it with the
          requester and the home; a [Transfer] invalidates it and passes
          it to the requester, acknowledging the home *)
  | Drop  (** a stale reply, or a writeback race the home resolves *)

(** A forwarded request a node deferred behind its store. *)
type deferred =
  | Deferred_intervention of { requester : Types.node_id; tid : int }
  | Deferred_transfer of { requester : Types.node_id; tid : int }

val requester_step : copy -> txn -> own:bool -> wb:bool -> local:bool -> event -> action
(** [own]: does the reply's tid name the transaction?  Read only by the
    tid-carrying replies ([Data_shared], [Data_exclusive], [Delegate],
    the NACKs).  [wb]: does a writeback of the line await its ack?  Read
    only by [Intervention] and [Transfer], which with the issues are
    also the only readers of [copy].  [local]: can the node serve the
    miss itself, a load from its RAC, a store from its producer entry?
    Read only by the issues.  Allocation-free: every action is looked up
    in a table built once. *)
