(** The delegate cache (§2.3): a producer table and a consumer table.

    The {e producer table} holds the directory state of lines delegated
    {e to} the local node; its size bounds how many lines a node can act as
    home for at once.  Entries mid-transaction can be locked against
    replacement.

    The {e consumer table} is a hint cache mapping lines to their delegated
    home so requests can bypass the original home; it is 4-way
    set-associative with random replacement, and stale entries are
    corrected by NACK-and-retry. *)

module Producer : sig
  type 'a t
  (** ['a] is the delegated directory state stored per line. *)

  val create :
    rng:Pcc_engine.Rng.t -> entries:int -> ways:int -> unit -> 'a t

  val find : 'a t -> Types.line -> 'a option

  val peek : 'a t -> Types.line -> 'a option
  (** Lookup without the LRU side effect, for audit/inspection paths that
      must not perturb replacement decisions. *)

  type 'a insert_result =
    | Inserted of (Types.line * 'a) option
        (** carries the victim whose delegation must be given up, if the
            set was full (undelegation reason 1, §2.3.3) *)
    | Set_locked  (** every candidate victim is locked; delegation refused *)

  val insert : 'a t -> Types.line -> 'a -> 'a insert_result

  val remove : 'a t -> Types.line -> 'a option

  val lock : 'a t -> Types.line -> unit
  (** Protect an entry from replacement while a transaction is in
      flight. *)

  val unlock : 'a t -> Types.line -> unit

  val size : 'a t -> int

  val capacity : 'a t -> int

  val iter : (Types.line -> 'a -> unit) -> 'a t -> unit

  val clear : 'a t -> unit
  (** Drop every entry, locked or not (fail-stop crash). *)
end

module Consumer : sig
  type t

  val create : rng:Pcc_engine.Rng.t -> entries:int -> ways:int -> unit -> t

  val find : t -> Types.line -> Types.node_id option
  (** The hinted delegated home, if a (possibly stale) entry exists. *)

  val insert : t -> Types.line -> Types.node_id -> bool
  (** May evict a random entry of the target set; returns [true] when it
      did (capacity pressure, counted by the node for the bench-dedup
      soundness check). *)

  val remove : t -> Types.line -> unit
  (** Drop a hint discovered to be stale. *)

  val size : t -> int

  val clear : t -> unit
  (** Drop every hint (fail-stop crash). *)

  val drop_target : t -> Types.node_id -> unit
  (** Drop every hint routing to a given node (it crashed; requests sent
      there would be lost). *)
end

(** {2 The delegated home's transitions}

    A producer-table entry runs its line's directory once the line is
    delegated (§2.3): it serves reads, fences its pushed updates with a
    flush round before giving the line back (§2.4), and owes its home an
    undelegation when recalled.  Its rules are one table.  The simulator
    ([Node]) and the model checker ([Pcc_mcheck.Protocol_model]) look up a
    {!step} for every event at a delegated home and interpret its
    {!action}, each with only its own side's effects (the simulator's
    latencies, locks, push statistics, flush debtor sets and flight notes;
    the model's packets and seeded bugs). *)

type phase =
  | No_entry  (** the node holds no producer entry for the line *)
  | Busy  (** the producer's local upgrade is collecting acks *)
  | Exclusive  (** the producer holds the line exclusively *)
  | Shared  (** downgraded: the RAC copy backs the readers in the vector *)

(** What the entry owes its home once its flush fence drops. *)
type slot =
  | Free
  | Recalled  (** the home recalled the line (or the node gave up on it) *)
  | Held of { requester : Types.node_id; tid : int }
      (** a [Get_exclusive] waits to ride the [Undelegate] *)

type event =
  | Read  (** a [Get_shared] or a forwarded one reached the entry *)
  | Write  (** a [Get_exclusive] reached the entry *)
  | Recall  (** the home recalls the line; the simulator's fallback too *)
  | Own_store  (** the producer's own store misses in its L2 *)
  | Store_done  (** the producer's store committed *)
  | Flush_done  (** the flush round's last acknowledgement arrived *)
  | Burst_over  (** the delayed intervention fired (§2.4.1) *)
  | Evicted  (** the entry is a replacement candidate (undelegation reason 1) *)

type action =
  | Serve  (** the reader joins the vector; the RAC copy answers it *)
  | Downgrade_and_serve
      (** as {!Downgrade_and_push}, not pushing to the reader, then
          {!Serve} *)
  | Nack_busy
  | Nack_not_home  (** the node is not (or no longer) the line's home *)
  | Hold  (** the request waits in the slot; the store's commit settles it *)
  | Hold_and_flush  (** the request waits in the slot; {!Flush} *)
  | Mark_recalled  (** the slot records the recall; the store's commit settles it *)
  | Mark_recalled_and_flush  (** the slot records the recall; {!Flush} *)
  | Flush
      (** start a flush round toward the targets pushed since the last
          one; nothing while a round is in flight *)
  | Give_back  (** undelegate, carrying no request *)
  | Give_back_held  (** undelegate, carrying the held request *)
  | Give_back_with_request  (** undelegate, carrying this [Get_exclusive] *)
  | Recall_nack  (** no entry: the recall may have overtaken its [Delegate] *)
  | Local_upgrade
      (** invalidate the consumers in the vector directly, which become
          the next pushes' targets (the "2-hop write") *)
  | Regain  (** exclusivity is still held: the RAC copy completes the store *)
  | Downgrade_and_push
      (** the exclusive copy moves to the RAC, and the previous epoch's
          consumers get the new value (§2.4) *)
  | Keep  (** nothing to do *)

(** The entry's phase afterwards, and what to do; only the hold, mark and
    give-back actions change the slot. *)
type step = private { phase : phase; action : action }

val producer_step : phase -> fenced:bool -> slot -> event -> step
(** [fenced]: is a flush round in flight, or were updates pushed since
    the last one?  Only the rows that may flush or give the line back
    read it ([Write], [Recall], [Store_done], [Flush_done], [Evicted]).
    The slot is read only as free, recalled or held.  Allocation-free:
    every step is built once. *)

val entry_bytes_producer : int
(** 10 bytes per producer entry (Fig. 3). *)

val entry_bytes_consumer : int
(** 6 bytes per consumer entry (Fig. 3). *)
