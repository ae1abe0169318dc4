(** Coherence protocol messages.

    One variant per message class of the base write-invalidate protocol
    plus the delegation (§2.3) and speculative-update (§2.4) extensions.
    The requester/sender node is carried by the network layer; payloads
    name the affected line and any protocol arguments. *)

type nack_reason =
  | Busy  (** directory (or delegated entry) is mid-transaction *)
  | Not_home  (** receiver is no longer the delegated home for the line *)
  | Pending  (** owner has an unfinished transaction on the line *)

type t =
  (* Requests.  [tid] is the requester's transaction id (its MSHR tag):
     replies echo it so a requester can drop stale replies belonging to a
     transaction that was satisfied another way (e.g. by a speculative
     update). *)
  | Get_shared of { line : Types.line; tid : int }
  | Get_exclusive of { line : Types.line; tid : int }
  | Writeback of { line : Types.line; value : int }
      (** eviction of a dirty exclusive line back to its home *)
  | Writeback_ack of { line : Types.line }
      (** home -> evictor: the writeback was applied.  Interventions that
          arrive at the evictor before this ack belong to the ownership
          epoch the writeback ends and are dropped (classic
          writeback/intervention race resolution). *)
  (* Home-initiated interventions *)
  | Inval of { line : Types.line; requester : Types.node_id }
      (** invalidate your copy; ack the requester directly *)
  | Intervention of { line : Types.line; requester : Types.node_id; tid : int }
      (** downgrade to shared; send data to the requester and a shared
          writeback to the home *)
  | Transfer of { line : Types.line; requester : Types.node_id; tid : int }
      (** invalidate and pass exclusive ownership to the requester;
          confirm to the home *)
  | Transfer_ack of {
      line : Types.line;
      new_owner : Types.node_id;
      value : int option;
          (** line contents at transfer time; carried only on
              crash-capable machines ([Config.crash_capable]) so the home
              memory can catch up before a later crash loses the only
              cached copy.  [None] otherwise, keeping the wire cost of the
              verified base protocol unchanged. *)
    }
  (* Replies *)
  | Data_shared of { line : Types.line; value : int; source_is_home : bool; tid : int }
  | Data_exclusive of {
      line : Types.line;
      value : int;
      acks_expected : int;
      sharers : Nodeset.t;
          (** the nodes being invalidated on the requester's behalf (the
              ack debtors); rides in the header's directory-info bits.
              The requester waits for an ack from each live one, so crash
              recovery can credit a dead debtor's ack. *)
      tid : int;
    }
      (** speculative exclusive reply; completion needs an invalidation
          ack from each of [sharers], [acks_expected] of them *)
  | Inv_ack of { line : Types.line }
  | Shared_writeback of { line : Types.line; value : int; new_sharer : Types.node_id }
  | Nack of { line : Types.line; reason : nack_reason; tid : int }
  (* Delegation (§2.3) *)
  | Delegate of {
      line : Types.line;
      sharers : Nodeset.t;  (** sharing vector at delegation time *)
      value : int;
      acks_expected : int;
      tid : int;
    }
      (** home -> producer; doubles as the exclusive reply (Fig. 4a) *)
  | New_home of { line : Types.line; home : Types.node_id }
      (** home -> requester: future requests go to the delegated home *)
  | Fwd_get_shared of { line : Types.line; requester : Types.node_id; tid : int }
      (** home -> delegated home: serve this read on the home's behalf *)
  | Recall of { line : Types.line; requester : Types.node_id; kind : Types.op_kind }
      (** home -> producer: another node needs exclusive access; undelegate *)
  | Recall_nack of { line : Types.line }
      (** producer -> home: no producer-table entry yet (the recall
          overtook the in-flight Delegate, whose send is delayed by the
          home's memory fetch); the home retries while Busy *)
  | Undelegate of {
      line : Types.line;
      sharers : Nodeset.t;
      owner : Types.node_id option;
          (** [Some n] when the line remains exclusively owned by [n]
              (delegation refused but exclusivity kept) *)
      value : int option;  (** line contents if dirty at the producer *)
      pending : (Types.node_id * int) option;
          (** requester and transaction id of the [Get_exclusive] that
              triggered the undelegation, for the home to run as a store
              (§2.3.3) *)
    }
  (* Speculative updates (§2.4) *)
  | Update of { line : Types.line; value : int }
      (** producer -> consumer RAC push after delayed intervention *)
  | Update_flush of { line : Types.line }
      (** producer -> consumer, sent when the producer must undelegate:
          because channels are FIFO, its arrival means every earlier push
          on this channel has been installed.  Updates themselves are
          fire-and-forget (keeping the paper's traffic savings); only
          undelegation pays for a flush round trip, without which a
          straggling update could strand a stale copy past the next
          writer's invalidations. *)
  | Update_flush_ack of { line : Types.line }
      (** consumer -> producer: the flush marker arrived *)
  (* Bus-snooping backend (MSI/MESI).  The "bus" is modeled as a single
     machine-wide round-robin grant plus the serialized hub links:
     commands are broadcast point-to-point to every snooper, and each
     snooper answers with a {!Snoop_resp} so the requester can assemble
     the bus-wide OR of the shared/owner wires. *)
  | Bus_rd of { line : Types.line; tid : int }
      (** read miss: every snooper with an M/E copy flushes and
          downgrades to S; the home supplies memory data as fallback *)
  | Bus_rdx of { line : Types.line; tid : int }
      (** write miss: snoopers flush/invalidate; requester installs M *)
  | Bus_upgr of { line : Types.line; tid : int }
      (** S->M upgrade: no data transfer, snoopers just invalidate.  If
          the requester's S copy was evicted while it waited for the bus,
          the command is reissued as a {!Bus_rdx}. *)
  | Bus_flush of {
      line : Types.line;
      value : int;
      tid : int;
      requester : Types.node_id;
      dirty : bool;
    }
      (** owner -> requester cache-to-cache data (and, when [dirty],
          owner -> home memory update; the home then confirms with
          {!Bus_wb_ack} so the bus is held until memory is current) *)
  | Snoop_resp of {
      line : Types.line;
      tid : int;
      shared : bool;  (** snooper keeps (or kept) a copy: fill in S *)
      owner : bool;  (** snooper held M/E and is supplying the data *)
      flushed_home : bool;
          (** the snooper's flush was dirty; the requester must also wait
              for the home's {!Bus_wb_ack} before releasing the bus *)
      mem_value : int option;
          (** carried on the home node's response: the memory word after
              [Config.dram_latency], the data source when no cache owns
              the line *)
    }
  | Bus_wb of { line : Types.line; value : int }
      (** dirty-victim eviction to home memory (fill-triggered) *)
  | Bus_wb_ack of { line : Types.line; tid : int }
      (** home -> writer: the memory update landed *)

val line_of : t -> Types.line

val header_bytes : int
(** Fixed per-packet header size; also the wire cost of a hub-link
    acknowledgement frame, which carries no payload. *)

val wire_bytes : line_bytes:int -> t -> int
(** Logical packet size: a 16-byte header, plus the line payload for
    data-carrying messages, plus 8 bytes of directory state for
    delegation messages.  The network pads to its minimum packet size. *)

val class_name : t -> string
(** Stable short name for per-class message counting. *)

val class_count : int
(** Number of distinct message classes. *)

val class_index : t -> int
(** Dense index in [0, class_count): the allocation-free companion of
    {!class_name}, for per-class tables on the hot path. *)

val class_index_name : int -> string
(** Inverse of {!class_index}: [class_index_name (class_index m)] is
    [class_name m].  Out-of-range indices decode as ["class-<i>"] so
    flight-dump decoders degrade gracefully on future schema drift. *)

val pp : Format.formatter -> t -> unit
