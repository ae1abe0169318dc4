(** The MSI/MESI protocol as one transition table.

    Every state decision of the bus-snooping protocols lives here: what a
    processor access does from each state, how every other cache reacts
    to each bus command, the state a completed access leaves, whether an
    eviction writes back, and the per-line invariants.  {!Snoop} reads
    the table to run the protocol over messages and timing;
    [Pcc_mcheck.Snoop_model] interprets the same table one atomic bus
    transaction at a time, so the simulated and the checked protocol
    cannot drift apart.

    On the shared {!L2}: M = [Exclusive] dirty, E = [Exclusive] clean
    (MESI only), S = [Shared], I = absent. *)

type state = I | S | E | M

type cmd =
  | Rd  (** read miss: owners downgrade to S *)
  | Rdx  (** write miss: every other copy dies *)
  | Upgr  (** S->M upgrade: no data moves, sharers die *)

type access = Hit | Bus of cmd

(** One snooper's reaction to a bus command, given its own state. *)
type reaction = {
  next : state;  (** the snooper's state afterwards *)
  supply : bool;  (** sends its copy to the requester (cache-to-cache) *)
  writeback : bool;  (** its dirty word goes to home memory *)
  shared : bool;  (** raises the shared wire *)
  owner : bool;  (** raises the owner wire: the requester takes the supplied data *)
}

(** One bus command's row of the table: the reaction of a snooper in
    each state. *)
type row = private {
  cmd : cmd;
  kills : bool;
      (** every copy ends I, so a snooper can invalidate first and read
          its pre-state off the removed entry *)
  if_i : reaction;
  if_s : reaction;
  if_e : reaction;
  if_m : reaction;
}

type t
(** One protocol variant, possibly with a planted fault: a row per bus
    command. *)

val make : Types.protocol -> Config.fault option -> t
(** The table for [Msi] or [Mesi].  [Some Snoop_upgr_skips_invals]
    replaces the [Upgr] row with one where every snooper keeps its own
    state: an S->M upgrade leaves stale sharers alive.
    @raise Invalid_argument on [Adaptive] or on a fault the table does
    not implement. *)

val request : state -> Types.op_kind -> access
(** What a processor access does from the requester's state: load hits
    in S/E/M, store hits in E (silently) and M; otherwise the bus
    command it issues. *)

val row : t -> cmd -> row

val react : row -> state -> reaction
(** Allocation-free: every reaction is a static constant. *)

val fill : t -> Types.op_kind -> shared:bool -> state
(** The requester's state once its access commits: M after every store
    (hit, upgrade or miss); after a load miss, E on MESI when no other
    cache raised the shared or owner wire ([shared]), else S. *)

val evict_writes_back : state -> bool
(** Only a Modified copy carries data home when it is evicted. *)

val state_of_entry : L2.entry -> state

val state_of : L2.entry option -> state
(** [None] is I. *)

val entry : state -> int -> L2.entry
(** The L2 encoding of a copy.  @raise Invalid_argument on [I]. *)

val state_name : state -> string

val cmd_name : cmd -> string

(** {2 Per-line invariants}

    A line view is a list of copies, read through [state] and [value],
    plus home memory's word; I copies may appear and are ignored. *)

type invariant =
  | Single_writer  (** at most one E/M copy, and none beside any other copy *)
  | Shared_matches_memory  (** every S copy equals home memory *)
  | Msi_has_no_e  (** the MSI variant never holds an exclusive-clean copy *)

val invariants : invariant list

val invariant_name : invariant -> string

val holds :
  t -> invariant -> state:('c -> state) -> value:('c -> int) -> mem:int -> 'c list -> bool

val violations :
  t -> state:('c -> state) -> value:('c -> int) -> mem:int -> 'c list -> invariant list
(** The invariants the line breaks, in {!invariants} order; allocates
    nothing when it breaks none. *)
