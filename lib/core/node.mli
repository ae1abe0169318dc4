(** A machine node: processor cache, hub, directory controller, RAC and
    delegate cache, plus the full coherence state machine.

    Each node is simultaneously (a) a {e requester} issuing loads/stores
    from its processor, (b) the {e home} for its slice of memory, and —
    with delegation enabled — (c) a potential {e delegated home} for lines
    it produces.  All inter-node interaction goes through coherence
    messages on the network; a node sending to itself models a processor
    accessing its own home memory.  Each role's decisions are one
    transition table the model checker interprets too
    ([L2.requester_step], [Directory.home_step],
    [Delegate_cache.producer_step]); the node adds its side's effects.

    A node has no observer surface of its own: every send, receive,
    issue, commit, retransmission and protocol decision note goes once
    into the machine's {!Probe}, which records it in the flight ring and
    fans it out to {!System}'s subscribers. *)

type t

val create :
  probe:Probe.t ->
  alive_view:bool array ->
  config:Config.t ->
  sim:Pcc_engine.Simulator.t ->
  network:Message.t Pcc_interconnect.Network.t ->
  id:Types.node_id ->
  stats:Run_stats.t ->
  next_version:(unit -> int) ->
  rng:Pcc_engine.Rng.t ->
  unit ->
  t
(** Build a node and register its hub link endpoint as the network
    receiver for [id].  All node traffic travels through that
    {!Hub_link}; with a fault profile configured ({!Config.hardened}) the
    link runs in reliable mode, otherwise it is a strict pass-through.
    [next_version] supplies globally unique store values for coherence
    checking.  [probe] is the machine-wide event sink every protocol
    event is emitted into; [alive_view] is the machine-wide aliveness
    array shared by every node of one system (flipped by crashes). *)

val submit :
  t -> kind:Types.op_kind -> line:Types.line -> on_commit:(unit -> unit) -> unit
(** Issue one blocking memory operation from the local processor.  At most
    one operation may be outstanding per node; [on_commit] fires when it
    is globally performed.  Raises [Invalid_argument] if an operation is
    already pending (an L2 hit waiting out its latency included). *)

(** {2 Inspection (tests, examples, invariant checks)} *)

val directory : t -> Directory.t

val l2_state : t -> Types.line -> L2.entry option

val rac_value : t -> Types.line -> int option

val rac_updates_consumed : t -> int

val rac_updates_wasted : t -> int

val rac_pressure : t -> int
(** RAC capacity events (evictions + pinned-set fill refusals); see
    {!Rac.pressure}. *)

val deledc_pressure : t -> int
(** Delegate-cache capacity events: producer-table victims and
    locked-set refusals plus consumer-hint evictions.  Zero means a
    larger delegate cache would have run byte-identically (the bench
    matrix collapses such configs). *)

val is_delegated_producer : t -> Types.line -> bool
(** True when this node currently holds a producer-table entry for the
    line. *)

val consumer_hint : t -> Types.line -> Types.node_id option
(** Contents of the consumer delegate table for a line, if any. *)

val delegated_line_count : t -> int

val iter_l2 : t -> (Types.line -> L2.entry -> unit) -> unit

val pending_op : t -> (Types.op_kind * Types.line) option
(** The outstanding processor transaction, if any. *)

val pending_info : t -> (Types.op_kind * Types.line * int * int) option
(** The outstanding transaction with its start cycle and the number of
    completion timeouts it has taken — the raw material of a stall
    report. *)

val rac_occupancy : t -> int
(** Valid RAC entries right now (0 without a RAC) — a telemetry gauge. *)

val rac_capacity : t -> int
(** Total RAC entries (0 without a RAC). *)

val hub_in_flight : t -> int
(** Unacknowledged hub-link packets across this node's outgoing links
    (0 in pass-through mode). *)

val link_retransmits : t -> (Types.node_id * int) list
(** Per-destination hub-link retransmission totals ([(dst, count)],
    destinations with at least one retransmission). *)

(** {2 Machine-wide invariants (§2.5)}

    The adaptive protocol's invariants are stated once, in
    {!Dir_invariants}; these functions read a machine into its line
    view. *)

val line_view : t array -> Types.line -> Dir_invariants.view -> unit
(** Fill the view's directory, copy and producer fields for one line,
    leaving its in-transit answers to the caller.  Reads only
    side-effect-free accessors (no LRU recency, no consumed updates, no
    directory entry created), so an auditor can call it mid-run. *)

val iter_lines : t array -> (Types.line -> unit) -> unit
(** Every line some L2, RAC or directory knows, each once. *)

val check_invariants : t array -> string list
(** A drained machine's invariants: no transaction pending, and every
    line's {!Dir_invariants} at the [Quiescent] strength.  Returns one
    description per broken rule, such as ["line 2@2: node 2 holds a copy
    not covered by producer's sharing vector"] (empty = consistent). *)

(** {2 Fail-stop crashes and directory recovery}

    Driven by {!System} from the fault profile's crash schedule.  The
    life cycle of one crash is: [crash] at the scheduled cycle (volatile
    node state dies, the machine-wide alive view flips), then — after
    the configured detection delay — the network bumps the victim's
    incarnation epoch and [recover_after_crash] runs the machine-wide
    recovery sweep; finally [restart] (if scheduled) re-admits the node
    with cold caches. *)

val alive : t -> bool

val node_epoch : t -> int
(** Incarnation count: 0 until the first crash is detected, then +1 per
    detected crash.  Mirrors {!Pcc_interconnect.Network.node_epoch}. *)

val crash : t -> unit
(** Fail-stop: clears L2, RAC, producer/consumer tables, MSHR,
    writeback/strike/fallback bookkeeping and all hub-link state; flips
    the shared alive view.  The node's directory and home memory survive
    (battery-backed memory controller).  Raises [Invalid_argument] on a
    machine without a crash schedule. *)

val restart : t -> unit
(** Re-admit a crashed node with cold caches under its new incarnation
    epoch.  Must follow the detection sweep for its crash. *)

val recover_after_crash : t array -> dead:Types.node_id -> will_restart:bool -> unit
(** Machine-wide recovery sweep at crash-detection time, after
    {!Pcc_interconnect.Network.bump_epoch} for [dead]: survivors requeue
    (restart coming) or drop (permanent death) hub frames for the victim
    and purge routing hints, producer bookkeeping and wedged
    transactions referencing it; every directory prunes the victim from
    sharing vectors, rebuilds entries it owned from surviving copies
    (delegated lines are revoked and demoted to the base protocol,
    counted in {!Run_stats}), and re-serves parked requesters that are
    still alive. *)

val surviving_value : t array -> Types.line -> int
(** The freshest value for a line still materialized in home memory or
    any live cache (recovery target; exposed for tests/oracles). *)
