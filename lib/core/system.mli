(** Whole-machine assembly and workload execution.

    Builds N nodes over a fat-tree interconnect, drives one program (a
    list of {!Types.op}) per processor to completion, and gathers the
    run-level results the evaluation reports: execution cycles, remote
    misses, network messages and bytes, and coherence-check outcomes.

    The coherence state machine itself is pluggable: [Config.protocol]
    selects a {!Protocol} backend (the paper's adaptive directory
    protocol, or bus-snooping MSI/MESI), and everything in this module —
    the run loop, barriers, watchdog, observers, gauges, flight
    recorder, stall reports — works identically over any backend.  Only
    the fail-stop crash machinery and the [Node]-typed accessors are
    adaptive-specific.

    Every backend emits its events once, into the machine's {!Probe}:
    the flight ring records each one and the [on_*] observers below
    subscribe there.  The ring is the machine's only recent-event
    window — stall reports and oracle failures carry its last events. *)

type t

val create : config:Config.t -> unit -> t
(** Raises [Invalid_argument] for a crash-capable fault profile on a
    snooping backend (crash recovery is directory-protocol machinery). *)

val sim : t -> Pcc_engine.Simulator.t

val config : t -> Config.t

val protocol : t -> Types.protocol
(** Which backend this machine runs. *)

val node : t -> Types.node_id -> Node.t
(** Adaptive backend only (raises [Invalid_argument] otherwise): the
    concrete node for adaptive-specific auditing ({!Pcc_oracle}). *)

val nodes : t -> Node.t array
(** Adaptive backend only, like {!node}. *)

val l2_entry : t -> node:Types.node_id -> line:Types.line -> L2.entry option
(** Backend-agnostic, side-effect-free cache-state peek: M/E map to
    [Exclusive] (dirty/clean), S to [Shared], I to [None]. *)

val iter_l2 : t -> node:Types.node_id -> (Types.line -> L2.entry -> unit) -> unit
(** Visit every resident line of one node's cache (differential tests). *)

val node_alive : t -> Types.node_id -> bool
(** False while a node is fail-stopped (between a scheduled crash and its
    restart, or forever when no restart is scheduled). *)

val stats : t -> Run_stats.t

val network_messages : t -> int

val network_bytes : t -> int

val fault_stats : t -> Pcc_interconnect.Fault.stats option
(** Chaos-layer injection counters, when a fault profile is configured. *)

val submit :
  t -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line ->
  on_commit:(unit -> unit) -> unit
(** Issue a single operation directly (fine-grained control for examples
    and tests). *)

val checker : t -> Sc_check.t
(** The machine's per-location SC checker (§2.5), fed by every commit:
    its violations, reports, commit count and, when kept, per-line
    history. *)

val check_invariants : t -> string list
(** Run the machine-wide structural invariants; call on a quiesced
    system. *)

(** {2 Flight recorder (always-on post-mortem)} *)

val flight : t -> Flight_ring.t
(** The machine-wide flight recorder, owned by the machine's {!Probe}.
    Always running: every message send/receive/retransmission, issue,
    commit, directory state change, protocol decision note and crash
    phase lands in its ring, with an allocation-free record path. *)

val recent : t -> Flight_ring.event list
(** The flight ring's last 64 events, oldest first: the window stall
    reports and oracle failures carry. *)

val write_flight_dump :
  ?run:Pcc_stats.Jsonl.t -> ?failures:string list -> t -> path:string -> reason:string ->
  unit
(** Write the retained flight window to [path] (atomic temp+rename, one
    JSON line; decode with [pcc_trace --flight]); [run] and [failures] as
    in {!Flight_ring.write_dump}.  The one failure-dump writer: the
    oracle's checked runs write their artifact with it, and [pcc_sim
    --flight-dump] its stall or exception post-mortem.  A system never
    writes files on its own. *)

(** {2 Observers (online auditors, telemetry, trace tooling)}

    Each stream is the machine's {!Probe} subscriber list for that event
    kind: callbacks run in registration order, right after the event is
    written into the flight ring.  Observers must not submit operations
    or mutate protocol state; raising aborts the run. *)

val on_post_event : t -> (unit -> unit) -> unit
(** Called after every executed simulator event (see
    {!Pcc_engine.Simulator.on_event}).  Observers must not schedule
    events or mutate protocol state; raising aborts the run. *)

val on_commit : t -> (Probe.commit_event -> unit) -> unit
(** Observe every committed load/store on every node. *)

val on_message :
  t ->
  (time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit) ->
  unit
(** Observe every coherence message sent by any node. *)

val on_issue :
  t ->
  (time:int -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> unit) ->
  unit
(** Observe every processor operation submitted on any node, before its
    cache lookup.  Paired with {!on_commit} this brackets each
    transaction's lifetime (telemetry spans). *)

val on_recv :
  t ->
  (time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit) ->
  unit
(** Observe every coherence message as it is delivered to a node — the
    receive-side mirror of {!on_message}. *)

val on_retransmit :
  t -> (time:int -> src:Types.node_id -> dst:Types.node_id -> unit) -> unit
(** Observe every hub-link retransmission (hardened mode only). *)

(** One crash's life cycle, as seen by {!on_crash} observers:
    [Crash_down] when the node fail-stops (volatile state lost, links
    down), [Crash_detected] after the configured detection delay (epoch
    bumped, machine-wide recovery sweep done), [Crash_restarted] when a
    scheduled restart re-admits the node cold. *)
type crash_phase = Crash_down | Crash_detected | Crash_restarted

val on_crash :
  t -> (time:int -> node:Types.node_id -> phase:crash_phase -> unit) -> unit
(** Observe every fail-stop crash event from the fault profile's crash
    schedule.  [Crash_detected] fires after the recovery sweep for that
    crash has completed.  Observers compose in registration order. *)

(** {2 Occupancy gauges (telemetry samplers)}

    Point-in-time, side-effect-free reads of live machine state; safe to
    call from an {!on_post_event} observer. *)

val in_flight_txns : t -> int
(** Nodes with an outstanding processor transaction. *)

val delegated_lines : t -> int
(** Producer-table entries held across the machine. *)

val rac_occupancy : t -> int
(** Valid RAC entries across the machine. *)

val rac_capacity : t -> int
(** Total RAC entries across the machine. *)

val link_in_flight : t -> int
(** Unacknowledged hub-link packets across all nodes (0 when the link is
    in pass-through mode). *)

val network_in_flight : t -> int
(** Network deliveries scheduled but not yet executed. *)

val event_queue_depth : t -> int
(** Pending simulator events right now. *)

val retransmits_by_link : t -> (Types.node_id * Types.node_id * int) list
(** Cumulative hub-link retransmissions as [(src, dst, count)], links
    with at least one retransmission. *)

(** {2 Stall reports}

    When a run fails to drain — time limit, event limit, or the progress
    watchdog declaring livelock — the result carries a structured report
    of what was still in flight instead of a bare outcome. *)

type in_flight = {
  stalled_node : Types.node_id;
  stalled_kind : Types.op_kind;
  stalled_line : Types.line;
  stalled_since : int;  (** cycle the transaction was submitted *)
  stalled_timeouts : int;  (** completion timeouts it had taken *)
}

type stall_report = {
  stall_outcome : Pcc_engine.Simulator.outcome;
  stall_unfinished : int;  (** processors that had not finished their program *)
  stall_in_flight : in_flight list;
  stall_recent : Flight_ring.event list;
      (** {!recent} when the run ended, in every mode (rendered with
          {!Flight_ring.pp_event}) *)
}

val pp_stall_report : Format.formatter -> stall_report -> unit

(** Results of a complete run. *)
type result = {
  config : Config.t;
  cycles : int;  (** cycle at which the last processor finished *)
  outcome : Pcc_engine.Simulator.outcome;
  stats : Run_stats.t;
  network_messages : int;
  network_bytes : int;
  violations : int;
  invariant_errors : string list;
  updates_consumed : int;  (** pushed updates later read by a consumer *)
  updates_wasted : int;
  rac_pressure : int;
      (** machine-wide RAC capacity events (evictions + pinned-set fill
          refusals); zero means a larger RAC would have run identically *)
  deledc_pressure : int;
      (** machine-wide delegate-cache capacity events; zero means a
          larger delegate cache would have run identically *)
  hot_lines : (Types.line * Run_stats.line_activity) list;
      (** the 10 busiest lines by misses + invalidations + delegation
          churn, busiest first *)
  stall : stall_report option;
      (** [Some] exactly when the run did not quiesce ([outcome] not
          [Drained] or a processor never finished) *)
}

val run_stream : ?max_events:int -> t -> Op_stream.t -> result
(** Execute one streaming program per node from a packed-op feed (the
    feed's node count must equal the machine's) until every processor
    finishes and the system drains.  This is the primitive run loop:
    {!run_programs} is a thin wrapper over it, and trace-fed or
    generator-fed runs of 10^8+ events ride it allocation-free per op.
    The feed is pulled exactly once per op in program order; crash
    recovery replays the interrupted op from the run loop's own copy,
    never by rewinding the feed. *)

val run_programs : ?max_events:int -> t -> Types.op list array -> result
(** Execute one program per node (the array length must equal the node
    count) until every processor finishes and the system drains.
    [Barrier] operations synchronize all processors; each barrier id must
    name a distinct synchronization point (never reused later in the
    programs), which the workload generator guarantees.

    With a crash schedule configured, a victim's program pauses at the
    crash: the interrupted operation is abandoned (its effects, if any,
    count as lost with the node) and re-dispatched cold when the node
    restarts.  A victim that never restarts abandons the rest of its
    program at detection time and is excluded from barrier participation,
    so survivors can still finish; such runs may also legitimately fail
    to drain when the dead node's home memory is required. *)

val run :
  ?max_events:int -> config:Config.t -> programs:Types.op list array -> unit -> result
(** [create] + [run_programs]. *)

val pp_result : Format.formatter -> result -> unit
