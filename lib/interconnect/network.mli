(** Message transport between node hubs.

    Delivers payloads between nodes over the simulated interconnect,
    charging the paper's network latency per node-to-node leg (100 CPU
    cycles by default, Table 1) and modeling hub port contention: each
    node's ingress and egress ports serialize packets at the system-bus
    bandwidth.  Router-internal contention is {e not} modeled, matching
    §3.1 of the paper.

    Messages between a node and itself are delivered after the local hub
    latency and are not counted as network traffic.

    Packets in flight sit in a slot table (source, destination, an int
    tag, payload, and on crash-capable machines both endpoints' epochs),
    and each delivery is a typed engine event carrying its slot
    ({!Pcc_engine.Simulator.schedule_call_at}): one delivery path serves
    local and remote, plain and epoch-stamped packets, and sending a
    packet allocates nothing beyond the payload the caller built.  The
    fault layer writes its arrival offsets into a buffer the network
    owns.  Deliveries are scheduled at the same moments and in the same
    order as a closure per packet would be, so the schedule is
    unchanged. *)

type 'a t

type latency_mode =
  | Uniform
      (** every remote leg costs exactly [hop_latency] (the paper counts
          "hops" as node-to-node message legs) *)
  | Proportional
      (** a leg costs [hop_latency * router_hops / 2]; differentiates
          intra- and inter-router-group communication *)

type config = {
  hop_latency : int;  (** cycles per remote leg (100 per Table 1) *)
  local_latency : int;  (** hub-internal delivery latency, cycles *)
  min_packet_bytes : int;  (** 32 per §3.1 *)
  port_bytes_per_cycle : int;  (** system-bus bandwidth per CPU cycle *)
  mode : latency_mode;
}

val default_config : config
(** Table 1 values: 100-cycle hops, 16-cycle local latency, 32-byte
    minimum packets, 8 bytes/cycle ports, [Uniform]. *)

val create :
  ?faults:Fault.profile -> Pcc_engine.Simulator.t -> Topology.t -> config -> 'a t
(** [?faults] attaches a chaos layer (see {!Fault}) that may drop,
    duplicate, delay, or reorder remote packets and take links down
    transiently.  Local (src = dst) hub deliveries are never disturbed.
    An all-zero profile is behaviourally identical to no profile. *)

val set_receiver : 'a t -> node:int -> (src:int -> 'a -> unit) -> unit
(** Install the handler invoked when a payload reaches a node.  Must be
    set for every node before traffic is sent to it. *)

val send : 'a t -> src:int -> dst:int -> bytes:int -> 'a -> unit
(** Queue a packet.  [bytes] is the logical payload size; the packet is
    padded to [min_packet_bytes].

    Raises [Invalid_argument] if [src] or [dst] is outside the machine
    and [Failure] with a diagnostic naming both endpoints if no receiver
    was ever installed for [dst] — a packet must never be silently
    misrouted or fail only inside a far-future delivery event. *)

(** {2 Tagged packets}

    The tag column: every packet carries one int beside its source and
    destination, a header field for the layer above (a hub link's
    sequence number or cumulative acknowledgement).  It rides in the
    slot table, so it costs no wire bytes and no allocation; every
    fault-layer copy of a packet carries its tag.  [send] tags 0. *)

val set_tagged_receiver : 'a t -> node:int -> (src:int -> tag:int -> 'a -> unit) -> unit
(** {!set_receiver} for a handler that also reads each packet's tag. *)

val send_tagged : 'a t -> src:int -> dst:int -> bytes:int -> tag:int -> 'a -> unit
(** {!send} with a tag. *)

val fault_stats : 'a t -> Fault.stats option
(** Live counters of the attached chaos layer, if any. *)

(** {2 Fail-stop crash support}

    Allocated only when the fault profile schedules crashes
    ([Fault.crashes <> []]).  Every packet is then stamped with the
    incarnation {e epochs} of both endpoints at send time; a delivery
    whose stamped epochs no longer match the live epochs is stale
    pre-crash traffic and is silently discarded, as are packets to a
    down node and packets emitted by closures armed before their node
    crashed.  The controlling layer (see [Pcc_core.System]) marks nodes
    down at crash time and bumps the victim's epoch at crash
    {e detection} time, so in-flight traffic from the victim keeps
    landing during the detection window and drains away after it. *)

val mark_down : 'a t -> node:int -> unit
(** Raises [Invalid_argument] when the profile schedules no crashes. *)

val mark_up : 'a t -> node:int -> unit

val node_down : 'a t -> node:int -> bool
(** [false] when crash support is off. *)

val bump_epoch : 'a t -> node:int -> unit
(** Start a new incarnation: every packet stamped with an older epoch of
    this node (in either direction) is discarded on delivery. *)

val node_epoch : 'a t -> node:int -> int
(** [0] when crash support is off. *)

val in_flight : 'a t -> int
(** Deliveries scheduled but not yet executed (local and remote; a
    dropped packet is never scheduled and so never counted).  A live
    occupancy gauge for telemetry samplers. *)

val messages_sent : 'a t -> int
(** Remote packets sent so far (local deliveries excluded). *)

val bytes_sent : 'a t -> int
(** Remote bytes on the wire, padding included. *)

val hops_traversed : 'a t -> int
(** Total router hops crossed by all remote packets. *)

val reset_counters : 'a t -> unit
