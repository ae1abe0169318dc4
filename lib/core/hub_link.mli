(** Reliable, per-link FIFO delivery over an unreliable interconnect.

    Each hub stamps outgoing remote packets with a per-destination
    sequence number and keeps them until acknowledged, retransmitting
    with bounded exponential backoff; the receiving hub suppresses
    duplicates, reassembles per-link order (holding out-of-order frames
    until the gap fills), and returns cumulative acknowledgements.  On
    top of a network that drops, duplicates, delays, or reorders packets
    this restores exactly-once, per-link in-order delivery — the network
    model the coherence protocol above was verified against.

    A frame is the caller's payload itself: its header (the sequence
    number, or an acknowledgement's cumulative [upto]) rides in the
    packet's int tag ({!Pcc_interconnect.Network.send_tagged}), so no
    frame record is built around a payload.  An acknowledgement's packet
    carries the payload that prompted it as a filler that is never
    delivered, and is charged [ack_bytes] on the wire.

    Sequence numbers are dense per link and acknowledgements cumulative,
    so the unacknowledged frames of a link are always one window of
    seqs, from [base] up to but excluding [next_seq]: their payloads sit
    in a seq-indexed ring (re-sent as is), and an acknowledgement just
    advances [base].  Payloads held for reassembly sit in a seq-tagged
    ring on the receiving side.  Both rings start at 16 slots on first
    use and double when a window outgrows them.  The retransmit timer is
    a cancellable typed engine event
    ({!Pcc_engine.Simulator.schedule_timer}) whose argument packs the
    destination, the seq and the attempt count; its handle sits in the
    send ring beside the payload, and the acknowledgement that releases
    a frame cancels its timer.  So sending, acknowledging and
    retransmitting a frame allocate nothing, and an acknowledged frame
    leaves no event behind.  The crash surgery below leaves queued
    timers alone: the timer of a frame still unacked at a realignment
    stays queued and may retransmit the frame re-sent at its seq.

    With [reliable = false] (no fault injection configured) the layer is
    a strict pass-through: no sequence tracking, no acknowledgement
    traffic, no timers — packet counts, bytes, and delivery schedule are
    identical to using the network directly.  Hub-local (src = dst)
    messages always bypass the machinery: the in-hub path cannot lose
    packets. *)

type 'a t

val create :
  sim:Pcc_engine.Simulator.t ->
  network:'a Pcc_interconnect.Network.t ->
  id:int ->
  nodes:int ->
  reliable:bool ->
  rto:int ->
  rto_cap:int ->
  ack_bytes:int ->
  on_retransmit:(dst:int -> unit) ->
  on_duplicate:(unit -> unit) ->
  deliver:(src:int -> 'a -> unit) ->
  'a t
(** Builds the link endpoint for node [id] and installs it as the
    network receiver for that node.  [rto] is the initial retransmission
    timeout; backoff doubles per attempt up to [rto_cap].  [ack_bytes]
    is the wire size charged for acknowledgement frames.
    [on_retransmit]/[on_duplicate] fire once per retransmission and per
    suppressed duplicate (statistics hooks).  Raises [Invalid_argument]
    beyond 64 nodes (the timer packs the destination into 6 bits). *)

val send : 'a t -> dst:int -> bytes:int -> 'a -> unit
(** Transmit a payload; in reliable mode it is retransmitted until the
    destination hub acknowledges it. *)

val in_flight : 'a t -> int
(** Unacknowledged outgoing packets across all links (0 in pass-through
    mode). *)

val exists_unacked : 'a t -> peer:int -> f:('a -> bool) -> bool
(** Is any frame to [peer] still awaiting acknowledgement whose payload
    satisfies [f]?  Always false in pass-through mode.  The recovery
    sweep uses this to tell whether a survivor still carries a
    directory-resolving reply for a line whose home crashed. *)

val retransmits_by_link : 'a t -> (int * int) list
(** [(dst, count)] for every outgoing link that has retransmitted at
    least once, in destination order (empty in pass-through mode). *)

(** {2 Fail-stop crash surgery}

    Used by the crash/recovery layer ({!Pcc_core.System}); no-ops worth
    avoiding in pass-through mode since crash profiles imply reliable
    links. *)

val reset_all : 'a t -> unit
(** Crash of the owning node: drop all sequence counters (every link
    restarts at seq 0), unacked frames (killing their retransmission
    chains) and reassembly buffers. *)

val drop_peer : 'a t -> peer:int -> unit
(** The peer died permanently: abandon frames queued for it so their
    retransmission chains die and the simulation can drain.  The unacked
    window empties; sequence numbering to the peer carries on. *)

val requeue_peer : 'a t -> peer:int -> droppable:('a -> bool) -> unit
(** The peer crashed but will restart with a zeroed hub: realign both
    directions of the link to sequence 0 and re-send every unacked frame
    whose payload is not [droppable], in order, through the normal
    reliable path (fresh epoch stamps, so the frames survive until the
    restarted peer receives them).  A payload is droppable when its
    sender never relied on its delivery and the new incarnation would
    act on it without the bookkeeping recovery dropped. *)

val peer_epoch : 'a t -> peer:int -> int
(** The peer's current incarnation epoch ({!Pcc_interconnect.Network.node_epoch}). *)

val peer_down : 'a t -> peer:int -> bool
