(** The machine's one event sink.

    Every protocol event a backend observes — message send and receive,
    processor issue and commit, hub-link retransmission, protocol
    decision note — is emitted here exactly once.  Each emitter writes
    the event into the machine's {!Flight_ring} first (allocation-free,
    always on) and then calls that kind's subscribers in registration
    order, so with nobody subscribed watching costs one ring write.  A
    commit is also fed, between the two, to the machine's {!Sc_check}:
    every run checks per-location sequential consistency with no
    subscriber and no allocation.

    {!System} creates one probe per machine and hands it to the backend,
    which has no hook surface of its own; {!System}'s [on_message],
    [on_recv], [on_issue], [on_commit] and [on_retransmit] register
    straight into it.  Crash phases are not emitted here: {!System} is
    their only emitter and keeps its own list.

    Subscribers must not submit operations or mutate protocol state; one
    may raise to abort the run (the event is already in the ring). *)

(** A committed processor operation.  [c_value] is the value returned to
    the processor — for stores, the globally unique version written. *)
type commit_event = {
  c_node : Types.node_id;
  c_kind : Types.op_kind;
  c_line : Types.line;
  c_value : int;
  c_started : int;  (** cycle the operation was submitted *)
  c_time : int;  (** cycle it committed *)
  c_miss : Types.miss_class option;
      (** how the miss was serviced; [None] when the local L2 satisfied
          the operation entirely *)
}

type t

val create : sim:Pcc_engine.Simulator.t -> nodes:int -> t
(** A sink over a fresh {!Flight_ring} (default capacity) and a fresh
    {!Sc_check} for [nodes] processors, stamping every event with
    [sim]'s clock. *)

val flight : t -> Flight_ring.t

val checker : t -> Sc_check.t

(** {2 Subscribing} *)

val on_send :
  t -> (time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit) -> unit
(** Every coherence message as its sender hands it to the hub. *)

val on_recv :
  t -> (time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit) -> unit
(** Every coherence message as the receiving hub delivers it, before the
    protocol reacts to it. *)

val on_issue :
  t ->
  (time:int -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> unit) ->
  unit
(** Every processor operation as it is submitted, before any cache
    lookup. *)

val on_commit : t -> (commit_event -> unit) -> unit
(** Every committed load/store, after the commit's cache effects and the
    checker's verdict but before the processor's continuation runs. *)

val on_retransmit :
  t -> (time:int -> src:Types.node_id -> dst:Types.node_id -> unit) -> unit
(** Every hub-link retransmission (hardened mode only). *)

(** {2 Emitting (backends)} *)

val send : t -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit

val recv : t -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit

val issue : t -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> unit

val commit :
  t ->
  node:Types.node_id ->
  kind:Types.op_kind ->
  line:Types.line ->
  value:int ->
  started:int ->
  miss:Types.miss_class option ->
  unit
(** Ring, then {!Sc_check.commit}, then subscribers; the {!commit_event}
    record is built only when someone subscribed. *)

val retransmit : t -> src:Types.node_id -> dst:Types.node_id -> unit

val note : t -> node:Types.node_id -> code:int -> line:Types.line -> arg:int -> unit
(** A protocol decision point ({!Flight_ring.k_note} with a note code);
    ring only, no subscribers. *)
