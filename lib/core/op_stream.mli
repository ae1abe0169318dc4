(** Packed streaming operation feed — the workload side of the
    allocation-gated hot path.

    A feed hands {!System.run_stream} one processor operation at a time
    as a packed int: low two bits are the tag ({!tag_compute},
    {!tag_load}, {!tag_store}, {!tag_barrier}), the rest the payload
    (compute cycles, packed {!Types.line}, or barrier id).
    {!end_of_stream} ([-1]) ends a node's program.  Pulls must not
    allocate in steady state; that is what lets 10^8+-event trace and
    generator runs hold the {!Types.op}-free budget gated by
    [test_alloc].

    Feeds are single-use: a node's ops are pulled exactly once, in
    program order (the run loop never pulls ahead or rewinds — crash
    recovery re-dispatches the last pulled op from its own copy). *)

type t = {
  nodes : int;  (** programs in the feed; must equal the machine's node count *)
  next : Types.node_id -> int;
      (** next packed op for one node, or {!end_of_stream} *)
}

val end_of_stream : int
(** [-1]; every packed op is non-negative. *)

(** {2 Packing} *)

val tag_compute : int

val tag_load : int

val tag_store : int

val tag_barrier : int

val compute : int -> int
(** Cycles are clamped at 0 (as the run loop always did), keeping every
    packed op non-negative. *)

val access : Types.op_kind -> Types.line -> int

val barrier : int -> int

val pack_op : Types.op -> int

val tag : int -> int

val payload : int -> int

val unpack_op : int -> Types.op
(** Inverse of {!pack_op} (allocates; tooling and tests, not the hot
    path). *)

(** {2 Epoch-at-a-time feeds} *)

val stream_of_epochs :
  nodes:int -> epochs:int -> capacity:int ->
  refill:(int -> int -> int array -> int) -> unit -> t
(** A feed from a per-epoch refill function: [refill node epoch buf]
    writes packed ops into [buf] (at most [capacity]) and returns the
    count.  Each node's cursor refills its own buffer when the previous
    epoch is exhausted, so a pull is an array read and a feed holds one
    epoch per node whatever the run's length.  Every epoch must emit at
    least one op per node (the generators end epochs with a barrier).
    The paper apps ([Gen]) and the datacenter generators ([Dcgen])
    share this cursor. *)

(** {2 Bridging hand-written programs} *)

val of_programs : Types.op list array -> t
(** A feed replaying per-node programs someone wrote out as lists (the
    litmus corpus, tests, [System.run_programs]) in order —
    allocation-free per pull once built.  Generated workloads stream
    through {!stream_of_epochs} instead. *)

val to_programs : t -> Types.op list array
(** Drain a feed into materialized programs (tooling: text-trace export,
    oracle replay).  Do not call on unbounded generator feeds. *)
