(** Workload-generation machinery.

    The simulated applications are expressed as {e sharing structures}:
    a set of cache lines, each with a per-phase producer and consumer set,
    executed as a sequence of barrier-separated epochs in which producers
    write and consumers then read.  This captures exactly the access
    interleaving the paper's mechanisms react to (who writes, who reads,
    how many distinct readers, how stable the producer is), which is what
    lets synthetic programs stand in for the original binaries — see
    DESIGN.md for the substitution argument. *)

open Pcc_core

(** One shared line's role in the application. *)
type line_role = {
  line : Types.line;
  producer_of_phase : int -> Types.node_id;
      (** which node writes the line during a given phase; a producer
          that changes across phases models migrating work (Barnes'
          octree rebuild) or unstable multi-writer lines (CG's false
          sharing, with one-epoch phases) *)
  consumers_of_phase : int -> Types.node_id list;
      (** nodes that read each update (the producer is filtered out) *)
  writes_per_epoch : int;  (** length of the producer's write burst *)
  reads_per_epoch : int;  (** reads per consumer per epoch *)
}

type app_spec = {
  name : string;
  nodes : int;
  phases : int;
  epochs_per_phase : int;
  lines : line_role list;
  private_lines_per_node : int;
      (** per-node local working set (homed at the node itself) *)
  private_accesses_per_epoch : int;
  private_write_fraction : float;
  compute_per_epoch : int;
      (** local computation cycles between communication steps *)
  seed : int;
}

val random_spec : nodes:int -> seed:int -> app_spec
(** A small random sharing structure (a few shared lines, three phases
    with freshly drawn producers and consumer sets, a light private mix)
    for differential and fuzz testing.  A pure function of
    [(nodes, seed)], so a failing seed is a complete reproducer.
    Requires [nodes >= 2]. *)

(** {2 Streaming}

    A spec runs as a stream, one epoch per node at a time.  Each epoch
    of node [n] is: compute (half the budget, plus jitter), the write
    burst, half the private accesses, barrier [2e+1], the reads, the
    other half, compute, barrier [2e+2], where [e] counts epochs across
    phases.  Jitter and private accesses come from the node's own
    generator, seeded [seed + 7919 * n]. *)

type plan
(** A spec compiled once: for each phase and node, the packed stores of
    the node's write burst and the packed loads of its reads, in role
    order, and the size of the largest epoch.  Immutable, so passes in
    several domains may share it. *)

val compile : app_spec -> plan
(** Evaluates each role's producer and consumers once per phase.
    Raises [Invalid_argument] unless [nodes], [phases] and
    [epochs_per_phase] are positive. *)

val accesses : plan -> int
(** Memory accesses of one pass, counted from the plan without
    generating it. *)

val stream : plan -> Op_stream.t
(** A fresh pass.  It allocates one epoch's buffer and one generator
    per node; its refills and pulls allocate nothing, so a pass holds
    the same memory whatever the run's length. *)

val programs : app_spec -> Types.op list array
(** Drain one pass of [compile spec] into lists (tests, the oracle's
    replay, text export).  Deterministic for a given spec. *)

val total_ops : Types.op list array -> int
(** Total memory accesses across all programs (for reporting). *)

val shared_line : home:Types.node_id -> int -> Types.line
(** [shared_line ~home i] is the [i]-th shared line homed at [home];
    shared and private index spaces are disjoint. *)

val private_line : node:Types.node_id -> int -> Types.line

(** Pick consumer sets with a target size distribution. *)
module Consumers : sig
  val ring_neighbor : nodes:int -> Types.node_id -> Types.node_id list
  (** The single next neighbor (Ocean-style boundary exchange). *)

  val sample :
    rng:Pcc_engine.Rng.t ->
    nodes:int ->
    exclude:Types.node_id ->
    count:int ->
    Types.node_id list
  (** [count] distinct random nodes other than [exclude]. *)

  val sample_dist :
    rng:Pcc_engine.Rng.t ->
    nodes:int ->
    exclude:Types.node_id ->
    dist:(int * float) list ->
    Types.node_id list
  (** Sample the set size from a (size, weight) distribution, then the
      members uniformly. *)
end
