(** Abstract model of the coherence protocol for exhaustive checking.

    Mirrors the simulator's protocol (base write-invalidate directory
    protocol plus delegation and speculative updates) for a small
    configuration: [lines] independent cache lines homed at node 0,
    [nodes] processors each performing up to [max_ops_per_node]
    nondeterministically chosen loads/stores per line, a network of
    bounded FIFO channels, one per (source, destination) pair, whose
    head-of-line messages are delivered in any interleaving, and
    nondeterministic cache evictions, delayed interventions, capacity
    undelegations, and hint evictions.  Speculative updates depend on the
    per-pair order: an update overtaken by a later invalidation from the
    same producer would strand a stale copy.  This corresponds to the
    paper's extension of the DASH Murphi model (§2.5).

    Checked invariants (instantiated per line, prefixed ["L<l>:"] when
    [lines > 1]):
    - {e value coherence}, the model's own: every load returns a write
      each node observes in a monotone order, with writes globally
      serialized (the model's analogue of sequential consistency per
      location);
    - {e single writer exists}, {e consistency within the directory} and
      {e delegation consistency}: [Pcc_core.Dir_invariants], the one
      statement the simulator's auditor and drain check use too, read
      through a line view filled from the state at the event-boundary
      strength.  The network answers "may this still be in transit": an
      in-flight transfer ack, invalidation, update, delegation or
      undelegation.

    The packed model canonicalizes states over the full symmetry group —
    all permutations of the non-home nodes applied globally, composed
    with all permutations of the (identical) lines — and, when
    [lines > 1], exposes per-line transition groups to the checker for
    partial-order reduction.

    [bug] injects a deliberate protocol error so tests can confirm the
    checker actually detects violations. *)

type bug =
  | Skip_invals_on_delegate
      (** the home delegates without invalidating the old sharers *)
  | No_poison_on_inval
      (** a pending load caches possibly stale data after an
          invalidation overtook it *)
  | Updates_without_resharing
      (** pushed consumers are not re-added to the sharing vector, so the
          next write misses their RAC copies *)

(** Which memory operations each node may issue.

    [Symmetric] is the classic Murphi setup: every node
    nondeterministically loads or stores, and canonicalization quotients
    over all permutations of the non-home nodes and of the lines.

    [Producer_consumer] is the paper's sharing pattern: line [l] has one
    designated producer — node [1 + l mod (nodes-1)] — that only
    stores, and every other node (the home included) only loads.  It
    still drives delegation and speculative updates, but the per-line
    space shrinks enough that multi-line explorations at 4-5 nodes stay
    exhaustive.  Producers are distinguishable by behaviour, so
    canonicalization then only permutes the consumer nodes and only
    interchanges lines with the same producer. *)
type workload = Symmetric | Producer_consumer

type params = {
  nodes : int;  (** 2..5 is practical; 7 is the hard cap *)
  lines : int;  (** independent lines; the state space is the product *)
  workload : workload;
  max_ops_per_node : int;  (** per line *)
  enable_delegation : bool;
  enable_updates : bool;
  channel_capacity : int;
      (** max in-flight messages per (src, dst) channel, per line.
          Unbounded channels make the space infinite (retries can deposit
          hint messages faster than they drain); bounding them — as
          Murphi DASH models do — keeps exploration finite while
          preserving all behaviours up to that concurrency. *)
  bug : bug option;
}

val default_params : params
(** 3 nodes, 1 line, symmetric workload, 2 ops each, delegation and
    updates on, no bug. *)

val make : ?por:bool -> params -> (module Checker.MODEL)
(** [por] (default true) controls whether the model offers per-line
    transition groups for partial-order reduction; it only has an effect
    when [params.lines > 1].  [por:false] forces full expansion — useful
    for cross-checking that reduction preserves verdicts.

    @raise Invalid_argument when [nodes] is outside 2..7, [lines < 1],
    [max_ops_per_node < 0], or a value the checker's one-byte slots must
    hold could exceed 191: versions ([nodes * max_ops_per_node]) or
    in-flight messages ([channel_capacity * nodes * nodes], plus the
    [4 * nodes + 8] one transition may post before its successor is
    dropped for overfilling a channel). *)

(** The same transition system with an inspectable (single-line) state,
    for drivers that steer the model along one specific execution instead
    of exploring exhaustively — chiefly the differential oracle, which
    replays a simulator run's serialized operations through the model and
    compares observables after each step.

    Transition labels are those reported by the checker:
    ["n<i>:issue-load-…"], ["n<i>:issue-store-…"], spontaneous
    ["n<i>:downgrade"]/["n<i>:evict-…"]/["n<i>:undelegate"]/
    ["n<i>:drop-hint"], and deliveries ["deliver[s->d]:kind"] (with a
    ["#k"] suffix for nondeterministic alternatives).  Multi-line models
    prefix each label with ["L<l>:"]. *)
module Step : sig
  type state

  val max_value : int
  (** The largest value a state's two-byte slots hold. *)

  val initial : params -> state
  (** @raise Invalid_argument when [nodes] exceeds 8, or when versions
      ([nodes * max_ops_per_node]) or in-flight messages
      ([channel_capacity * nodes * nodes]) could exceed {!max_value}. *)

  val successors : params -> state -> (string * state) list
  (** Every enabled labeled transition from [state]. *)

  val invariants : (string * (state -> bool)) list
  (** Same invariants the exhaustive checker uses. *)

  val done_count : state -> int -> int
  (** Operations committed by a node so far. *)

  val last_seen : state -> int -> int
  (** Highest store version a node has observed. *)

  val has_pending : state -> int -> bool

  val store_count : state -> int
  (** Total stores committed (= the last version handed out). *)

  val net_size : state -> int
  (** Messages in flight. *)

  val dir_stable : state -> bool
  (** The directory is not in a transient Busy state. *)

  val final_value : state -> int option
  (** The authoritative value of the line: home memory when the home owns
      it, otherwise the owner's cached (or delegated-RAC) copy; [None]
      only mid-handshake when no resting copy exists. *)

  val error : state -> string option
  (** The recorded coherence violation, if the run hit one. *)

  val pp : Format.formatter -> state -> unit
end

(** Test hooks for the canonicalization properties: permuting node ids
    (globally) or line ids must not change [encode]; states with equal
    encodings must agree on every symmetry-invariant observable. *)
module Sym : sig
  type mstate

  val initial : params -> mstate

  val successors : params -> mstate -> (string * mstate) list
  (** Apply it to [params] once: that builds the label tables. *)

  val encode : params -> mstate -> string
  (** The packed model's canonical encoding. *)

  val reference_encode : params -> mstate -> string
  (** [encode] built the plain way: per permutation, rename the whole
      state with {!rename_nodes}, take each line's slots as a string,
      sort the interchangeable lines and concatenate; keep the least.
      Slow; [encode], which renames into one buffer and orders the lines
      in place, must match it byte for byte. *)

  val node_permutations : int -> int array list
  (** All permutations of nodes [1..n-1] (home fixed), as arrays mapping
      old id to new id. *)

  val rename_nodes : int array -> mstate -> mstate
  (** Apply one node permutation globally (to every line). *)

  val permute_lines : int array -> mstate -> mstate

  val semantic_sig : mstate -> string
  (** A symmetry-invariant projection of the observable facts (directory
      states, memory/version counters, per-node commit counts...).
      [encode a = encode b] must imply [semantic_sig a = semantic_sig b]. *)
end
