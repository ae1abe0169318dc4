(** Explicit-state model checker.

    The paper verifies its protocol with Murphi (§2.5): build a small
    formal model, exhaustively enumerate its reachable states, and check
    invariants plus deadlock-freedom in every state.  This module is that
    method, scaled up: {e level-synchronous} breadth-first reachability
    with canonically hashed state deduplication, optional partial-order
    reduction, parallel frontier expansion on a domain pool, and an
    optional disk-spilled visited set for explorations that outgrow
    memory.

    {2 Storage}

    Per state the checker keeps fixed-width data in chunks of about
    1 MB, never a boxed value: the 16-byte digest and one int packing
    the parent's id with the interned label of the transition that first
    reached it, under an open-addressing int index.  Frontier states are
    kept as their [Marshal] images (without sharing) and unpacked only
    when expanded, so a state must survive that round trip unchanged
    ({!repack}).

    {2 Determinism}

    The exploration is level-synchronous: every state of a BFS level is
    expanded (in parallel when [jobs > 1]), then the results are merged
    sequentially in canonical-hash order.  Verdicts, statistics, and
    counterexample traces are therefore byte-identical for every [jobs]
    setting and for spilled vs in-memory visited sets.  When several
    violations exist at the minimal depth, the one whose state has the
    smallest canonical hash is reported — the {e minimal counterexample
    in canonical form}. *)

module type MODEL = sig
  type state

  val initial : state list

  val successors : state -> (string * state) list
  (** Enabled transitions as (label, next-state) pairs.  A state with no
      successors must satisfy [is_quiescent] or it is reported as a
      deadlock.  Must be pure: the checker calls it concurrently from
      several domains when [jobs > 1]. *)

  val por : (state -> (string * state) list list) option
  (** Optional partial-order reduction.  When present, [f state] returns
      [successors state] partitioned into {e independence classes} under
      {e strict component priority}: the checker expands only the first
      non-empty group, so later groups run exclusively in states where
      every earlier group is exhausted.  This is sound when (a) each
      group acts on a disjoint sub-state and commutes with every other
      group, (b) every invariant reads only one group's sub-state, and
      (c) each group's component is terminating — from every reachable
      sub-state it eventually runs out of transitions, so later groups
      are never ignored forever.  Group order must be a fixed function of
      the group's identity (a component index), not of the state; the
      full soundness argument is in DESIGN.md ("Verification").  The
      concatenation of the groups must equal [successors state] up to
      order.  [None] disables reduction. *)

  val invariants : (string * (state -> bool)) list
  (** Named predicates that must hold in {e every} reachable state.
      Must be pure (see {!successors}). *)

  val is_quiescent : state -> bool
  (** True for legitimate terminal states (all work completed). *)

  val encode : state -> string
  (** Canonical encoding used for deduplication; equal (or symmetric,
      when the model canonicalizes over a symmetry group) states must
      encode equally.  Must be pure (see {!successors}). *)

  val pp : Format.formatter -> state -> unit
end

type stats = {
  states_explored : int;
  transitions : int;
  max_depth : int;
  complete : bool;  (** false if the exploration hit [max_states] *)
}

type 'state outcome =
  | Ok of stats
  | Invariant_violation of {
      invariant : string;
      state : 'state;
      trace : string list;  (** transition labels from an initial state *)
      stats : stats;
    }
  | Deadlock of { state : 'state; trace : string list; stats : stats }

val run :
  (module MODEL with type state = 's) ->
  ?max_states:int ->
  ?jobs:int ->
  ?spill:string ->
  unit ->
  's outcome
(** Level-synchronous breadth-first exhaustive exploration.

    - [max_states] bounds the exploration (default 2_000_000); the bound
      is applied at level granularity so verdicts stay deterministic.
    - [jobs] expands each frontier level on up to [jobs] domains
      (default 1 = sequential); results are byte-identical at every
      setting.
    - [spill] names a scratch directory: the visited set is kept as a
      sorted 16-byte-digest run file, and counterexample predecessor
      edges go to an append-only log.  A level's distinct successors are
      packed as expansion produces them and merged into the run once,
      in digest order, when the level closes; memory stays bounded by
      two levels of packed states instead of the whole reachable
      space. *)

val repack : 'a -> 'a
(** [repack st] is [st] after the round trip every state takes between
    being generated and being expanded: stored as its [Marshal] image
    without sharing, then read back.  A model whose behaviour does not
    survive it, for example a state holding a closure or a transition
    that depends on physical sharing between two parts of a state,
    cannot be checked. *)

val pp_outcome :
  (Format.formatter -> 's -> unit) -> Format.formatter -> 's outcome -> unit
