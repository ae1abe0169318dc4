(** The bus-snooping MSI/MESI protocol as an exhaustively checkable
    model: an interpreter of the {!Pcc_core.Mesi} table the simulator's
    {!Pcc_core.Snoop} backend reads.

    The shared bus serializes transactions, so the model takes each bus
    transaction as one atomic step — the standard reduction for snooping
    protocols: the requester's access is {!Pcc_core.Mesi.request}, every
    other cache applies its reaction from the command's row
    ({!Pcc_core.Mesi.react}: downgrade or invalidate, supply its copy,
    write its dirty word home), and the
    requester installs {!Pcc_core.Mesi.fill}.  A write miss therefore
    lets an owner's dirty word die with its copy, exactly as the
    simulator does.  Nondeterminism comes from each node's choice of
    operation, target line, and spontaneous evictions.  Each copy is a
    (table state, value) pair, an I copy's value is zeroed, and a state
    is encoded as fixed-width bytes.

    Under that atomicity the protocol's contracts become plain state
    invariants, checked in every reachable state: the table's per-line
    invariants (single-writer, shared-matches-memory, MSI-has-no-E), plus
    {e latest value materialized} (the newest store version lives in the
    E/M copy when one exists, in home memory otherwise) and per-node
    observation monotonicity.  Transition labels are prefixed ["L<l>:"]
    when [lines > 1]. *)

type params = {
  nodes : int;  (** 2..5 is practical *)
  lines : int;  (** independent lines; the state space is the product *)
  variant : Pcc_core.Types.protocol;  (** [Msi] or [Mesi] *)
  max_ops_per_node : int;  (** per line *)
  fault : Pcc_core.Config.fault option;
      (** a planted fault, applied to the table as the simulator applies
          it ({!Pcc_core.Mesi.make}) *)
}

val default_params : params
(** 3 nodes, 1 line, MSI, 2 ops each, no fault. *)

val make : ?por:bool -> params -> (module Checker.MODEL)
(** [por] (default true) exposes per-line transition groups for
    partial-order reduction; it only has an effect when
    [params.lines > 1].

    @raise Invalid_argument when [nodes] is outside 2..5, [lines < 1],
    [nodes * max_ops_per_node] exceeds 255, [variant] is [Adaptive], or
    [fault] is not a snooping-protocol fault. *)
