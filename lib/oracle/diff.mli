(** Differential replay of a simulator run through the model checker.

    The simulator and {!Pcc_mcheck.Protocol_model} implement the same
    protocol twice, independently.  This driver connects them: after a
    simulated run, the machine's {!Pcc_core.Sc_check} has already
    established a legal serial order per line (stores in version order,
    each load attached to the store it observed).  We replay that serial
    order through the model's transition system
    ({!Pcc_mcheck.Protocol_model.Step}), one line at a time:

    - simulator nodes are renamed so the line's home becomes model node 0
      and the other participants 1..n;
    - store versions (globally unique in the simulator) map to the
      model's dense values 1..k by rank;
    - after each replayed operation the network is drained to quiescence
      by delivering messages in random order, with random {e chaos}
      spontaneous transitions (evictions, downgrades, undelegations)
      mixed in, so each replay exercises a different interleaving;
    - the model's own invariants are checked after every transition, and
      after each drain the committed operation must be visible: a store
      bumps the model's store count, a load leaves the issuing node
      having seen the newest version.

    At the end of a line's replay, the drained model and the simulator
    must agree: a stable directory, the same number of stores, and the
    same authoritative final value.  Any mismatch — including the model
    rejecting an operation the simulator committed, or failing to drain —
    is reported as a {!divergence}.

    Lines whose participant set exceeds the model's practical size, or
    whose versions could pass its slots' width
    ({!Pcc_mcheck.Protocol_model.Step.max_value}), are skipped (and
    counted); under [max_lines] the busiest multi-node lines are replayed
    first. *)

open Pcc_core

type divergence = { d_line : Types.line; d_detail : string }

type outcome = {
  lines_checked : int;
  lines_skipped : int;  (** too many participants or ops, or over [max_lines] *)
  ops_replayed : int;
  model_steps : int;
  divergences : divergence list;
}

val replay :
  ?max_lines:int ->
  ?chaos:float ->
  ?step_budget:int ->
  seed:int ->
  sys:System.t ->
  unit ->
  outcome
(** Replay every line in [sys]'s checker history (up to [max_lines],
    default 400) against the model; the history must have been kept
    ({!Pcc_core.Sc_check.keep_history}) from the start of the run.  [chaos] (default 0.25) is the probability of
    preferring a spontaneous transition over a delivery while draining;
    [step_budget] (default 20000) bounds each drain before the line is
    declared stuck.  [sys] must be quiesced: its config selects the
    model's feature set and its final state provides the authoritative
    value comparison. *)

val pp_outcome : Format.formatter -> outcome -> unit
