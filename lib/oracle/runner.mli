(** One checked run, end to end: the only code that builds, runs and
    judges a simulation under the oracle.

    {!run} builds the machine a {!Trace.run_desc} names; {!check} takes a
    machine built by hand, for the tests whose programs, fault profile or
    chaos seed no descriptor names.  Both attach the online checks, run
    the programs under an event budget, and hand the finished run to one
    verdict, which lists its failures in this order:

    - an in-run {!Audit.Violation}, where the run aborted;
    - a run that did not drain, once, as its stall report;
    - for a drained run only: commits short of the workload's accesses
      (when every crashed node restarts), SC violations, the quiescent
      invariant errors, the {!Stats_check} identities, the auditor's
      final sweep and, when asked, the {!Diff} replay against the model.

    A failed {!run} given a dump path writes the machine's flight dump
    there at failure time, carrying the descriptor and the failure
    messages: the one failure artifact, which [pcc_oracle --replay]
    re-runs and [pcc_trace --flight] decodes. *)

open Pcc_core

type report = {
  result : System.result option;
      (** [None] when the run aborted on an online violation *)
  failures : string list;  (** the verdict; empty = clean *)
  events : Flight_ring.event list;
      (** {!System.recent} at failure (else []): the flight ring's last
          64 events *)
  diff : Diff.outcome option;
  accesses : int;  (** the workload's memory accesses: the commits a finished run owes *)
  faults : Pcc_interconnect.Fault.stats option;
      (** the chaos layer's injection counters, for a run that finished *)
  dump : string option;  (** the flight dump written for this failure *)
}

val check : System.t -> Types.op list array -> report
(** Attach the oracle to a freshly created machine, run [programs] on it
    within {!Trace.default}'s budget of 50M events and judge the run.
    No model replay, no dump. *)

val run : ?diff:bool -> ?max_lines:int -> ?dump:string -> Trace.run_desc -> report
(** Build, run and judge the descriptor's machine.  [diff] (default true)
    asks for the model-checker replay on an adaptive machine, of at most
    [max_lines] lines (default 400); it is skipped when an earlier check
    already failed.  When the run fails and [dump] is given, the flight
    dump is written there; an exception escaping the run leaves one too
    before it propagates. *)

val clean : report -> bool
