(** One oracle-checked run, end to end.

    Builds the system a {!Trace.run_desc} describes, attaches the online
    {!Audit}, executes the workload, and — when the run survives the
    online checks — applies the post-run layers: the quiescent structural
    invariants, the {!Stats_check} identities, and (optionally) the
    {!Diff} replay against the model checker. *)

open Pcc_core

type report = {
  desc : Trace.run_desc;
  result : System.result option;
      (** [None] when the run aborted on an online violation *)
  violations : string list;  (** all layers' messages, empty = clean *)
  events : Flight_ring.event list;
      (** {!System.recent} at failure (else []): the flight ring's last
          64 events *)
  diff : Diff.outcome option;
}

val attach : System.t -> unit -> string list
(** Register the oracle checks on a freshly created system, chosen by its
    backend: the directory {!Audit} on the adaptive backend, the
    checker's online abort ({!Audit.abort_on_violation}) alone on the
    snooping backends, whose state the auditor cannot read.  During the
    run a violation raises {!Audit.Violation}.  The returned function is
    the post-run pass, one message per violation: the auditor's final
    full sweep on the adaptive backend, nothing on the snooping ones.
    Both {!run} and [pcc_chaos] call this. *)

val run : ?diff:bool -> ?max_lines:int -> Trace.run_desc -> report
(** [diff] (default true) controls the model-checker replay; it is
    skipped anyway when an earlier layer already failed.  Divergences are
    folded into [violations]. *)

val clean : report -> bool

val save_artifact : path:string -> report -> unit
(** Write the failure trace (see {!Trace.write}); call only when
    [not (clean report)]. *)
