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

val run : ?diff:bool -> ?max_lines:int -> Trace.run_desc -> report
(** [diff] (default true) controls the model-checker replay; it is
    skipped anyway when an earlier layer already failed.  Divergences are
    folded into [violations]. *)

val clean : report -> bool

val save_artifact : path:string -> report -> unit
(** Write the failure trace (see {!Trace.write}); call only when
    [not (clean report)]. *)
