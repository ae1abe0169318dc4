(** Replayable failure traces.

    A violation is only useful if it can be reproduced, so the oracle's
    artifact is a {e run descriptor} — everything needed to regenerate the
    exact workload and configuration — plus the violation messages and a
    bounded window of the most recent protocol events for context.  The
    file format is JSON Lines: a [kind = "run"] header object, one
    [kind = "violation"] object per message, then [kind = "event"] objects
    oldest-first.  Replaying means rebuilding the system from the header
    and re-running with the oracle attached; the event log is for humans.

    Workloads are deterministic functions of (bench, nodes, scale, seed),
    so the descriptor fully pins the run. *)

open Pcc_core

type run_desc = {
  bench : string;  (** a {!Pcc_workload.Workload.of_spec} workload spec *)
  config_name : string;  (** a {!Pcc_core.Config.of_name} machine name *)
  nodes : int;
  scale : float;  (** epoch-count multiplier for app benchmarks *)
  seed : int;
  fault : bool;  (** inject the stale-update protocol fault (test-only) *)
}

type event =
  | Msg of { time : int; src : int; dst : int; cls : string; line : Types.line }
  | Commit of {
      time : int;
      node : int;
      kind : Types.op_kind;
      line : Types.line;
      value : int;
      started : int;
    }

val pp_event : Format.formatter -> event -> unit

(** Bounded ring of recent events. *)
module Ring : sig
  type t

  val create : capacity:int -> t

  val add : t -> event -> unit

  val to_list : t -> event list
  (** Oldest first; at most [capacity] events. *)
end

val config_of_desc : run_desc -> Config.t
(** Build the simulator configuration the descriptor names.  Raises
    [Invalid_argument], listing the valid names, on an unknown
    [config_name]. *)

val programs_of_desc : run_desc -> Types.op list array
(** Regenerate the workload via {!Pcc_workload.Workload.of_spec}.  Raises
    [Invalid_argument] on a spec the registry rejects. *)

val write :
  path:string -> desc:run_desc -> violations:string list -> events:event list -> unit
(** Write a failure artifact (overwrites [path]). *)

val read_desc : path:string -> (run_desc, string) result
(** Parse the run-descriptor header back from a trace file. *)
