(** Replayable failure traces.

    A violation is only useful if it can be reproduced, so the oracle's
    artifact is a {e run descriptor} — everything needed to regenerate the
    exact workload and configuration — plus the violation messages and
    the flight recorder's last events for context ({!System.recent}).
    The file format is JSON Lines: a [kind = "run"] header object, one
    [kind = "violation"] object per message, then one [kind = "event"]
    object per flight event, oldest first, holding the flight dump's
    [[time, code, arg, line]] quad ({!Flight_ring.event_to_json}).
    Replaying means rebuilding the system from the header and re-running
    with the oracle attached; the event log is for humans.

    Workloads are deterministic functions of (bench, nodes, scale, seed),
    so the descriptor fully pins the run. *)

open Pcc_core

type run_desc = {
  bench : string;  (** a {!Pcc_workload.Workload.of_spec} workload spec *)
  config_name : string;  (** a {!Pcc_core.Config.of_name} machine name *)
  nodes : int;
  scale : float;  (** epoch-count multiplier for app benchmarks *)
  seed : int;
  fault : bool;
      (** plant the backend's own protocol fault (test-only): the
          stale-update bug on the adaptive machine
          ([Config.Stale_update_no_resharing]), upgrades that skip
          invalidations on msi/mesi ([Config.Snoop_upgr_skips_invals]) *)
}

val config_of_desc : run_desc -> Config.t
(** Build the simulator configuration the descriptor names.  Raises
    [Invalid_argument], listing the valid names, on an unknown
    [config_name]. *)

val programs_of_desc : run_desc -> Types.op list array
(** Regenerate the workload via {!Pcc_workload.Workload.of_spec}.  Raises
    [Invalid_argument] on a spec the registry rejects. *)

val write :
  path:string ->
  desc:run_desc ->
  violations:string list ->
  events:Flight_ring.event list ->
  unit
(** Write a failure artifact (overwrites [path]). *)

val read_desc : path:string -> (run_desc, string) result
(** Parse the run-descriptor header back from a trace file. *)
