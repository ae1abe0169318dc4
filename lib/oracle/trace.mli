(** Run descriptors: everything that rebuilds one checked run.

    A checked run ({!Runner}) is a pure function of its descriptor.  The
    workload is a deterministic function of (bench, nodes, scale, seed);
    the machine is the named configuration plus the overrides below; a
    chaos run's fault schedule is a function of (seed, profile, bench)
    and its crash request.  A failed run's flight dump carries the
    descriptor ({!desc_to_json}) beside its failure messages, so
    [pcc_oracle --replay] rebuilds the run from the dump alone
    ({!read_desc}), whichever tool wrote it. *)

open Pcc_core

(** Fail-stop crashes of a chaos run.  Crash times are seeded either
    way, from the chaos seed, inside cycles 3,000–12,000. *)
type crash =
  | Seeded of int  (** this many seeded victims; [Seeded 0] = no crash *)
  | Victims of int list  (** exactly these victims *)

(** An unreliable interconnect and the recovery knobs that go with it. *)
type chaos = {
  profile : string;  (** a {!Pcc_interconnect.Fault.presets} name *)
  crash : crash;
  restart_after : int;  (** cycles from each victim's fail-stop to its cold restart *)
  txn_timeout : int;  (** see {!Pcc_core.Config.t} *)
  fallback_threshold : int;
}

type run_desc = {
  bench : string;  (** a {!Pcc_workload.Workload.of_spec} workload spec *)
  config_name : string;  (** a {!Pcc_core.Config.of_name} machine name *)
  protocol : Types.protocol option;
      (** backend override on the named machine: [pcc_oracle --profile
          all --protocol msi] runs the [full] machine with the bus
          backend *)
  nodes : int;
  scale : float;  (** epoch-count multiplier for app benchmarks *)
  seed : int;
  fault : bool;
      (** plant the backend's own protocol fault (test-only): the
          stale-update bug on the adaptive machine
          ([Config.Stale_update_no_resharing]), upgrades that skip
          invalidations on msi/mesi ([Config.Snoop_upgr_skips_invals]) *)
  chaos : chaos option;  (** [None]: reliable links *)
  max_events : int;  (** event budget; a run that exhausts it did not drain *)
}

val default : run_desc
(** [random] on the [full] machine with 6 nodes, scale 0.15, seed 1, no
    planted fault, reliable links and a budget of 50M events: the
    defaults of [pcc_oracle]'s seed sweeps. *)

val config_of_desc : run_desc -> Config.t
(** Build the whole machine the descriptor names.  A chaos run's seed is
    [seed * 8191 + Hashtbl.hash (profile, bench)], so the same traffic
    meets a different fault schedule per profile and bench.  Raises
    [Invalid_argument], listing the valid names, on an unknown
    [config_name] or [profile]. *)

val programs_of_desc : run_desc -> Types.op list array
(** Regenerate the workload via {!Pcc_workload.Workload.of_spec}.  Raises
    [Invalid_argument] on a spec the registry rejects. *)

val litmus_machines : string list
(** The litmus matrix's machines: [base], [delegation], [full] and
    [adaptive] (the four directory machines of §3 and §5), [msi] and
    [mesi]. *)

val litmus_cells :
  ?machines:string list ->
  ?profiles:string option list ->
  ?seeds:int list ->
  ?fault:bool ->
  Pcc_workload.Litmus.test list ->
  (string * run_desc) list
(** The litmus matrix: one named cell per test × machine × profile ×
    seed, in that nesting order.  A cell runs [litmus:test=ID] on the
    test's smallest machine ({!Pcc_workload.Litmus.nodes}); a profile
    is a {!Pcc_interconnect.Fault.presets} name, [None] for reliable
    links, and a chaos cell keeps {!Pcc_core.Config}'s recovery knobs.
    The name, e.g. [coWW-base-drops-seed1] ([+fault] after the machine
    for [fault] cells), is file-name safe.  Defaults: {!litmus_machines},
    reliable, drops and storm, seeds 1-3, no planted fault. *)

val desc_to_json : run_desc -> Pcc_stats.Jsonl.t

val desc_of_json : Pcc_stats.Jsonl.t -> (run_desc, string) result
(** Inverse of {!desc_to_json}.  [Error] on a malformed object, and on an
    unknown machine, fault profile or workload, with the message
    {!config_of_desc} or {!programs_of_desc} would raise. *)

val read_desc : path:string -> (run_desc, string) result
(** The run descriptor of the flight dump at [path], or the bare
    descriptor object ({!desc_to_json}) the file holds.  A machine's
    own dump ([pcc_sim --flight-dump]) carries none. *)
