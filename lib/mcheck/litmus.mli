(** Weak-memory litmus harness over the {e real} simulator.

    Where the exhaustive checker ({!Checker}/{!Protocol_model}) verifies
    an abstract model of the protocol, this harness verifies the
    simulator itself: it runs small multi-threaded programs (litmus
    tests) through {!Pcc_core.System} across machine configurations,
    chaos profiles, and seeds, and requires the machine's own checker
    ({!Pcc_core.Sc_check}, fed by every commit of every run) to have
    flagged nothing.  Its checks are the per-location
    sequential-consistency axioms:

    - {e coWW} (store serialization): stores to a location are totally
      ordered — versions strictly increase;
    - {e coRR} (read-read coherence): a thread never reads an older
      version after a newer one;
    - {e coRW}: a read followed in program order by a write to the same
      location never observes a version newer than that write;
    - {e coWR}: a read after a write in the same thread never returns a
      version older than that write.

    coWW falls out of the checker's store-serialization check; coRR,
    coRW and coWR out of its per-node monotonicity and window-legality
    checks (a thread's own stores count as observations).

    A test may additionally name a {e forbidden} final observation — a
    predicate over the committed operations that no execution may
    satisfy; the harness asserts it unreachable on every run. *)

open Pcc_core

(** One instruction of a litmus thread.  Locations are small integers;
    location [l] maps to a line homed at node [l mod nodes], so multi-
    location tests exercise distinct homes. *)
type instr =
  | Load of int
  | Store of int
  | Delay of int  (** advance local time (cycles) *)
  | Barrier of int  (** machine-wide barrier with this id *)

(** A committed operation as seen by forbidden-outcome predicates. *)
type obs = {
  o_node : int;
  o_kind : Types.op_kind;
  o_loc : int;
  o_value : int;  (** version observed (loads) or written (stores) *)
}

type test = {
  name : string;
  threads : instr list list;  (** one program per node *)
  rounds : int;  (** each thread's instruction list runs this many times *)
  forbidden : (string * (obs list -> bool)) option;
      (** (description, predicate): an outcome no execution may exhibit *)
}

type outcome = Pass | Fail of string

type result = {
  r_test : string;
  r_config : string;
  r_profile : string;
  r_seed : int;
  r_outcome : outcome;
}

val corpus : test list
(** The regression corpus: the four per-location SC shapes (coWW, coRR,
    coRW, coWR) plus a producer–consumer test with an explicitly
    forbidden stale-read outcome. *)

val standard_configs : (string * (nodes:int -> seed:int -> Config.t)) list
(** base, delegation, updates, adaptive — the four machines of §3 —
    plus the two snooping backends, msi and mesi: the whole corpus runs
    against every coherence backend by default. *)

val snoop_configs : Types.protocol -> (string * (nodes:int -> seed:int -> Config.t)) list
(** The slice of {!standard_configs} for one snooping backend, for
    backend-focused sweeps ([pcc_check --litmus --protocol msi]). *)

val standard_profiles : (string * (seed:int -> Pcc_interconnect.Fault.profile option)) list
(** reliable, drops, storm. *)

val mutation_config : nodes:int -> seed:int -> Config.t
(** The updates machine with [inject_fault = Stale_update_no_resharing]:
    running {!corpus} against it must produce at least one [Fail] —
    the harness's own detection sanity check. *)

val snoop_mutation_config : nodes:int -> seed:int -> Config.t
(** The MSI machine with [inject_fault = Snoop_upgr_skips_invals]
    (snoopers ignore BUS_UPGR): the harness must catch the stale shared
    copies this leaves behind — the snooping twin of
    {!mutation_config}. *)

val run_test : config:Config.t -> ?max_events:int -> test -> outcome
(** One simulator run; [config.seed] and [config.net_faults] choose the
    schedule.  [Fail] reports the first axiom violation, forbidden
    observation, stall, or simulator-internal check failure. *)

val run_matrix :
  ?jobs:int ->
  ?configs:(string * (nodes:int -> seed:int -> Config.t)) list ->
  ?profiles:(string * (seed:int -> Pcc_interconnect.Fault.profile option)) list ->
  ?seeds:int list ->
  test list ->
  result list
(** Every test × config × profile × seed, expanded in deterministic
    order and run on up to [jobs] domains (results identical at every
    setting).  Defaults: {!standard_configs}, {!standard_profiles},
    seeds [1; 2; 3]. *)

val failures : result list -> result list

val pp_result : Format.formatter -> result -> unit
