(** The litmus corpus: small multi-threaded programs that hold the real
    simulator to the per-location sequential-consistency axioms.

    Each test is a workload ([litmus:test=ID] in {!Workload.of_spec}),
    so a litmus cell is an ordinary run descriptor and
    [Pcc_oracle.Runner] judges it like any other checked run: the
    machine's own checker ({!Pcc_core.Sc_check}, fed by every commit)
    covers the axioms, and the runner's verdict adds the test's
    forbidden outcome, if it names one.  The axioms:

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
    checks (a thread's own stores count as observations). *)

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
  name : string;  (** the [ID] of [litmus:test=ID] *)
  threads : instr list list;  (** one program per node *)
  rounds : int;  (** each thread's instruction list runs this many times *)
  forbidden : (string * (obs list -> bool)) option;
      (** (description, predicate over the run's commits in commit
          order): an outcome no execution may exhibit *)
}

val corpus : test list
(** coWW, coRR, coRW and coWR, one per axiom, plus [mp], a
    message-passing test whose consumer may never see the flag but
    stale data. *)

val nodes : test -> int
(** The smallest machine the test runs on: one node per thread, at
    least two. *)

val programs : nodes:int -> test -> Types.op list array
(** The test's threads as simulator programs for a [nodes]-node machine
    (nodes beyond the threads run nothing). *)
