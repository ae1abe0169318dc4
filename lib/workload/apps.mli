(** The seven benchmark workloads of the evaluation (Table 2).

    Each generator reproduces the {e sharing structure} the paper
    describes for the application — consumer-count distribution
    (Table 3), producer stability, data placement, and the ratio of
    communication to local work — as a barrier-synchronized epoch
    program.  [scale] multiplies the number of epochs (run length);
    structure sizes (line counts) are fixed because the paper's capacity
    effects (MG's delegate-cache pressure, Appbt's RAC pressure) depend
    on them absolutely. *)

open Pcc_core

type app = {
  name : string;
  problem_size : string;  (** the Table 2 description *)
  min_nodes : int;
      (** the smallest machine [spec] can lay the sharing structure
          out on: 2 where a line needs a producer and a different
          consumer or home, 1 for the neighbour exchanges *)
  spec : scale:float -> nodes:int -> seed:int -> Gen.app_spec;
}

val barnes : app
(** Octree N-body: many consumers per producer (61.7% 4+), producers
    migrate between phases as the tree is rebuilt. *)

val ocean : app
(** Nearest-neighbour grid: single-consumer boundary exchange (97.7% 1),
    data homed at its producer by first touch. *)

val em3d : app
(** Electromagnetic wave propagation: communication-dominated bipartite
    graph, 1-2 consumers, 15% remote links; the largest winner. *)

val lu : app
(** Dense factorization: pipelined single-consumer boundary columns. *)

val cg : app
(** Conjugate gradient: wide broadcast sharing (99.7% 4+) but
    compute-bound, plus false sharing that defeats the detector. *)

val mg : app
(** Multigrid: many producer-consumer lines per node — more than a
    32-entry producer table can hold. *)

val appbt : app
(** Block-tridiagonal stencil: wide sharing whose pushed-update working
    set overflows a 32 KB RAC. *)

val all : app list
(** The seven apps in the paper's presentation order. *)

val find : string -> app option
(** Case-insensitive lookup by name. *)

val programs : app -> ?scale:float -> ?seed:int -> nodes:int -> unit -> Types.op list array
(** Convenience: build the spec and drain one pass of its stream
    ({!Gen.programs}); [scale] defaults to 1 and [seed] to 1. *)
