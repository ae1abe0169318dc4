(** Streaming datacenter-shaped workload generators.

    Four producer-consumer scenarios shaped like real services rather
    than the paper's seven scientific apps, generated one epoch at a
    time into reusable per-node buffers so runs scale to 10^8+ events
    without materializing programs.  Deterministic: a generator is a
    pure function of its parameters, with all shared per-epoch decisions
    derived from [(seed, epoch)] so nodes need no coordination.

    Every generator takes a [skew] knob shaping its consumer
    distribution — the Table-3 axis the adaptive protocol reacts to.
    [events] targets the total access count for the run (rounded to
    whole epochs, minimum 2). *)

open Pcc_core

type t = {
  g_name : string;
  g_describe : string;  (** resolved parameters, for artifacts *)
  g_nodes : int;
  g_accesses : int;  (** total memory accesses across the run *)
  g_stream : unit -> Op_stream.t;  (** fresh rewound feed per call *)
}

val kv :
  nodes:int -> seed:int -> ?keys:int -> ?skew:float -> ?write_frac:float ->
  ?ops_per_epoch:int -> ?events:int -> unit -> t
(** Sharded KV store: key [k] lives on shard [k mod nodes]; the owner
    applies updates, everyone issues Zipf([skew])-popular lookups.  Hot
    keys see wide stable consumer sets, the tail stays
    single-consumer. *)

val pubsub :
  nodes:int -> seed:int -> ?topics:int -> ?skew:float -> ?max_fanout:int ->
  ?events:int -> unit -> t
(** Topic fan-out: one stable publisher per topic; subscriber-set size
    drawn from P(s) proportional to s^-[skew] (low skew = broadcast
    heavy, high skew = mostly point-to-point). *)

val worksteal :
  nodes:int -> seed:int -> ?queue:int -> ?steal_frac:float -> ?skew:float ->
  ?tasks_per_epoch:int -> ?events:int -> unit -> t
(** Per-node deques with steal attempts against Zipf([skew])-popular
    victims: high skew concentrates thieves on few popular queues. *)

val mpsc :
  nodes:int -> seed:int -> ?consumers:int -> ?slots:int -> ?rotate:int ->
  ?skew:float -> ?appends_per_epoch:int -> ?events:int -> unit -> t
(** Multi-producer single-consumer log ingestion: producers append to
    Zipf([skew])-popular consumer-owned shards and rotate in and out of
    the producing role every [rotate] epochs (producer migration). *)

(** {2 Shared building blocks (tests, custom generators)} *)

val zipf_cdf : n:int -> theta:float -> float array

val zipf_sample : float array -> Pcc_engine.Rng.t -> int
