(** Workloads, and the name registry behind the [--workload] CLI
    grammar.

    A workload is one record: a source of packed-op feeds, which
    {!Pcc_core.System.run_stream}, the bench harnesses and every CLI
    consume.  Every generated workload streams one epoch per node at a
    time, in memory that does not grow with the run: the seven paper
    apps, [random] and [prodcons] through a compiled {!Gen.plan}, the
    {!Dcgen} generators through their refills, {!Btrace} replays chunk
    by chunk.  Only the hand-written litmus programs are materialized.

    To add a workload: build one with {!make} (usually from a
    {!Gen.app_spec}, a {!Dcgen}-style generator record or a program
    array) and give it a registry entry — see DESIGN.md, "How to add a
    workload". *)

open Pcc_core

type t

val name : t -> string
(** Registry name, e.g. ["kv"]. *)

val describe : t -> string
(** Resolved parameters as a respawnable spec string, e.g.
    ["kv:keys=2048,skew=0.9,..."] — what artifacts record. *)

val nodes : t -> int

val total_accesses : t -> int option
(** Total memory accesses, when the workload knows it up front
    ([None] for open-ended replays). *)

val stream : t -> Op_stream.t
(** A fresh rewound feed; each call starts a new identical pass, so
    one workload value can drive many runs. *)

val programs : t -> Pcc_core.Types.op list array
(** Materialize one full pass (legacy [Types.op list array] consumers:
    oracle replay, text-trace export).  Do not call on 10^8-event
    generator workloads. *)

(** {2 Building workloads} *)

val make :
  name:string -> describe:string -> nodes:int -> accesses:int option ->
  (unit -> Op_stream.t) -> t

val of_materialized :
  name:string -> describe:string -> nodes:int -> Types.op list array -> t
(** Hand-written programs (the litmus corpus); each {!stream} replays
    them through {!Pcc_core.Op_stream.of_programs}. *)

val of_dcgen : Dcgen.t -> t

val prodcons_spec : nodes:int -> scale:float -> seed:int -> Gen.app_spec
(** The distilled 1-producer/(N-1)-consumer microbenchmark (formerly
    private to [pcc_trace]). *)

(** {2 The registry and the [--workload] spec grammar}

    A spec is [NAME] or [NAME:key=value,key=value,...].  Names and keys
    are case-insensitive.  Unknown names and unknown keys are [Error]s
    with suggestions — never a silent fallback, for the same reason
    {!Pcc_core.Protocol.of_string} rejects loudly. *)

type spec = { spec_name : string; spec_params : (string * string) list }

val parse_spec : string -> (spec, string) result

val of_spec : nodes:int -> scale:float -> seed:int -> string -> (t, string) result
(** Resolve a spec string against the registry.  [nodes]/[scale]/[seed]
    are the CLI-level defaults; spec keys override where the workload
    accepts them (a [trace] replay takes its node count from the file,
    ignoring [nodes]).  A machine smaller than the workload's minimum
    (2 nodes for most generators, 3 for [mpsc], 1 for [ocean], [lu]
    and [prodcons]) is an [Error], checked before anything is built.
    Generated workloads are compiled here, so resolve in the domain
    that will share the result. *)

val names : unit -> string list
(** Registry names: the seven paper apps, [random], [prodcons], the
    four datacenter generators, [litmus] and [trace]. *)

val summaries : unit -> (string * string) list
(** [(name, one-line summary)] for CLI help text. *)

val unknown_message : string -> string
(** The loud-rejection message for an unknown name, with "did you
    mean" suggestions. *)

val litmus : string -> Litmus.test option
(** The litmus test a [litmus:test=ID] spec names; [None] for any other
    workload. *)
