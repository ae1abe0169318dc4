(** First-class workloads: the streaming interface every workload
    implements, and the name registry behind the [--workload] CLI
    grammar.

    This is the workload-side mirror of {!Pcc_core.Protocol}: a
    workload is a module implementing {!S} — a source of packed-op
    feeds with a declared node/line footprint — existentially packed in
    {!packed} so {!Pcc_core.System.run_stream}, the bench harnesses,
    and every CLI consume any workload backend-agnostically.  The seven
    paper apps are the first instances (materialized programs bridged
    through {!Pcc_core.Op_stream.of_programs}, bit-identical to the
    eager path); the {!Dcgen} generators and {!Btrace} replays are the
    streaming ones.

    To add a workload: build a {!packed} (usually via a {!Dcgen}-style
    generator record or a materialized program array) and give it a
    registry entry — see DESIGN.md, "How to add a workload". *)

open Pcc_core

module type S = sig
  type t

  val name : t -> string
  (** Registry name, e.g. ["kv"]. *)

  val describe : t -> string
  (** Resolved parameters as a respawnable spec string, e.g.
      ["kv:keys=2048,skew=0.9,..."] — what artifacts record. *)

  val nodes : t -> int

  val footprint : t -> int
  (** Distinct cache lines the workload touches (approximate for
      generators; may force generation for materialized instances). *)

  val total_accesses : t -> int option
  (** Total memory accesses, when the workload knows it up front
      ([None] for open-ended replays). *)

  val stream : t -> Op_stream.t
  (** A fresh rewound feed; each call starts a new identical pass, so
      one workload value can drive many runs. *)
end

type packed = Pack : (module S with type t = 'a) * 'a -> packed

val name : packed -> string

val describe : packed -> string

val nodes : packed -> int

val footprint : packed -> int

val total_accesses : packed -> int option

val stream : packed -> Op_stream.t

val programs : packed -> Pcc_core.Types.op list array
(** Materialize one full pass (legacy [Types.op list array] consumers:
    oracle replay, text-trace export).  Do not call on 10^8-event
    generator workloads. *)

(** {2 Building instances} *)

val make :
  name:string -> describe:string -> nodes:int -> footprint:int Lazy.t ->
  accesses:int option Lazy.t -> (unit -> Op_stream.t) -> packed

val of_materialized :
  name:string -> describe:string -> nodes:int ->
  Types.op list array Lazy.t -> packed

val of_dcgen : Dcgen.t -> packed

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

val of_spec : nodes:int -> scale:float -> seed:int -> string -> (packed, string) result
(** Resolve a spec string against the registry.  [nodes]/[scale]/[seed]
    are the CLI-level defaults; spec keys override where the workload
    accepts them (a [trace] replay takes its node count from the file,
    ignoring [nodes]). *)

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
