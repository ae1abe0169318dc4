(** Shared vocabulary of the coherence protocol. *)

type node_id = int
(** Index of a node (processor + hub + memory slice) in the machine. *)

type line = Pcc_memory.Address.line
(** A coherence unit (128-byte cache line). *)

(** Kind of a processor memory operation. *)
type op_kind = Load | Store

(** One step of a per-processor program.  Programs are what workload
    generators emit and what {!System} executes. *)
type op =
  | Compute of int  (** advance local time by n cycles *)
  | Access of op_kind * line
  | Barrier of int  (** synchronize with all other processors on an id *)

(** Which coherence state machine drives the caches.  [Adaptive] is the
    paper's directory protocol with delegation and speculative updates;
    [Msi]/[Mesi] are the classic bus-snooping protocols used as
    head-to-head baselines.  Lives here (not in {!Protocol}) so
    {!Config.t} can carry the selection without a dependency cycle. *)
type protocol = Adaptive | Msi | Mesi

(** How a completed miss was ultimately serviced; drives the remote-miss
    accounting of the evaluation. *)
type miss_class =
  | Rac_hit  (** satisfied from the local Remote Access Cache: a local miss *)
  | Local_mem  (** home is the requesting node; local DRAM *)
  | Remote_2hop  (** requester -> (delegated) home -> requester *)
  | Remote_3hop  (** requester -> home -> owner -> requester *)

val miss_class_name : miss_class -> string

val miss_classes : miss_class list
(** All four classes in declaration order (report row order). *)

val miss_class_index : miss_class -> int
(** Dense 0-based index, for per-class accumulator arrays. *)

module Layout : sig
  (** Line-number encoding of data placement.

      The real machine places pages by first-touch (§3.2); workload
      generators emulate the resulting placement by encoding the home node
      directly in the line number. *)

  val make_line : home:node_id -> index:int -> line
  (** [make_line ~home ~index] is the [index]-th line homed at [home]. *)

  val home_of_line : line -> node_id

  val index_of_line : line -> int
end
