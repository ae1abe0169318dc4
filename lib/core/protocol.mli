(** First-class coherence-protocol backends.

    A backend packages the whole per-node coherence state machine —
    state encoding, message handlers, miss classification, statistics —
    behind one module interface so {!System} (and everything above it:
    oracle, chaos, telemetry, flight recorder, metrics registry) is
    backend-agnostic.

    Two backends exist: the paper's adaptive directory protocol
    ({!Adaptive_backend}, delegating to {!Node}) and the bus-snooping
    MSI/MESI machine ({!Snoop.Backend}).  [Config.protocol] selects
    which one {!System.create} instantiates.

    A backend has no hook surface to implement: it receives the
    machine's {!Probe.t} at creation and emits every send, receive,
    issue, commit and retransmission into it, and every observer
    subscribes there through {!System}.  Emitting its commits is all a
    backend does for coherence checking: the probe feeds each one to
    the machine's {!Sc_check}.

    To add a backend: implement {!S} (create your nodes around the
    shared [probe]/[sim]/[network]/[stats] plumbing the way
    {!Snoop.create_machine} does), give it a {!kind} constructor, and
    teach {!System.create} to pack it.  Everything that only consumes
    {!S} and the probe — the run loop, watchdog, gauges, observers,
    stall reports, the per-location SC check — comes for free. *)

type kind = Types.protocol = Adaptive | Msi | Mesi

val all : kind list

val to_string : kind -> string
(** ["adaptive"], ["msi"], ["mesi"] — the [--protocol] flag values. *)

val of_string : string -> (kind, string) result
(** Inverse of {!to_string}; [Error] carries a message listing the
    valid names.  Unknown names must be rejected loudly — never fall
    back to a default (a sweep silently run under the wrong backend
    poisons every comparison built on it). *)

(** The per-node surface {!System} needs from a backend.  [node] is the
    backend's node representation; message handling stays internal (a
    node reacts to network deliveries it arranged itself at creation
    time). *)
module type S = sig
  type node

  val id : node -> Types.node_id

  val submit :
    node -> kind:Types.op_kind -> line:Types.line -> on_commit:(unit -> unit) -> unit
  (** Issue one blocking processor operation; at most one outstanding
      per node ([Invalid_argument] otherwise). *)

  val busy : node -> bool

  (** {2 State encoding and stall inspection} *)

  val l2_state : node -> Types.line -> L2.entry option
  (** Side-effect-free cache-state peek (conformance tests). *)

  val iter_l2 : node -> (Types.line -> L2.entry -> unit) -> unit

  val pending_op : node -> (Types.op_kind * Types.line) option

  val pending_info : node -> (Types.op_kind * Types.line * int * int) option
  (** Outstanding transaction with start cycle and timeout count (stall
      reports). *)

  val check_invariants : node array -> string list
  (** Machine-wide structural invariants over a quiesced system; empty
      list = consistent. *)

  (** {2 Occupancy gauges (telemetry samplers; 0 when the concept does
      not exist in the backend)} *)

  val delegated_line_count : node -> int

  val rac_occupancy : node -> int

  val rac_capacity : node -> int

  val rac_updates_consumed : node -> int

  val rac_updates_wasted : node -> int

  val rac_pressure : node -> int

  val deledc_pressure : node -> int

  val hub_in_flight : node -> int

  val link_retransmits : node -> (Types.node_id * int) list
end

(** A backend instance: the implementation module paired with the node
    array it built, with the node type hidden. *)
type packed = Pack : (module S with type node = 'n) * 'n array -> packed

module Adaptive_backend : S with type node = Node.t
(** The paper's adaptive directory protocol as a backend: a direct
    re-export of {!Node}'s surface, so the verified state machine is
    untouched (bit-identical behavior is gated by the micro golden). *)
