type kind = Types.protocol = Adaptive | Msi | Mesi

let all = [ Adaptive; Msi; Mesi ]

let to_string = function Adaptive -> "adaptive" | Msi -> "msi" | Mesi -> "mesi"

let of_string = function
  | "adaptive" -> Ok Adaptive
  | "msi" -> Ok Msi
  | "mesi" -> Ok Mesi
  | other ->
      Error
        (Printf.sprintf "unknown protocol %S (expected adaptive, msi, or mesi)" other)

module type S = sig
  type node

  val id : node -> Types.node_id

  val submit :
    node -> kind:Types.op_kind -> line:Types.line -> on_commit:(unit -> unit) -> unit

  val busy : node -> bool

  val l2_state : node -> Types.line -> L2.entry option

  val iter_l2 : node -> (Types.line -> L2.entry -> unit) -> unit

  val pending_op : node -> (Types.op_kind * Types.line) option

  val pending_info : node -> (Types.op_kind * Types.line * int * int) option

  val check_invariants : node array -> string list

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

type packed = Pack : (module S with type node = 'n) * 'n array -> packed

module Adaptive_backend = struct
  type node = Node.t

  include Node
end
