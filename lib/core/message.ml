type nack_reason = Busy | Not_home | Pending

type t =
  | Get_shared of { line : Types.line; tid : int }
  | Get_exclusive of { line : Types.line; tid : int }
  | Writeback of { line : Types.line; value : int }
  | Writeback_ack of { line : Types.line }
  | Inval of { line : Types.line; requester : Types.node_id }
  | Intervention of { line : Types.line; requester : Types.node_id; tid : int }
  | Transfer of { line : Types.line; requester : Types.node_id; tid : int }
  | Transfer_ack of { line : Types.line; new_owner : Types.node_id; value : int option }
  | Data_shared of { line : Types.line; value : int; source_is_home : bool; tid : int }
  | Data_exclusive of {
      line : Types.line;
      value : int;
      acks_expected : int;
      sharers : Nodeset.t;
      tid : int;
    }
  | Inv_ack of { line : Types.line }
  | Shared_writeback of { line : Types.line; value : int; new_sharer : Types.node_id }
  | Nack of { line : Types.line; reason : nack_reason; tid : int }
  | Delegate of {
      line : Types.line;
      sharers : Nodeset.t;
      value : int;
      acks_expected : int;
      tid : int;
    }
  | New_home of { line : Types.line; home : Types.node_id }
  | Fwd_get_shared of { line : Types.line; requester : Types.node_id; tid : int }
  | Recall of { line : Types.line; requester : Types.node_id; kind : Types.op_kind }
  | Recall_nack of { line : Types.line }
  | Undelegate of {
      line : Types.line;
      sharers : Nodeset.t;
      owner : Types.node_id option;
      value : int option;
      pending : (Types.node_id * int) option;
          (* the carried Get_exclusive's requester and transaction id *)
    }
  | Update of { line : Types.line; value : int }
  | Update_flush of { line : Types.line }
  | Update_flush_ack of { line : Types.line }
  (* Bus-snooping backend (MSI/MESI).  The "bus" is the serialized hub
     link of the arbitration owner; commands are broadcast point-to-point
     to every snooper, which each answer with a snoop response. *)
  | Bus_rd of { line : Types.line; tid : int }
  | Bus_rdx of { line : Types.line; tid : int }
  | Bus_upgr of { line : Types.line; tid : int }
  | Bus_flush of {
      line : Types.line;
      value : int;
      tid : int;
      requester : Types.node_id;
      dirty : bool;
          (* dirty flushes also update home memory; the home confirms with
             [Bus_wb_ack] before the transaction releases the bus *)
    }
  | Snoop_resp of {
      line : Types.line;
      tid : int;
      shared : bool;  (* snooper keeps (or kept) a copy *)
      owner : bool;  (* snooper held M/E and is supplying the data *)
      flushed_home : bool;  (* snooper's flush was dirty: wait for home ack *)
      mem_value : int option;  (* home's memory word, on the home's resp *)
    }
  | Bus_wb of { line : Types.line; value : int }
  | Bus_wb_ack of { line : Types.line; tid : int }

let line_of = function
  | Get_shared { line; _ }
  | Get_exclusive { line; _ }
  | Writeback { line; _ }
  | Writeback_ack { line }
  | Inval { line; _ }
  | Intervention { line; _ }
  | Transfer { line; _ }
  | Transfer_ack { line; _ }
  | Data_shared { line; _ }
  | Data_exclusive { line; _ }
  | Inv_ack { line }
  | Shared_writeback { line; _ }
  | Nack { line; _ }
  | Delegate { line; _ }
  | New_home { line; _ }
  | Fwd_get_shared { line; _ }
  | Recall { line; _ }
  | Recall_nack { line }
  | Undelegate { line; _ }
  | Update { line; _ }
  | Update_flush { line }
  | Update_flush_ack { line }
  | Bus_rd { line; _ }
  | Bus_rdx { line; _ }
  | Bus_upgr { line; _ }
  | Bus_flush { line; _ }
  | Snoop_resp { line; _ }
  | Bus_wb { line; _ }
  | Bus_wb_ack { line; _ } ->
      line

let header_bytes = 16

let dir_state_bytes = 8

let wire_bytes ~line_bytes = function
  | Get_shared _ | Get_exclusive _ | Inval _ | Intervention _ | Transfer _
  | Inv_ack _ | Nack _ | New_home _ | Fwd_get_shared _ | Recall _
  | Writeback_ack _ | Update_flush _ | Update_flush_ack _ | Recall_nack _ ->
      header_bytes
  | Transfer_ack { value; _ } ->
      header_bytes + (match value with Some _ -> line_bytes | None -> 0)
  | Writeback _ | Data_shared _ | Data_exclusive _ | Shared_writeback _ | Update _ ->
      header_bytes + line_bytes
  | Delegate _ -> header_bytes + line_bytes + dir_state_bytes
  | Undelegate { value; _ } ->
      header_bytes + dir_state_bytes + (match value with Some _ -> line_bytes | None -> 0)
  | Bus_rd _ | Bus_rdx _ | Bus_upgr _ | Bus_wb_ack _ -> header_bytes
  | Bus_flush _ | Bus_wb _ -> header_bytes + line_bytes
  | Snoop_resp { mem_value; _ } ->
      header_bytes + (match mem_value with Some _ -> line_bytes | None -> 0)

(* The class names, in [class_index] order. *)
let class_names =
  [|
    "get-shared"; "get-exclusive"; "writeback"; "writeback-ack"; "inval";
    "intervention"; "transfer"; "transfer-ack"; "data-shared"; "data-exclusive";
    "inv-ack"; "shared-writeback"; "nack"; "delegate"; "new-home";
    "fwd-get-shared"; "recall"; "recall-nack"; "undelegate"; "update";
    "update-flush"; "update-flush-ack"; "bus-rd"; "bus-rdx"; "bus-upgr";
    "bus-flush"; "snoop-resp"; "bus-wb"; "bus-wb-ack";
  |]

let class_count = Array.length class_names

let class_index = function
  | Get_shared _ -> 0
  | Get_exclusive _ -> 1
  | Writeback _ -> 2
  | Writeback_ack _ -> 3
  | Inval _ -> 4
  | Intervention _ -> 5
  | Transfer _ -> 6
  | Transfer_ack _ -> 7
  | Data_shared _ -> 8
  | Data_exclusive _ -> 9
  | Inv_ack _ -> 10
  | Shared_writeback _ -> 11
  | Nack _ -> 12
  | Delegate _ -> 13
  | New_home _ -> 14
  | Fwd_get_shared _ -> 15
  | Recall _ -> 16
  | Recall_nack _ -> 17
  | Undelegate _ -> 18
  | Update _ -> 19
  | Update_flush _ -> 20
  | Update_flush_ack _ -> 21
  | Bus_rd _ -> 22
  | Bus_rdx _ -> 23
  | Bus_upgr _ -> 24
  | Bus_flush _ -> 25
  | Snoop_resp _ -> 26
  | Bus_wb _ -> 27
  | Bus_wb_ack _ -> 28

let class_name m = class_names.(class_index m)

let class_index_name i =
  if i >= 0 && i < class_count then class_names.(i) else Printf.sprintf "class-%d" i

let pp_nack_reason ppf reason =
  Format.pp_print_string ppf
    (match reason with Busy -> "busy" | Not_home -> "not-home" | Pending -> "pending")

let pp ppf message =
  let line = Types.Layout.index_of_line (line_of message) in
  let home = Types.Layout.home_of_line (line_of message) in
  match message with
  | Nack { reason; _ } ->
      Format.fprintf ppf "nack(%d@%d, %a)" line home pp_nack_reason reason
  | Data_exclusive { acks_expected; _ } ->
      Format.fprintf ppf "data-exclusive(%d@%d, acks=%d)" line home acks_expected
  | Delegate { sharers; acks_expected; _ } ->
      Format.fprintf ppf "delegate(%d@%d, sharers=%a, acks=%d)" line home Nodeset.pp
        sharers acks_expected
  | Undelegate { sharers; pending; _ } ->
      Format.fprintf ppf "undelegate(%d@%d, sharers=%a%s)" line home Nodeset.pp sharers
        (match pending with
        | Some (node, _) -> Printf.sprintf ", pending=%d" node
        | None -> "")
  | New_home { home = new_home; _ } ->
      Format.fprintf ppf "new-home(%d@%d -> %d)" line home new_home
  | Fwd_get_shared { requester; _ } ->
      Format.fprintf ppf "fwd-get-shared(%d@%d, for %d)" line home requester
  | Bus_flush { requester; dirty; _ } ->
      Format.fprintf ppf "bus-flush(%d@%d, for %d%s)" line home requester
        (if dirty then ", dirty" else "")
  | Snoop_resp { shared; owner; _ } ->
      Format.fprintf ppf "snoop-resp(%d@%d%s%s)" line home
        (if shared then ", shared" else "")
        (if owner then ", owner" else "")
  | other -> Format.fprintf ppf "%s(%d@%d)" (class_name other) line home
