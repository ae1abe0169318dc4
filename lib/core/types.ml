type node_id = int

type line = Pcc_memory.Address.line

type op_kind = Load | Store

type op = Compute of int | Access of op_kind * line | Barrier of int

type protocol = Adaptive | Msi | Mesi

type miss_class = Rac_hit | Local_mem | Remote_2hop | Remote_3hop

let miss_class_name = function
  | Rac_hit -> "rac-hit"
  | Local_mem -> "local-mem"
  | Remote_2hop -> "remote-2hop"
  | Remote_3hop -> "remote-3hop"

let miss_classes = [ Rac_hit; Local_mem; Remote_2hop; Remote_3hop ]

let miss_class_index = function
  | Rac_hit -> 0
  | Local_mem -> 1
  | Remote_2hop -> 2
  | Remote_3hop -> 3

module Layout = struct
  (* 2^36 lines of memory per node is far more than any workload uses and
     keeps the home extractable by a shift. *)
  let home_shift = 36

  let make_line ~home ~index =
    assert (home >= 0 && index >= 0 && index < 1 lsl home_shift);
    (home lsl home_shift) lor index

  let home_of_line line = line lsr home_shift

  let index_of_line line = line land ((1 lsl home_shift) - 1)
end
