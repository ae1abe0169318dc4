type t = int

let max_nodes = 62

let empty = 0

let check node =
  if node < 0 || node >= max_nodes then invalid_arg "Nodeset: node id out of range"

let singleton node =
  check node;
  1 lsl node

let add t node =
  check node;
  t lor (1 lsl node)

let remove t node =
  check node;
  t land lnot (1 lsl node)

let mem t node =
  check node;
  t land (1 lsl node) <> 0

let union a b = a lor b

let diff a b = a land lnot b

let is_empty t = t = 0

let rec cardinal t = if t = 0 then 0 else 1 + cardinal (t land (t - 1))

let iter f t =
  for node = 0 to max_nodes - 1 do
    if t land (1 lsl node) <> 0 then f node
  done

let fold f t init =
  let acc = ref init in
  iter (fun node -> acc := f node !acc) t;
  !acc

let to_list t = List.rev (fold (fun node acc -> node :: acc) t [])

let of_list nodes = List.fold_left add empty nodes

let of_mask mask = mask land ((1 lsl max_nodes) - 1)

let equal a b = a = b

let pp ppf t =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (to_list t)))

let filter f t = fold (fun node acc -> if f node then add acc node else acc) t empty
