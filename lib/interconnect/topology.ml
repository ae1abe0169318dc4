type t = { nodes : int; radix : int; levels : int }

let fat_tree ~nodes ~radix =
  assert (nodes > 0 && radix > 1);
  let rec height covered levels =
    if covered >= nodes then levels else height (covered * radix) (levels + 1)
  in
  { nodes; radix; levels = height radix 1 }

let nodes t = t.nodes

let levels t = t.levels

(* The common-ancestor level of two leaves: 1 when they share a leaf
   router, 2 when their leaf routers share a level-2 router, ...  A
   top-level loop, not a local closure: it runs once per remote packet. *)
let rec common_level t src dst ~level ~group_size =
  if src / group_size = dst / group_size then level
  else common_level t src dst ~level:(level + 1) ~group_size:(group_size * t.radix)

let router_hops t ~src ~dst =
  assert (src >= 0 && src < t.nodes && dst >= 0 && dst < t.nodes);
  if src = dst then 0 else 2 * common_level t src dst ~level:1 ~group_size:t.radix

let diameter t = 2 * t.levels
