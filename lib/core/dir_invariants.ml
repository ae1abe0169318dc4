type copy = L2.copy = No_copy | Shared_copy | Exclusive_copy

type view = {
  mutable nodes : int;
  mutable dir : Directory.dstate;
  mutable owner : Types.node_id;
  mutable requester : Types.node_id;
  mutable sharers : Nodeset.t;
  mutable mem : int;
  l2 : copy array;
  l2_value : int array;
  rac : bool array;
  rac_value : int array;
  phase : Delegate_cache.phase array;
  vector : Nodeset.t array;
  mutable transfer : Nodeset.t;
  mutable reaching : Nodeset.t;
  mutable delegating : Nodeset.t;
  mutable handoff : bool;
}

let create nodes =
  let none = Nodeset.empty and slots x = Array.make nodes x in
  {
    nodes;
    dir = Unowned;
    owner = -1;
    requester = -1;
    sharers = none;
    mem = 0;
    l2 = slots No_copy;
    l2_value = slots 0;
    rac = slots false;
    rac_value = slots 0;
    phase = slots Delegate_cache.No_entry;
    vector = slots none;
    transfer = none;
    reaching = none;
    delegating = none;
    handoff = false;
  }

type strength = Event_boundary | Quiescent

type invariant = Single_writer | Directory_consistency | Delegation_consistency

let invariants = [ Single_writer; Directory_consistency; Delegation_consistency ]

let name = function
  | Single_writer -> "single writer exists"
  | Directory_consistency -> "consistency within the directory"
  | Delegation_consistency -> "delegation consistency"

(* Each invariant is a list of rules, each checked node by node; a rule
   about the whole line is charged to its owner. *)
type rule =
  | Second_writer
  | Unaccounted_writer
  | Uncovered_copy
  | Stale_copy
  | Foreign_copy
  | Unsettled
  | Unreflected_producer
  | Missing_producer
  | Missing_backing

let rules = function
  | Single_writer -> [ Second_writer; Unaccounted_writer ]
  | Directory_consistency -> [ Uncovered_copy; Stale_copy; Foreign_copy; Unsettled ]
  | Delegation_consistency -> [ Unreflected_producer; Missing_producer; Missing_backing ]

let in_transit strength set n = strength = Event_boundary && Nodeset.mem set n

let has_owner v = v.owner >= 0 && v.owner < v.nodes

let producer v = if has_owner v then v.phase.(v.owner) else Delegate_cache.No_entry

let producer_covers v n = producer v <> Delegate_cache.No_entry && Nodeset.mem v.vector.(v.owner) n

let covered strength v n =
  match v.dir with
  | Unowned -> false
  | Shared_s -> Nodeset.mem v.sharers n
  | Excl | Busy_shared | Busy_excl ->
      n = v.owner || n = v.requester || producer_covers v n
  | Dele ->
      n = v.owner
      || if producer v = Delegate_cache.No_entry then in_transit strength v.delegating n
         else producer_covers v n

(* A stable line's copies all equal its authority: home memory under
   Shared_s, the producer's RAC backing copy under a shared delegation. *)
let has_authority v =
  v.dir = Shared_s || (v.dir = Dele && producer v = Delegate_cache.Shared && v.rac.(v.owner))

let authority v = if v.dir = Shared_s then v.mem else v.rac_value.(v.owner)

let l2_stale v n = v.l2.(n) <> No_copy && v.l2_value.(n) <> authority v

let held_exclusively v =
  match v.dir with
  | Excl -> has_owner v && v.l2.(v.owner) = Exclusive_copy
  | Dele -> producer v = Delegate_cache.Exclusive
  | Unowned | Shared_s | Busy_shared | Busy_excl -> false

let is_busy dir = dir = Directory.Busy_shared || dir = Directory.Busy_excl

let rec first_writer v m =
  if m >= v.nodes || v.l2.(m) = Exclusive_copy then m else first_writer v (m + 1)

(* A copy no message in transit may still invalidate, update or cover. *)
let at_rest strength v n =
  (v.l2.(n) <> No_copy || v.rac.(n)) && not (in_transit strength v.reaching n)

let breaks strength v rule n =
  match rule with
  | Second_writer -> v.l2.(n) = Exclusive_copy && first_writer v 0 < n
  | Unaccounted_writer ->
      v.l2.(n) = Exclusive_copy
      && (not (n = v.owner && v.dir <> Unowned && v.dir <> Shared_s))
      && not (in_transit strength v.transfer n)
  | Uncovered_copy -> at_rest strength v n && not (covered strength v n)
  | Stale_copy ->
      at_rest strength v n && has_authority v
      && (l2_stale v n || (v.rac.(n) && v.rac_value.(n) <> authority v))
  | Foreign_copy -> at_rest strength v n && n <> v.owner && held_exclusively v
  | Unsettled ->
      strength = Quiescent
      && ((n = v.owner && (is_busy v.dir || (v.dir = Excl && v.l2.(n) <> Exclusive_copy)))
         || v.phase.(n) = Delegate_cache.Busy)
  | Unreflected_producer ->
      v.phase.(n) <> Delegate_cache.No_entry && not (n = v.owner && (v.dir = Dele || v.dir = Busy_excl))
  | Missing_producer ->
      n = v.owner && v.dir = Dele && v.phase.(n) = Delegate_cache.No_entry
      && not (strength = Event_boundary && v.handoff)
  | Missing_backing -> v.phase.(n) <> Delegate_cache.No_entry && not v.rac.(n)

(* Top-level loops taking every input as an argument: a clean check
   allocates nothing. *)
let rec unbroken strength v rule n =
  n >= v.nodes || ((not (breaks strength v rule n)) && unbroken strength v rule (n + 1))

let rec all_unbroken strength v = function
  | [] -> true
  | rule :: rest -> unbroken strength v rule 0 && all_unbroken strength v rest

let holds strength inv v = all_unbroken strength v (rules inv)

let rec broken strength v = function
  | [] -> []
  | inv :: rest ->
      let later = broken strength v rest in
      if holds strength inv v then later else inv :: later

let violations strength v = broken strength v invariants

let describe v rule n =
  let p = Printf.sprintf in
  match rule with
  | Second_writer -> p "node %d holds exclusive beside node %d" n (first_writer v 0)
  | Unaccounted_writer ->
      p "node %d holds exclusive but the home directory does not account for it" n
  | Uncovered_copy -> (
      match v.dir with
      | Unowned -> p "node %d holds a copy but the home is unowned" n
      | Shared_s -> p "node %d holds a copy not covered by home's sharing vector" n
      | Dele -> p "node %d holds a copy not covered by producer's sharing vector" n
      | Excl | Busy_shared | Busy_excl ->
          p "node %d holds a copy the home's owner %d does not cover" n v.owner)
  | Stale_copy ->
      let who = if v.dir = Shared_s then "home memory" else "producer RAC" in
      let where, value =
        if l2_stale v n then ("L2", v.l2_value.(n)) else ("RAC", v.rac_value.(n))
      in
      p "node %d %s value %d differs from %s value %d" n where value who (authority v)
  | Foreign_copy ->
      p "node %d holds a copy while %s %d holds the line exclusively" n
        (if v.dir = Dele then "producer" else "owner") v.owner
  | Unsettled ->
      if v.phase.(n) = Delegate_cache.Busy then p "node %d: producer entry busy at quiescence" n
      else if is_busy v.dir then "directory busy at quiescence"
      else p "directory exclusive at %d but no exclusive L2 copy" n
  | Unreflected_producer ->
      p "node %d holds a producer entry the home directory does not reflect" n
  | Missing_producer -> p "delegated to %d but no producer-table entry" n
  | Missing_backing ->
      p "node %d is the delegated producer but its RAC has no backing copy" n

let explain strength v =
  List.concat_map
    (fun inv ->
      List.concat_map
        (fun rule ->
          List.filter_map
            (fun n ->
              if breaks strength v rule n then Some (inv, describe v rule n) else None)
            (List.init v.nodes Fun.id))
        (rules inv))
    invariants
