module Cache = Pcc_memory.Cache

type line_state = Shared | Exclusive

type entry = { state : line_state; value : int; dirty : bool }

type victim = { victim_line : Types.line; victim_entry : entry }

type t = entry Cache.t

let create ~rng ~lines ~ways () =
  assert (lines > 0 && ways > 0 && lines mod ways = 0);
  Cache.create ~policy:Lru ~rng ~sets:(lines / ways) ~ways ()

let lookup t line = Cache.find t line

let peek t line = Cache.peek t line

let fill t line entry =
  match Cache.insert t line entry with
  | Cache.Inserted (Some (victim_line, victim_entry)) ->
      Some { victim_line; victim_entry }
  | Cache.Inserted None -> None
  | Cache.All_ways_pinned -> assert false (* L2 entries are never pinned *)

let set t line entry =
  if not (Cache.mem t line) then invalid_arg "L2.set: line not resident";
  match Cache.insert t line entry with
  | Cache.Inserted None -> ()
  | Cache.Inserted (Some _) | Cache.All_ways_pinned -> assert false

let invalidate t line = Cache.remove t line

let clear t = Cache.clear t

let size t = Cache.size t

let capacity t = Cache.capacity t

let iter f t = Cache.iter f t

(* ------------------------------------------------------------------ *)
(* The requester's transitions (§2.3, §2.4.3)                          *)
(* ------------------------------------------------------------------ *)

type copy = No_copy | Shared_copy | Exclusive_copy

let copy_of = function
  | None -> No_copy
  | Some { state = Shared; _ } -> Shared_copy
  | Some { state = Exclusive; _ } -> Exclusive_copy

type txn = Idle | Loading | Awaiting_grant | Granted

type event =
  | Issue_load
  | Issue_store
  | Data_shared
  | Data_exclusive
  | Delegate
  | Nack
  | Nack_not_home
  | Inv_ack
  | Inval
  | Update
  | Intervention
  | Transfer

type action =
  | Hit
  | Local
  | Request
  | Commit_load
  | Take_grant
  | Take_delegation
  | Return_delegation
  | Retry
  | Retry_unhinted
  | Credit_ack
  | Invalidate
  | Invalidate_and_poison
  | Commit_update
  | Fill_rac
  | Defer
  | Serve
  | Drop

type deferred =
  | Deferred_intervention of { requester : Types.node_id; tid : int }
  | Deferred_transfer of { requester : Types.node_id; tid : int }

(* The rules, once.  A store is outstanding from its issue to its commit;
   only a NACK asks whether it holds its grant. *)
let rule event copy txn ~own ~wb ~local =
  let storing = match txn with Awaiting_grant | Granted -> true | Idle | Loading -> false in
  let ungranted = match txn with Loading | Awaiting_grant -> true | Idle | Granted -> false in
  match event with
  | Issue_load -> if copy <> No_copy then Hit else if local then Local else Request
  | Issue_store -> if copy = Exclusive_copy then Hit else if local then Local else Request
  | Data_shared -> if own && txn = Loading then Commit_load else Drop
  | Data_exclusive -> if own && storing then Take_grant else Drop
  | Delegate -> if own && storing then Take_delegation else Return_delegation
  | Nack -> if own && ungranted then Retry else Drop
  | Nack_not_home -> if own && ungranted then Retry_unhinted else Drop
  | Inv_ack -> if storing then Credit_ack else Drop
  | Inval -> if txn = Loading then Invalidate_and_poison else Invalidate
  | Update -> if txn = Loading then Commit_update else Fill_rac
  | Intervention | Transfer -> (
      (* A request that meets an unacked writeback belongs to the epoch
         the writeback ends: the home resolves the race when it lands.
         One that meets a store in flight targets the exclusive copy the
         store is about to gain; served from a stale shared copy, the
         directory would go Shared while the store commits Exclusive (a
         race the model checker found), so it waits for the commit. *)
      if wb then Drop
      else
        match copy with
        | Exclusive_copy -> Serve
        | Shared_copy -> if storing then Defer else Serve
        | No_copy -> if storing then Defer else Drop)

(* Constructors in declaration order, and their codes. *)
let events =
  [| Issue_load; Issue_store; Data_shared; Data_exclusive; Delegate; Nack; Nack_not_home;
     Inv_ack; Inval; Update; Intervention; Transfer |]

let copies = [| No_copy; Shared_copy; Exclusive_copy |]

let txns = [| Idle; Loading; Awaiting_grant; Granted |]

let event_code = function
  | Issue_load -> 0
  | Issue_store -> 1
  | Data_shared -> 2
  | Data_exclusive -> 3
  | Delegate -> 4
  | Nack -> 5
  | Nack_not_home -> 6
  | Inv_ack -> 7
  | Inval -> 8
  | Update -> 9
  | Intervention -> 10
  | Transfer -> 11

let copy_code = function No_copy -> 0 | Shared_copy -> 1 | Exclusive_copy -> 2

let txn_code = function Idle -> 0 | Loading -> 1 | Awaiting_grant -> 2 | Granted -> 3

(* Every action looked up once, indexed by (event, copy, txn, own, wb,
   local): 96 rows per event. *)
let table =
  Array.init
    (Array.length events * 96)
    (fun i ->
      rule events.(i / 96) copies.(i / 32 mod 3) txns.(i / 8 mod 4) ~own:(i / 4 mod 2 = 1)
        ~wb:(i / 2 mod 2 = 1) ~local:(i mod 2 = 1))

let requester_step copy txn ~own ~wb ~local event =
  let row = (((event_code event * 3) + copy_code copy) * 4) + txn_code txn in
  table.((row * 8) + (Bool.to_int own * 4) + (Bool.to_int wb * 2) + Bool.to_int local)
