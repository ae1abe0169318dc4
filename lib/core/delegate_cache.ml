module Cache = Pcc_memory.Cache

let sets_of ~entries ~ways =
  assert (entries > 0 && ways > 0 && entries mod ways = 0);
  entries / ways

module Producer = struct
  type 'a t = 'a Cache.t

  let create ~rng ~entries ~ways () =
    Cache.create ~policy:Lru ~rng ~sets:(sets_of ~entries ~ways) ~ways ()

  let find t line = Cache.find t line

  let peek t line = Cache.peek t line

  type 'a insert_result = Inserted of (Types.line * 'a) option | Set_locked

  let insert t line state =
    match Cache.insert t line state with
    | Cache.Inserted victim -> Inserted victim
    | Cache.All_ways_pinned -> Set_locked

  let remove t line =
    Cache.unpin t line;
    Cache.remove t line

  let lock t line = Cache.pin t line

  let unlock t line = Cache.unpin t line

  let size t = Cache.size t

  let capacity t = Cache.capacity t

  let iter f t = Cache.iter f t

  let clear t = Cache.clear t
end

module Consumer = struct
  type t = Types.node_id Cache.t

  let create ~rng ~entries ~ways () =
    Cache.create ~policy:Random ~rng ~sets:(sets_of ~entries ~ways) ~ways ()

  let find t line = Cache.find t line

  let insert t line home =
    match Cache.insert t line home with
    | Cache.Inserted (Some _) -> true
    | Cache.Inserted None | Cache.All_ways_pinned -> false

  let remove t line = ignore (Cache.remove t line)

  let size t = Cache.size t

  let clear t = Cache.clear t

  (* Purge every hint that routes to [node] (it crashed: requests sent
     there would be lost until its restart, and meaningless after). *)
  let drop_target t node =
    let doomed = ref [] in
    Cache.iter (fun line target -> if target = node then doomed := line :: !doomed) t;
    List.iter (fun line -> ignore (Cache.remove t line)) !doomed
end

(* ------------------------------------------------------------------ *)
(* The delegated home's transitions (§2.3-2.4)                         *)
(* ------------------------------------------------------------------ *)

type phase = No_entry | Busy | Exclusive | Shared

type slot = Free | Recalled | Held of { requester : Types.node_id; tid : int }

type event = Read | Write | Recall | Own_store | Store_done | Flush_done | Burst_over | Evicted

type action =
  | Serve
  | Downgrade_and_serve
  | Nack_busy
  | Nack_not_home
  | Hold
  | Hold_and_flush
  | Mark_recalled
  | Mark_recalled_and_flush
  | Flush
  | Give_back
  | Give_back_held
  | Give_back_with_request
  | Recall_nack
  | Local_upgrade
  | Regain
  | Downgrade_and_push
  | Keep

type step = { phase : phase; action : action }

let give_back = function Held _ -> Give_back_held | Free | Recalled -> Give_back

(* A taken slot is owed a flush round while the fence is up, then the
   line; a free slot is owed nothing. *)
let settle ~fenced = function
  | Free -> Keep
  | (Recalled | Held _) as slot -> if fenced then Flush else give_back slot

(* The rules, once.  One request waits at a time, and only in a free
   slot; a Busy entry leaves the fence to its own store's commit. *)
let rule event phase ~fenced slot =
  let step ?(phase = phase) action = { phase; action } in
  let free = match slot with Free -> true | Recalled | Held _ -> false in
  match (event, phase) with
  | (Read | Write), No_entry -> step Nack_not_home
  | Recall, No_entry -> step Recall_nack
  | (Own_store | Store_done | Flush_done | Burst_over | Evicted), No_entry -> step Keep
  | Read, Busy -> step Nack_busy
  | Read, Exclusive -> step ~phase:Shared Downgrade_and_serve
  | Read, Shared -> step Serve
  | Write, _ when not free -> step Nack_busy
  | Write, Busy -> step Hold
  | Write, (Exclusive | Shared) ->
      step (if fenced then Hold_and_flush else Give_back_with_request)
  | Recall, Busy -> step (if free then Mark_recalled else Keep)
  | Recall, (Exclusive | Shared) ->
      if not free then step (settle ~fenced slot)
      else step (if fenced then Mark_recalled_and_flush else Give_back)
  | Own_store, Shared -> step ~phase:Busy Local_upgrade
  | Own_store, Exclusive -> step Regain
  | Own_store, Busy -> step Keep (* never drawn: the blocking processor is the only writer *)
  | Store_done, (Busy | Exclusive | Shared) -> step ~phase:Exclusive (settle ~fenced slot)
  | Flush_done, Busy -> step Keep
  | Flush_done, (Exclusive | Shared) -> step (settle ~fenced slot)
  | Burst_over, Exclusive -> step ~phase:Shared Downgrade_and_push
  | Burst_over, (Busy | Shared) -> step Keep
  | Evicted, Busy -> step Keep
  | Evicted, (Exclusive | Shared) -> step (if fenced then Keep else give_back slot)

(* Constructors in declaration order (one held slot stands for all), and
   their codes. *)
let events = [| Read; Write; Recall; Own_store; Store_done; Flush_done; Burst_over; Evicted |]

let phases = [| No_entry; Busy; Exclusive; Shared |]

let slots = [| Free; Recalled; Held { requester = 0; tid = 0 } |]

let event_code = function
  | Read -> 0
  | Write -> 1
  | Recall -> 2
  | Own_store -> 3
  | Store_done -> 4
  | Flush_done -> 5
  | Burst_over -> 6
  | Evicted -> 7

let phase_code = function No_entry -> 0 | Busy -> 1 | Exclusive -> 2 | Shared -> 3

let slot_code = function Free -> 0 | Recalled -> 1 | Held _ -> 2

(* Every step built once, indexed by (event, phase, fenced, slot). *)
let table =
  Array.init
    (Array.length events * Array.length phases * 2 * Array.length slots)
    (fun i -> rule events.(i / 24) phases.(i / 6 mod 4) ~fenced:(i / 3 mod 2 = 1) slots.(i mod 3))

let producer_step phase ~fenced slot event =
  table.((((((event_code event * 4) + phase_code phase) * 2) + Bool.to_int fenced) * 3)
         + slot_code slot)

let entry_bytes_producer = 10

let entry_bytes_consumer = 6
