module Cache = Pcc_memory.Cache

type dstate = Unowned | Shared_s | Excl | Busy_shared | Busy_excl | Dele

type entry = {
  mutable state : dstate;
  mutable sharers : Nodeset.t;
  mutable owner : Types.node_id;
  mutable requester : Types.node_id;
  mutable requester_op : Types.op_kind;
  mutable requester_tid : int;
  mutable requester_epoch : int;
  mutable mem_value : int;
}

let state_code = function
  | Unowned -> 0
  | Shared_s -> 1
  | Excl -> 2
  | Busy_shared -> 3
  | Busy_excl -> 4
  | Dele -> 5

(* ------------------------------------------------------------------ *)
(* The home's transitions (§2.3, Figs. 3-4)                            *)
(* ------------------------------------------------------------------ *)

type input =
  | Get_shared
  | Get_exclusive
  | Writeback
  | Shared_writeback
  | Transfer_ack
  | Undelegate
  | Recall_nack

type role = Owner | Requester | Other

type action =
  | Serve
  | Grant_or_delegate
  | Nack_busy
  | Nack_pending
  | Intervene
  | Transfer
  | Recall
  | Forward
  | Retry_recall
  | Serve_waiting
  | Rerun_waiting
  | Share
  | Share_with_reader
  | Confirm_transfer
  | Checkpoint
  | Take_back
  | Reclaim
  | Reclaim_and_rerun
  | Stale

type step = { next : dstate; action : action }

let role ~owner ~requester src =
  if src = owner then Owner else if src = requester then Requester else Other

let stale = function
  | Unowned -> { next = Unowned; action = Stale }
  | Shared_s -> { next = Shared_s; action = Stale }
  | Excl -> { next = Excl; action = Stale }
  | Busy_shared -> { next = Busy_shared; action = Stale }
  | Busy_excl -> { next = Busy_excl; action = Stale }
  | Dele -> { next = Dele; action = Stale }

(* The rules, once.  Every step is a constant, so a lookup allocates
   nothing.  Only a Busy entry has a waiting requester, so only its rows
   read [Requester] or [current]; elsewhere a stale [requester] field is
   just another node. *)
let home_step state input role ~current =
  match (input, state, role) with
  | Get_shared, (Unowned | Shared_s), _ -> { next = Shared_s; action = Serve }
  | Get_exclusive, Unowned, _ -> { next = Excl; action = Serve }
  | Get_exclusive, Shared_s, _ -> { next = Excl; action = Grant_or_delegate }
  | (Get_shared | Get_exclusive), Excl, Owner ->
      (* the owner's writeback is in flight *)
      { next = Excl; action = Nack_pending }
  | Get_shared, Excl, (Requester | Other) -> { next = Busy_shared; action = Intervene }
  | Get_exclusive, Excl, (Requester | Other) -> { next = Busy_excl; action = Transfer }
  | (Get_shared | Get_exclusive), Busy_shared, _ -> { next = Busy_shared; action = Nack_busy }
  | (Get_shared | Get_exclusive), Busy_excl, _ -> { next = Busy_excl; action = Nack_busy }
  | (Get_shared | Get_exclusive), Dele, Owner -> { next = Dele; action = Nack_busy }
  | Get_shared, Dele, (Requester | Other) -> { next = Dele; action = Forward } (* Fig. 4b *)
  | Get_exclusive, Dele, (Requester | Other) ->
      (* undelegation reason 3 (§2.3.3) *)
      { next = Busy_excl; action = Recall }
  | Writeback, Excl, Owner -> { next = Unowned; action = Take_back }
  | Writeback, Busy_shared, Owner ->
      (* the intervention crossed the writeback *)
      if current then { next = Shared_s; action = Serve_waiting }
      else { next = Unowned; action = Take_back }
  | Writeback, Busy_excl, Owner ->
      (* the transfer or recall crossed the writeback *)
      if current then { next = Unowned; action = Rerun_waiting }
      else { next = Unowned; action = Take_back }
  | Writeback, Busy_excl, Requester ->
      (* the new owner wrote back before its Transfer_ack arrived: the
         transfer evidently completed *)
      { next = Unowned; action = Take_back }
  | Shared_writeback, Busy_shared, Owner ->
      if current then { next = Shared_s; action = Share_with_reader }
      else { next = Shared_s; action = Share }
  | Shared_writeback, Dele, Owner -> { next = Dele; action = Checkpoint }
  | Transfer_ack, Busy_excl, Owner ->
      if current then { next = Excl; action = Confirm_transfer }
      else { next = Unowned; action = Take_back }
  | Undelegate, Dele, Owner -> { next = Unowned; action = Reclaim }
  | Undelegate, Busy_excl, Owner ->
      if current then { next = Unowned; action = Reclaim_and_rerun }
      else { next = Unowned; action = Reclaim }
  | Recall_nack, Busy_excl, Owner -> { next = Busy_excl; action = Retry_recall }
  | (Writeback | Shared_writeback | Transfer_ack | Undelegate | Recall_nack), _, _ ->
      stale state

let reclaimed ~kept_owner ~sharers =
  if kept_owner then Excl else if sharers then Shared_s else Unowned

type t = {
  home : Types.node_id;
  hit_latency : int;
  miss_latency : int;
  backing : (Types.line, entry) Hashtbl.t;
  dir_cache : Predictor.entry Cache.t;
}

type access = { latency : int; dir_cache_hit : bool; predictor : Predictor.entry }

let create ~(config : Config.t) ~rng ~home =
  let sets = max 1 (config.dir_cache_entries / config.dir_cache_ways) in
  {
    home;
    hit_latency = config.dir_hit_latency;
    miss_latency = config.dir_miss_latency;
    backing = Hashtbl.create 1024;
    dir_cache = Cache.create ~policy:Lru ~rng ~sets ~ways:config.dir_cache_ways ();
  }

let entry t line =
  if Types.Layout.home_of_line line <> t.home then
    invalid_arg "Directory.entry: line not homed at this node";
  match Hashtbl.find t.backing line with
  | e -> e
  | exception Not_found ->
      let e =
        {
          state = Unowned;
          sharers = Nodeset.empty;
          owner = -1;
          requester = -1;
          requester_op = Types.Load;
          requester_tid = 0;
          requester_epoch = 0;
          mem_value = 0;
        }
      in
      Hashtbl.add t.backing line e;
      e

let find t line = Hashtbl.find_opt t.backing line

let access t line =
  match Cache.find t.dir_cache line with
  | Some predictor -> { latency = t.hit_latency; dir_cache_hit = true; predictor }
  | None ->
      let predictor = Predictor.fresh () in
      (match Cache.insert t.dir_cache line predictor with
      | Cache.Inserted _ -> ()
      | Cache.All_ways_pinned -> assert false (* directory-cache entries are never pinned *));
      { latency = t.miss_latency; dir_cache_hit = false; predictor }

let reset_predictor t line =
  if Cache.mem t.dir_cache line then
    match Cache.insert t.dir_cache line (Predictor.fresh ()) with
    | Cache.Inserted _ -> ()
    | Cache.All_ways_pinned -> assert false

let iter f t = Hashtbl.iter f t.backing
