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
