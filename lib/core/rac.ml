module Cache = Pcc_memory.Cache

type fill_origin = Victim | Pushed_update | Delegated

type entry = { mutable value : int; mutable pushed : bool; mutable consumed : bool }

type t = {
  cache : entry Cache.t;
  mutable updates_consumed : int;
  mutable updates_wasted : int;
  mutable evictions : int;
  mutable fill_refusals : int;
}

let create ~rng ~lines ~ways () =
  assert (lines > 0 && ways > 0 && lines mod ways = 0);
  {
    cache = Cache.create ~policy:Lru ~rng ~sets:(lines / ways) ~ways ();
    updates_consumed = 0;
    updates_wasted = 0;
    evictions = 0;
    fill_refusals = 0;
  }

let lookup t line =
  match Cache.find t.cache line with
  | None -> None
  | Some entry ->
      if entry.pushed && not entry.consumed then begin
        entry.consumed <- true;
        t.updates_consumed <- t.updates_consumed + 1
      end;
      Some entry.value

let contains t line = Cache.mem t.cache line

let account_lost_push t = function
  | Some entry when entry.pushed && not entry.consumed ->
      t.updates_wasted <- t.updates_wasted + 1
  | Some _ | None -> ()

let fill t line ~value ~origin =
  match Cache.peek t.cache line with
  | Some entry ->
      account_lost_push t (Some entry);
      entry.value <- value;
      entry.pushed <- (origin = Pushed_update);
      entry.consumed <- false;
      if origin = Delegated then Cache.pin t.cache line;
      ignore (Cache.find t.cache line);
      true
  | None -> (
      let entry = { value; pushed = origin = Pushed_update; consumed = false } in
      let pin = origin = Delegated in
      match Cache.insert ~pin t.cache line entry with
      | Cache.Inserted victim ->
          (match victim with
          | Some (_, v) ->
              t.evictions <- t.evictions + 1;
              account_lost_push t (Some v)
          | None -> ());
          true
      | Cache.All_ways_pinned ->
          t.fill_refusals <- t.fill_refusals + 1;
          false)

let write t line ~value =
  match Cache.peek t.cache line with
  | Some entry ->
      entry.value <- value;
      true
  | None -> false

let invalidate t line =
  Cache.unpin t.cache line;
  account_lost_push t (Cache.remove t.cache line)

let unpin t line = Cache.unpin t.cache line

(* Drop every entry (fail-stop crash).  The cumulative update counters
   survive: they describe traffic that really happened. *)
let clear t = Cache.clear t.cache

let size t = Cache.size t.cache

let capacity t = Cache.capacity t.cache

let updates_consumed t = t.updates_consumed

let updates_wasted t = t.updates_wasted

let evictions t = t.evictions

let fill_refusals t = t.fill_refusals

let pressure t = t.evictions + t.fill_refusals

let peek t line =
  match Cache.peek t.cache line with Some entry -> Some entry.value | None -> None

let iter f t = Cache.iter (fun line entry -> f line entry.value) t.cache
