type watchdog = {
  wd_interval : int;
  wd_stall_checks : int;
  wd_progress : unit -> int;
  mutable wd_last : int;
  mutable wd_idle : int;
}

type t = {
  queue : Event_queue.t;
  mutable now : int;
  mutable stop_requested : bool;
  mutable executed : int;
  mutable observers : (unit -> unit) list;  (* registration order *)
  mutable peak_pending : int;  (* high-water mark of the queue length *)
  mutable watchdog : watchdog option;
}

type outcome = Drained | Stopped | Time_limit_reached | Event_limit_reached | Stalled

let create () =
  {
    queue = Event_queue.create ();
    now = 0;
    stop_requested = false;
    executed = 0;
    observers = [];
    peak_pending = 0;
    watchdog = None;
  }

let on_event t f = t.observers <- t.observers @ [ f ]

let now t = t.now

let note_depth t =
  let depth = Event_queue.length t.queue in
  if depth > t.peak_pending then t.peak_pending <- depth

let schedule t ~delay action =
  assert (delay >= 0);
  Event_queue.add t.queue ~time:(t.now + delay) action;
  note_depth t

let schedule_at t ~time action =
  assert (time >= t.now);
  Event_queue.add t.queue ~time action;
  note_depth t

let schedule_call_at t ~time handler arg =
  assert (time >= t.now);
  Event_queue.add_call t.queue ~time handler arg;
  note_depth t

type handle = Event_queue.handle

let no_handle = Event_queue.no_handle

let schedule_timer t ~delay handler arg =
  assert (delay >= 0);
  let handle = Event_queue.add_timer t.queue ~time:(t.now + delay) handler arg in
  note_depth t;
  handle

let schedule_call t ~delay handler arg = ignore (schedule_timer t ~delay handler arg : handle)

let cancel t handle = Event_queue.cancel t.queue handle

let stop t = t.stop_requested <- true

let events_executed t = t.executed

let pending_events t = Event_queue.length t.queue

let peak_pending t = t.peak_pending

(* ------------------------------------------------------------------ *)
(* Progress watchdog                                                   *)
(* ------------------------------------------------------------------ *)

let set_watchdog t ~interval ~stall_checks ~progress =
  if interval <= 0 then invalid_arg "Simulator.set_watchdog: interval must be positive";
  if stall_checks <= 0 then
    invalid_arg "Simulator.set_watchdog: stall_checks must be positive";
  t.watchdog <-
    Some
      {
        wd_interval = interval;
        wd_stall_checks = stall_checks;
        wd_progress = progress;
        wd_last = progress ();
        wd_idle = 0;
      }

(* True when the watchdog has seen no progress for [wd_stall_checks]
   consecutive check intervals: the run is livelocked (events keep
   executing — retry storms, retransmissions — but nothing commits). *)
let watchdog_tripped t =
  match t.watchdog with
  | None -> false
  | Some wd ->
      t.executed mod wd.wd_interval = 0
      &&
      let progress = wd.wd_progress () in
      if progress <> wd.wd_last then begin
        wd.wd_last <- progress;
        wd.wd_idle <- 0;
        false
      end
      else begin
        wd.wd_idle <- wd.wd_idle + 1;
        wd.wd_idle >= wd.wd_stall_checks
      end

let run ?until ?max_events t =
  t.stop_requested <- false;
  (* Unboxed limits: a queue holding an event at [max_int] is impossible
     (times are nonnegative and finite), so [max_int] safely encodes
     "no limit" and the loop below allocates nothing per event beyond
     what the actions themselves do. *)
  let event_limit = match max_events with Some limit -> limit | None -> max_int in
  let time_limit = match until with Some limit -> limit | None -> max_int in
  let rec loop () =
    if t.stop_requested then Stopped
    else if t.executed >= event_limit then Event_limit_reached
    else if Event_queue.is_empty t.queue then Drained
    else begin
      let next_time = Event_queue.next_time t.queue in
      if next_time > time_limit then begin
        t.now <- time_limit;
        Time_limit_reached
      end
      else begin
        t.now <- next_time;
        t.executed <- t.executed + 1;
        Event_queue.run_next t.queue;
        (match t.observers with
        | [] -> ()
        | observers -> List.iter (fun f -> f ()) observers);
        if watchdog_tripped t then Stalled else loop ()
      end
    end
  in
  loop ()

let pp_outcome ppf = function
  | Drained -> Format.pp_print_string ppf "drained"
  | Stopped -> Format.pp_print_string ppf "stopped"
  | Time_limit_reached -> Format.pp_print_string ppf "time-limit"
  | Event_limit_reached -> Format.pp_print_string ppf "event-limit"
  | Stalled -> Format.pp_print_string ppf "stalled"
