(* Unit tests for the discrete-event simulation kernel. *)

module Rng = Pcc_engine.Rng
module Event_queue = Pcc_engine.Event_queue
module Simulator = Pcc_engine.Simulator

let check = Alcotest.(check int)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  Alcotest.(check bool) "different seeds differ" false
    (Rng.next_int64 a = Rng.next_int64 b)

let test_rng_int_bounds () =
  let rng = Rng.create ~seed:99 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng ~bound:17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_int_covers_range () =
  let rng = Rng.create ~seed:3 in
  let seen = Array.make 8 false in
  for _ = 1 to 1_000 do
    seen.(Rng.int rng ~bound:8) <- true
  done;
  Alcotest.(check bool) "all buckets hit" true (Array.for_all Fun.id seen)

let test_rng_float_range () =
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 10_000 do
    let f = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_rng_bool_probability () =
  let rng = Rng.create ~seed:11 in
  let hits = ref 0 in
  let trials = 20_000 in
  for _ = 1 to trials do
    if Rng.bool rng ~p:0.25 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int trials in
  Alcotest.(check bool) "~25%" true (rate > 0.22 && rate < 0.28)

let test_rng_split_independent () =
  let parent = Rng.create ~seed:42 in
  let child = Rng.split parent in
  Alcotest.(check bool) "split streams differ" false
    (Rng.next_int64 parent = Rng.next_int64 child)

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:8 in
  let arr = Array.init 20 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 20 Fun.id) sorted

let test_rng_copy () =
  let a = Rng.create ~seed:13 in
  ignore (Rng.next_int64 a);
  let b = Rng.copy a in
  Alcotest.(check int64) "copy continues identically" (Rng.next_int64 a)
    (Rng.next_int64 b)

let test_queue_time_order () =
  let q = Event_queue.create () in
  let log = ref [] in
  Event_queue.add q ~time:30 (fun () -> log := 30 :: !log);
  Event_queue.add q ~time:10 (fun () -> log := 10 :: !log);
  Event_queue.add q ~time:20 (fun () -> log := 20 :: !log);
  while not (Event_queue.is_empty q) do
    Event_queue.run_next q
  done;
  Alcotest.(check (list int)) "time order" [ 10; 20; 30 ] (List.rev !log)

let test_queue_fifo_within_cycle () =
  let q = Event_queue.create () in
  let log = ref [] in
  for i = 1 to 50 do
    Event_queue.add q ~time:5 (fun () -> log := i :: !log)
  done;
  while not (Event_queue.is_empty q) do
    Event_queue.run_next q
  done;
  Alcotest.(check (list int)) "insertion order at same time" (List.init 50 (fun i -> i + 1))
    (List.rev !log)

let test_queue_min_time () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "empty" None (Event_queue.min_time q);
  Event_queue.add q ~time:42 ignore;
  Event_queue.add q ~time:7 ignore;
  Alcotest.(check (option int)) "min" (Some 7) (Event_queue.min_time q)

let test_queue_growth () =
  let q = Event_queue.create () in
  for i = 0 to 999 do
    Event_queue.add q ~time:(999 - i) ignore
  done;
  check "length" 1000 (Event_queue.length q);
  let last = ref (-1) in
  while not (Event_queue.is_empty q) do
    let time = Event_queue.next_time q in
    Alcotest.(check bool) "nondecreasing" true (time >= !last);
    last := time;
    Event_queue.run_next q
  done

let test_queue_clear () =
  let q = Event_queue.create () in
  Event_queue.add q ~time:1 ignore;
  Event_queue.clear q;
  Alcotest.(check bool) "empty after clear" true (Event_queue.is_empty q)

(* A handle names one event, not its slot: a spent handle (its event ran,
   was cancelled, or was cleared) cancels nothing, even once a later
   event has taken its slot. *)
let test_queue_cancel () =
  let q = Event_queue.create () in
  let log = ref [] in
  let record id = log := id :: !log in
  let first = Event_queue.add_timer q ~time:1 record 1 in
  let second = Event_queue.add_timer q ~time:2 record 2 in
  let third = Event_queue.add_timer q ~time:3 record 3 in
  Event_queue.cancel q second;
  check "a queued event leaves" 2 (Event_queue.length q);
  Event_queue.cancel q second;
  check "a cancelled handle is spent" 2 (Event_queue.length q);
  Event_queue.run_next q;
  (* the freed slot goes to the next event *)
  let fourth = Event_queue.add_timer q ~time:4 record 4 in
  Event_queue.cancel q first;
  check "a handle whose event ran is spent" 2 (Event_queue.length q);
  Event_queue.clear q;
  Event_queue.add_call q ~time:5 record 5;
  Event_queue.cancel q third;
  Event_queue.cancel q fourth;
  Event_queue.cancel q Event_queue.no_handle;
  check "handles taken before a clear are spent" 1 (Event_queue.length q);
  while not (Event_queue.is_empty q) do
    Event_queue.run_next q
  done;
  Alcotest.(check (list int)) "only live events ran" [ 1; 5 ] (List.rev !log)

let test_sim_now_advances () =
  let sim = Simulator.create () in
  let seen = ref [] in
  Simulator.schedule sim ~delay:10 (fun () -> seen := Simulator.now sim :: !seen);
  Simulator.schedule sim ~delay:5 (fun () -> seen := Simulator.now sim :: !seen);
  let outcome = Simulator.run sim in
  Alcotest.(check (list int)) "times" [ 5; 10 ] (List.rev !seen);
  Alcotest.(check bool) "drained" true (outcome = Simulator.Drained)

let test_sim_nested_scheduling () =
  let sim = Simulator.create () in
  let final = ref 0 in
  Simulator.schedule sim ~delay:1 (fun () ->
      Simulator.schedule sim ~delay:2 (fun () -> final := Simulator.now sim));
  ignore (Simulator.run sim);
  check "nested event time" 3 !final

let test_sim_until_limit () =
  let sim = Simulator.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    Simulator.schedule sim ~delay:10 tick
  in
  Simulator.schedule sim ~delay:0 tick;
  let outcome = Simulator.run ~until:55 sim in
  Alcotest.(check bool) "time limited" true (outcome = Simulator.Time_limit_reached);
  check "events until 55" 6 !count;
  check "clock clamped" 55 (Simulator.now sim)

let test_sim_max_events () =
  let sim = Simulator.create () in
  let rec tick () = Simulator.schedule sim ~delay:1 tick in
  Simulator.schedule sim ~delay:0 tick;
  let outcome = Simulator.run ~max_events:100 sim in
  Alcotest.(check bool) "event limited" true (outcome = Simulator.Event_limit_reached);
  check "executed" 100 (Simulator.events_executed sim)

let test_sim_stop () =
  let sim = Simulator.create () in
  let ran_after_stop = ref false in
  Simulator.schedule sim ~delay:1 (fun () -> Simulator.stop sim);
  Simulator.schedule sim ~delay:2 (fun () -> ran_after_stop := true);
  let outcome = Simulator.run sim in
  Alcotest.(check bool) "stopped" true (outcome = Simulator.Stopped);
  Alcotest.(check bool) "later event not run" false !ran_after_stop;
  (* a second run resumes with the remaining events *)
  ignore (Simulator.run sim);
  Alcotest.(check bool) "resumed" true !ran_after_stop

let test_watchdog_detects_livelock () =
  let sim = Simulator.create () in
  (* events keep flowing but the progress counter never moves *)
  Simulator.set_watchdog sim ~interval:10 ~stall_checks:3 ~progress:(fun () -> 0);
  let rec spin () = Simulator.schedule sim ~delay:1 spin in
  spin ();
  let outcome = Simulator.run ~max_events:100_000 sim in
  Alcotest.(check bool) "stalled" true (outcome = Simulator.Stalled);
  Alcotest.(check bool) "tripped long before the event limit" true
    (Simulator.events_executed sim <= 50)

let test_watchdog_spares_progress () =
  let sim = Simulator.create () in
  let done_count = ref 0 in
  Simulator.set_watchdog sim ~interval:10 ~stall_checks:3 ~progress:(fun () ->
      !done_count);
  let rec tick n =
    if n < 500 then
      Simulator.schedule sim ~delay:1 (fun () ->
          incr done_count;
          tick (n + 1))
  in
  tick 0;
  Alcotest.(check bool) "drains" true (Simulator.run sim = Simulator.Drained);
  check "all ticks ran" 500 !done_count

let suite =
  [
    Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
    Alcotest.test_case "rng seed sensitivity" `Quick test_rng_seed_sensitivity;
    Alcotest.test_case "rng int bounds" `Quick test_rng_int_bounds;
    Alcotest.test_case "rng int covers range" `Quick test_rng_int_covers_range;
    Alcotest.test_case "rng float range" `Quick test_rng_float_range;
    Alcotest.test_case "rng bool probability" `Quick test_rng_bool_probability;
    Alcotest.test_case "rng split independent" `Quick test_rng_split_independent;
    Alcotest.test_case "rng shuffle permutation" `Quick test_rng_shuffle_permutation;
    Alcotest.test_case "rng copy" `Quick test_rng_copy;
    Alcotest.test_case "queue time order" `Quick test_queue_time_order;
    Alcotest.test_case "queue fifo within cycle" `Quick test_queue_fifo_within_cycle;
    Alcotest.test_case "queue min time" `Quick test_queue_min_time;
    Alcotest.test_case "queue growth and order" `Quick test_queue_growth;
    Alcotest.test_case "queue clear" `Quick test_queue_clear;
    Alcotest.test_case "queue cancel by handle" `Quick test_queue_cancel;
    Alcotest.test_case "sim clock advances" `Quick test_sim_now_advances;
    Alcotest.test_case "sim nested scheduling" `Quick test_sim_nested_scheduling;
    Alcotest.test_case "sim until limit" `Quick test_sim_until_limit;
    Alcotest.test_case "sim max events" `Quick test_sim_max_events;
    Alcotest.test_case "sim stop and resume" `Quick test_sim_stop;
    Alcotest.test_case "watchdog detects livelock" `Quick
      test_watchdog_detects_livelock;
    Alcotest.test_case "watchdog spares progress" `Quick test_watchdog_spares_progress;
  ]
