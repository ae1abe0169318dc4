(* The unreliable-interconnect chaos layer and the recovery machinery
   above it: zero-probability profiles must be invisible, the hub link
   must restore exactly-once in-order delivery under arbitrary packet
   abuse, full chaotic runs must stay coherent with every operation
   committed, and runs that cannot finish must produce a stall report. *)

open Pcc_core
module Fault = Pcc_interconnect.Fault
module Network = Pcc_interconnect.Network
module Topology = Pcc_interconnect.Topology
module Simulator = Pcc_engine.Simulator
module Oracle = Pcc_oracle
module Q = QCheck

let contains_sub ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* ---------------- zero-probability equivalence ---------------- *)

let random_stream rand ~nodes ~n =
  List.init n (fun tag ->
      let src = Random.State.int rand nodes in
      let dst = Random.State.int rand nodes in
      let bytes = 16 + Random.State.int rand 160 in
      (src, dst, bytes, tag))

(* Deliver one fixed stream and return everything observable: arrival
   (time, src, dst, tag) in order, plus the traffic counters. *)
let arrivals_of ?faults ~nodes stream =
  let sim = Simulator.create () in
  let topo = Topology.fat_tree ~nodes ~radix:8 in
  let net = Network.create ?faults sim topo Network.default_config in
  let arrivals = ref [] in
  for n = 0 to nodes - 1 do
    Network.set_receiver net ~node:n (fun ~src tag ->
        arrivals := (Simulator.now sim, src, n, tag) :: !arrivals)
  done;
  List.iter (fun (src, dst, bytes, tag) -> Network.send net ~src ~dst ~bytes tag) stream;
  ignore (Simulator.run sim);
  (List.rev !arrivals, Network.messages_sent net, Network.bytes_sent net)

let zero_profile_invisible =
  Q.Test.make ~count:30 ~name:"zero-probability chaos profile is invisible"
    Q.(pair small_int small_int)
    (fun (seed, shape) ->
      let rand = Random.State.make [| seed; shape; 77 |] in
      let nodes = 2 + (shape mod 7) in
      let stream = random_stream rand ~nodes ~n:(10 + (seed mod 40)) in
      arrivals_of ~nodes stream = arrivals_of ~faults:Fault.zero ~nodes stream)

(* ---------------- hub link reliability ---------------- *)

(* Two hubs over a hostile network (a storm, or outages) trade bursts in
   both directions: every payload must come out exactly once, in order,
   on each link, and the link must drain with nothing unacknowledged.
   A burst leaves its 20-60 frames unacknowledged at once, more than the
   16 slots a ring starts with, and a lost frame early in a burst holds
   the rest of it back in the receiver's reassembly ring, so both rings
   grow.  During
   the run, at every delivery, [exists_unacked] is checked against a
   shadow list of what each hub has sent: the unacknowledged frames must
   be exactly the last [in_flight] sent, and must include every frame
   the peer has not delivered yet. *)
let check_hub_link ~seed ~outages ~burst =
  let nodes = 2 and bursts = 4 in
  let sim = Simulator.create () in
  let topo = Topology.fat_tree ~nodes ~radix:8 in
  let profile = if outages then Fault.outages ~seed else Fault.storm ~seed in
  let net = Network.create ~faults:profile sim topo Network.default_config in
  (* payloads are (src, index) packed into one int *)
  let payload ~src i = (src * 1_000_000) + i in
  let sent = Array.init nodes (fun _ -> Array.make (bursts * burst) (-1)) in
  let sent_n = Array.make nodes 0 in
  let received = Array.make nodes [] and received_n = Array.make nodes 0 in
  let links = Array.make nodes None in
  let link n = Option.get links.(n) in
  let shadow_agrees src =
    let dst = 1 - src in
    let l = link src in
    let unacked = Hub_link.in_flight l and n = sent_n.(src) in
    let is_unacked i = Hub_link.exists_unacked l ~peer:dst ~f:(( = ) sent.(src).(i)) in
    unacked <= n
    && received_n.(dst) >= n - unacked
    && (unacked = 0 || (is_unacked (n - unacked) && is_unacked (n - 1)))
    && (unacked = n || not (is_unacked (n - unacked - 1)))
  in
  let mismatch = ref None and retransmits = ref 0 in
  let sample () =
    for src = 0 to nodes - 1 do
      if !mismatch = None && not (shadow_agrees src) then
        mismatch :=
          Some
            (Printf.sprintf "t=%d hub %d: %d sent, %d unacked, %d delivered"
               (Simulator.now sim) src sent_n.(src) (Hub_link.in_flight (link src))
               received_n.(1 - src))
    done
  in
  for id = 0 to nodes - 1 do
    links.(id) <-
      Some
        (Hub_link.create ~sim ~network:net ~id ~nodes ~reliable:true ~rto:500
           ~rto_cap:8000 ~ack_bytes:16
           ~on_retransmit:(fun ~dst:_ -> incr retransmits)
           ~on_duplicate:ignore
           ~deliver:(fun ~src:_ v ->
             received.(id) <- v :: received.(id);
             received_n.(id) <- received_n.(id) + 1;
             sample ()))
  done;
  for b = 0 to bursts - 1 do
    for src = 0 to nodes - 1 do
      Simulator.schedule sim ~delay:((b * 3000) + (src * 700)) (fun () ->
          for _ = 1 to burst do
            let v = payload ~src sent_n.(src) in
            sent.(src).(sent_n.(src)) <- v;
            sent_n.(src) <- sent_n.(src) + 1;
            Hub_link.send (link src) ~dst:(1 - src) ~bytes:48 v
          done;
          sample ())
    done
  done;
  (* a broken link retransmits forever: bound the run so it fails, not hangs *)
  if Simulator.run ~max_events:1_000_000 sim <> Simulator.Drained then
    Q.Test.fail_report "did not drain";
  Option.iter (Q.Test.fail_reportf "shadow list disagrees: %s") !mismatch;
  for src = 0 to nodes - 1 do
    let expected = List.init (bursts * burst) (payload ~src) in
    if List.rev received.(1 - src) <> expected then
      Q.Test.fail_reportf "link %d->%d: not exactly once in order" src (1 - src);
    if Hub_link.in_flight (link src) <> 0 then
      Q.Test.fail_reportf "hub %d: %d frames unacknowledged at drain" src
        (Hub_link.in_flight (link src))
  done;
  (* a storm drops 8% of packets: over hundreds of frames, a run with no
     retransmission would mean the timers never fired *)
  if (not outages) && !retransmits = 0 then
    Q.Test.fail_report "storm forced no retransmission";
  true

let hub_link_exactly_once =
  Q.Test.make ~count:12 ~name:"hub link: exactly once, in order"
    Q.(triple (int_bound 1_000_000) bool (int_bound 40))
    (fun (seed, outages, extra) -> check_hub_link ~seed ~outages ~burst:(20 + extra))

(* ---------------- end-to-end chaotic runs ---------------- *)

(* The fault profiles below (a fixed chaos seed, the zero profile) are
   not ones a descriptor derives, so each test builds its machine and
   hands it to the oracle's one verdict. *)
let chaos_run ?(config_name = "full") ?(txn_timeout = 2000) ?(fallback_threshold = 2)
    ~profile ~seed ~bench () =
  let desc = { Oracle.Trace.default with bench; config_name; scale = 0.1; seed } in
  let config =
    {
      (Oracle.Trace.config_of_desc desc) with
      Config.net_faults = Some profile;
      txn_timeout;
      fallback_threshold;
    }
  in
  let sys = System.create ~config () in
  let report = Oracle.Runner.check sys (Oracle.Trace.programs_of_desc desc) in
  Alcotest.(check (list string)) "clean verdict" [] report.failures;
  (Option.get report.result, report, sys)

let test_storm_run_stays_coherent () =
  let result, _, _ = chaos_run ~profile:(Fault.storm ~seed:42) ~seed:3 ~bench:"random" () in
  Alcotest.(check bool) "retransmissions happened" true
    (result.stats.Run_stats.retransmits > 0);
  Alcotest.(check bool) "duplicates suppressed" true
    (result.stats.Run_stats.dup_dropped > 0)

(* A snooping machine gets the same verdict as an adaptive one: the
   machine's checker sees every commit, and the post-run checks run. *)
let test_snoop_storm_run_checked () =
  let _, report, sys =
    chaos_run ~config_name:"msi" ~profile:(Fault.storm ~seed:42) ~seed:3 ~bench:"random" ()
  in
  Alcotest.(check int) "checker saw every commit" report.accesses
    (Sc_check.commits (System.checker sys))

(* Long link outages against a short completion timeout: some line must
   take enough strikes to be demoted to the base protocol, and the run
   must still finish clean.  Workloads are seeded, so scan a few seeds
   deterministically for one where an outage actually hits a live
   transaction. *)
let test_outage_forces_fallback () =
  let rec attempt seed =
    if seed > 6 then Alcotest.fail "no seed in 1..6 exercised the fallback path"
    else
      let result, _, _ =
        chaos_run ~txn_timeout:1000 ~fallback_threshold:1
          ~profile:(Fault.outages ~seed:(seed * 131)) ~seed ~bench:"random" ()
      in
      if result.stats.Run_stats.fallbacks > 0 then
        Alcotest.(check bool) "timeouts preceded the fallback" true
          (result.stats.Run_stats.txn_timeouts > 0)
      else attempt (seed + 1)
  in
  attempt 1

(* An all-zero profile still runs the full hardened machinery (sequence
   numbers, acks, timeouts armed) — the protocol outcome must be as
   clean as a reliable run. *)
let test_zero_profile_run_clean () =
  let result, _, _ = chaos_run ~profile:Fault.zero ~seed:5 ~bench:"random" () in
  Alcotest.(check int) "nothing injected, nothing suppressed" 0
    result.stats.Run_stats.dup_dropped

(* A hardened machine's completion timeouts and retransmit timers leave
   the queue once their work is done: a load and a store to a remote
   home commit well before the first timeout would fire, and the run
   drains with them, not when the store's leftover timeout expires. *)
let test_timers_leave_with_their_work () =
  let config = Config.with_faults (Config.small_full ~nodes:2 ()) Fault.zero in
  let line = Types.Layout.make_line ~home:1 ~index:0 in
  let sys = System.create ~config () in
  let result =
    System.run_programs sys
      [| [ Types.Access (Types.Load, line); Types.Access (Types.Store, line) ]; [] |]
  in
  Alcotest.(check bool) "drained" true (result.System.outcome = Simulator.Drained);
  Alcotest.(check int) "both ops committed" 2
    (result.stats.Run_stats.loads + result.stats.Run_stats.stores);
  let sim = System.sim sys in
  if Simulator.now sim >= config.txn_timeout then
    Alcotest.failf "drained at cycle %d after %d events: a timer outlived its work \
                    (the completion timeout is %d cycles)"
      (Simulator.now sim) (Simulator.events_executed sim) config.txn_timeout

(* ---------------- failure artifacts ---------------- *)

(* A chaos cell of pcc_oracle --profile drops as a descriptor: random
   traffic over dropping links with the sweep's default recovery knobs. *)
let drops_desc ?(fault = false) ?(crash = 0) ?(max_events = Oracle.Trace.default.max_events)
    ~seed () =
  {
    Oracle.Trace.default with
    seed;
    fault;
    max_events;
    chaos =
      Some
        {
          profile = "drops";
          crash = Seeded crash;
          restart_after = 5_000;
          txn_timeout = 2000;
          fallback_threshold = 2;
        };
  }

(* Run [desc] with a dump path: the run must fail, its dump must carry
   the descriptor and the failures, and re-running the dump's descriptor
   as [pcc_oracle --replay] does must give the identical failure list. *)
let replay_from_artifact desc =
  let path = Filename.temp_file "pcc-chaos" ".flight.json" in
  let report = Oracle.Runner.run ~diff:false ~dump:path desc in
  let dump = Flight_ring.read_dump path and reread = Oracle.Trace.read_desc ~path in
  Sys.remove path;
  Alcotest.(check bool) "the run fails" true (report.failures <> []);
  Alcotest.(check (option string)) "the dump is written" (Some path) report.dump;
  (match dump with
  | Ok d ->
      Alcotest.(check (list string)) "the dump carries the failures" report.failures
        d.d_failures
  | Error e -> Alcotest.failf "dump unreadable: %s" e);
  match reread with
  | Error e -> Alcotest.failf "no run descriptor: %s" e
  | Ok replayed ->
      Alcotest.(check bool) "the descriptor round-trips" true (replayed = desc);
      Alcotest.(check (list string)) "the replay fails identically" report.failures
        (Oracle.Runner.run replayed).failures;
      report.failures

(* The planted stale-update fault under dropping links and one seeded
   crash, and a run cut off by its event budget. *)
let test_chaos_failure_replays () =
  (match replay_from_artifact (drops_desc ~fault:true ~crash:1 ~seed:2 ()) with
  | [ first ] ->
      Alcotest.(check bool) "caught online by the directory invariant" true
        (String.starts_with first
           ~prefix:"t=34228: line 2@1: consistency within the directory")
  | failures -> Alcotest.failf "expected one failure, got %d" (List.length failures));
  ignore (replay_from_artifact (drops_desc ~max_events:200 ~seed:1 ()))

(* A run that did not drain fails once, as its stall report: the
   post-run checks hold only for a completed run. *)
let test_undrained_run_is_one_failure () =
  let report = Oracle.Runner.run ~diff:false (drops_desc ~max_events:200 ~seed:1 ()) in
  match report.failures with
  | [ stall ] ->
      Alcotest.(check bool) "reported as a stall" true
        (String.starts_with stall ~prefix:"did not quiesce: run ended event-limit")
  | failures ->
      Alcotest.failf "expected one failure, got %d:\n%s" (List.length failures)
        (String.concat "\n" failures)

(* ---------------- stall reports ---------------- *)

let test_stall_report_on_event_limit () =
  let desc = { Oracle.Trace.default with scale = 0.1; seed = 4 } in
  let config = Oracle.Trace.config_of_desc desc in
  let programs = Oracle.Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  let result = System.run_programs ~max_events:300 sys programs in
  match result.System.stall with
  | None -> Alcotest.fail "a truncated run must carry a stall report"
  | Some stall ->
      Alcotest.(check bool) "event limit surfaced" true
        (stall.System.stall_outcome = Simulator.Event_limit_reached);
      Alcotest.(check bool) "unfinished processors reported" true
        (stall.System.stall_unfinished > 0);
      (* the report is renderable *)
      let text = Format.asprintf "%a" System.pp_stall_report stall in
      Alcotest.(check bool) "report names the outcome" true
        (contains_sub ~sub:"event-limit" text);
      (* a reliable machine's report still lists the flight ring's last
         events, each rendered by the flight printer *)
      Alcotest.(check bool) "report lists recent events" true
        (contains_sub ~sub:"recent events:" text);
      match List.rev stall.System.stall_recent with
      | [] -> Alcotest.fail "no recent events in the stall report"
      | last :: _ ->
          Alcotest.(check bool) "report renders the latest event" true
            (contains_sub ~sub:(Format.asprintf "%a" Flight_ring.pp_event last) text)

let suite =
  [
    QCheck_alcotest.to_alcotest zero_profile_invisible;
    QCheck_alcotest.to_alcotest hub_link_exactly_once;
    Alcotest.test_case "storm run stays coherent" `Quick test_storm_run_stays_coherent;
    Alcotest.test_case "msi storm run gets the oracle checks" `Quick
      test_snoop_storm_run_checked;
    Alcotest.test_case "outages force base-protocol fallback" `Quick
      test_outage_forces_fallback;
    Alcotest.test_case "zero-probability profile runs clean" `Quick
      test_zero_profile_run_clean;
    Alcotest.test_case "timers leave the queue with their work" `Quick
      test_timers_leave_with_their_work;
    Alcotest.test_case "stall report on event limit" `Quick
      test_stall_report_on_event_limit;
    Alcotest.test_case "chaos failure replays from its artifact" `Quick
      test_chaos_failure_replays;
    Alcotest.test_case "an undrained run is one failure" `Quick
      test_undrained_run_is_one_failure;
  ]
