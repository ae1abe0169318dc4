(* Fail-stop node crashes with epoch-based directory recovery: crash /
   restart runs must stay coherent under every protocol configuration,
   with and without packet chaos; a producer crash mid-delegation must be
   revoked to the base protocol without stalling its consumers; a victim
   that never restarts must not block the survivors; crash schedules must
   stay bit-identical across experiment-pool widths; and the value
   oracles must accept exactly the rollback fail-stop recovery performs. *)

open Pcc_core
module Fault = Pcc_interconnect.Fault
module Simulator = Pcc_engine.Simulator
module Pool = Pcc_parallel.Pool
module Oracle = Pcc_oracle

let nodes = 6

let crash_profile ?(base = Fault.zero) ~seed ~restart () =
  let crashes =
    Fault.crash_schedule ~seed ~nodes ~victims:1 ~window:(3_000, 9_000)
      ?restart_after:(if restart then Some 5_000 else None) ()
  in
  { base with Fault.crashes }

(* The crash schedules below are not ones a descriptor derives, so each
   test builds its machine and hands it to the oracle's one verdict. *)
let checked sys programs =
  let report = Oracle.Runner.check sys programs in
  Alcotest.(check (list string)) "clean verdict" [] report.failures;
  Option.get report.result

let random_desc ~config_name ~seed =
  { Oracle.Trace.default with config_name; nodes; scale = 0.1; seed }

(* ---------------- crash/restart matrix ---------------- *)

let matrix_cell ~config_name ~chaos ~seed =
  let base = if chaos then Fault.drops ~seed:(seed + 1000) else Fault.zero in
  let profile = crash_profile ~base ~seed ~restart:true () in
  let desc = random_desc ~config_name ~seed in
  let config = Config.with_faults (Oracle.Trace.config_of_desc desc) profile in
  let result = checked (System.create ~config ()) (Oracle.Trace.programs_of_desc desc) in
  let stats = result.stats in
  Alcotest.(check int)
    (Printf.sprintf "%s: one crash" config_name)
    1 stats.Run_stats.crashes;
  Alcotest.(check int)
    (Printf.sprintf "%s: one restart" config_name)
    1 stats.Run_stats.restarts

let test_crash_restart_matrix () =
  List.iter
    (fun config_name ->
      matrix_cell ~config_name ~chaos:false ~seed:3;
      matrix_cell ~config_name ~chaos:true ~seed:4)
    [ "base"; "delegation"; "full" ]

(* ---------------- producer crash mid-delegation ---------------- *)

(* A hand-built producer-consumer line: node 1 produces steadily so the
   home (node 0) delegates the line to it; nodes 2 and 3 consume.  Node 1
   is then killed mid-delegation.  Recovery must revoke the delegation,
   rebuild the line at its original home, demote it to the base protocol,
   and keep serving the consumers — the run finishes without a stall. *)
let test_producer_crash_mid_delegation () =
  let line = Types.Layout.make_line ~home:0 ~index:1 in
  let programs =
    Array.init 4 (fun n ->
        match n with
        | 1 ->
            List.concat
              (List.init 40 (fun _ ->
                   [ Types.Access (Types.Store, line); Types.Compute 150 ]))
        | 2 | 3 ->
            List.concat
              (List.init 40 (fun _ ->
                   [ Types.Access (Types.Load, line); Types.Compute 150 ]))
        | _ -> [ Types.Compute 10 ])
  in
  let profile =
    {
      Fault.zero with
      crashes = [ { Fault.victim = 1; crash_at = 3_000; restart_after = Some 6_000 } ];
    }
  in
  let config = Config.with_faults (Config.full ~nodes:4 ()) profile in
  let sys = System.create ~config () in
  let delegated_at_crash = ref false in
  System.on_crash sys (fun ~time:_ ~node ~phase ->
      if phase = System.Crash_down then
        delegated_at_crash :=
          Directory.find (Node.directory (System.node sys 0)) line
          |> Option.fold ~none:false ~some:(fun (e : Directory.entry) ->
                 e.state = Directory.Dele && e.owner = node));
  let result = checked sys programs in
  Alcotest.(check bool) "line was delegated to the victim when it died" true
    !delegated_at_crash;
  Alcotest.(check bool) "delegation revoked by recovery" true
    (result.stats.Run_stats.crash_revoked >= 1);
  Alcotest.(check bool) "revocation demoted the line to the base protocol" true
    (result.stats.Run_stats.fallbacks >= 1);
  Alcotest.(check bool) "home fell back: line no longer delegated" true
    (not (Node.is_delegated_producer (System.node sys 1) line))

(* ---------------- permanent death ---------------- *)

(* The victim never restarts: it abandons its program at detection time
   and the survivors — who only touch lines homed on live nodes — must
   still finish and stay coherent. *)
let test_no_restart_survivors_finish () =
  let line_of home = Types.Layout.make_line ~home ~index:2 in
  let victim = 3 in
  let programs =
    Array.init 4 (fun n ->
        let target = line_of (n mod 3) in
        List.concat
          (List.init 30 (fun i ->
               [
                 Types.Access ((if i mod 3 = 0 then Types.Store else Types.Load), target);
                 Types.Compute 120;
               ])))
  in
  let profile =
    {
      Fault.zero with
      crashes = [ { Fault.victim; crash_at = 2_500; restart_after = None } ];
    }
  in
  let config = Config.with_faults (Config.full ~nodes:4 ()) profile in
  let sys = System.create ~config () in
  let result = checked sys programs in
  Alcotest.(check int) "one crash, no restart" 1 result.stats.Run_stats.crashes;
  Alcotest.(check int) "no restart recorded" 0 result.stats.Run_stats.restarts;
  Alcotest.(check bool) "victim stayed dead" true
    (not (System.node_alive sys victim))

(* ---------------- updates across a restart ---------------- *)

(* A producer pushed an update to node 1 after it crashed and before
   the crash was detected.  Recovery drops node 1 from every sharing
   vector, so the survivor's hub link must not re-send that push to the
   restarted node: it would cache a version no later invalidation
   reaches, and keep reading it (196 stale reads before the fix). *)
let test_restart_gets_no_orphan_update () =
  let workload =
    match Pcc_workload.Workload.of_spec ~nodes:6 ~scale:1.0 ~seed:2 "kv:events=20000" with
    | Ok w -> w
    | Error message -> Alcotest.fail message
  in
  let profile =
    {
      (Fault.drops ~seed:55) with
      Fault.crashes = [ { Fault.victim = 1; crash_at = 56_835; restart_after = Some 20_000 } ];
    }
  in
  let config = Config.with_faults (Config.small_full ~nodes:6 ()) profile in
  let sys = System.create ~config () in
  let result = System.run_stream sys (Pcc_workload.Workload.stream workload) in
  Alcotest.(check bool) "drained" true (result.outcome = Simulator.Drained);
  Alcotest.(check int) "one restart" 1 result.stats.Run_stats.restarts;
  Alcotest.(check int) "no stale reads" 0 result.violations

(* ---------------- a grant lost with its home ---------------- *)

(* pcc_oracle --profile outages --nodes 3 --crash 1 --seeds 3 --workload
   random: home node 0 crashes at cycle 10,569 while its exclusive grant
   to node 2 sits unacked in its own hub (link 0->2 is down).  Node 2's
   shared writeback from cycle 2,245 reached the home, but its ack was
   lost on that link, so the frame is still unacked at detection.  An
   Excl entry ignores a shared writeback, so recovery must rebuild the
   entry rather than wait for that frame; before the fix the home NACKed
   node 2's store to line 0@0 until the run stalled. *)
let test_lost_grant_rebuilt () =
  let desc =
    {
      Oracle.Trace.default with
      nodes = 3;
      seed = 3;
      chaos =
        Some
          {
            profile = "outages";
            crash = Seeded 1;
            restart_after = 5_000;
            txn_timeout = 2_000;
            fallback_threshold = 2;
          };
    }
  in
  let report = Oracle.Runner.run ~diff:false desc in
  Alcotest.(check (list string)) "clean verdict" [] report.failures

(* A home records Dele when it decides to delegate and sends the
   Delegate only after its directory and memory latency; one that
   crashed in between (mp, delegation, storm, seed 8: home 2 took node
   1's Get_exclusive at 3,960 and crashed at 3,984), or whose Delegate
   a lossy link kept from landing before the crash (random, full,
   drops, seed 53: home 0 sent node 2 the Delegate at 10,588 and crashed
   at 10,719), left the entry Dele at a live owner with no producer
   entry, which its own home NACKed Busy until the watchdog declared a
   stall.  Recovery now rebuilds such an entry from survivors. *)
let test_orphaned_delegation_rebuilt () =
  List.iter
    (fun (bench, config_name, protocol, profile, seed, txn_timeout, fallback_threshold) ->
      let desc =
        {
          Oracle.Trace.default with
          bench;
          config_name;
          protocol;
          nodes = 3;
          seed;
          chaos =
            Some
              {
                profile;
                crash = Seeded 1;
                restart_after = 5_000;
                txn_timeout;
                fallback_threshold;
              };
        }
      in
      let report = Oracle.Runner.run ~diff:false desc in
      Alcotest.(check (list string))
        (Printf.sprintf "%s %s %s seed %d" bench config_name profile seed)
        [] report.failures)
    [
      ("random", "full", Some Types.Adaptive, "drops", 53, 2_000, 2);
      ("litmus:test=mp", "delegation", None, "storm", 8, 5_000, 3);
    ]

(* ---------------- stale forwarded requests ---------------- *)

(* The home's Intervention or Transfer to a victim that crashed is still
   unacked in the home's hub at detection.  Requeued to the restarted
   node, it waited behind that node's next store and then gave away the
   fresh copy.  In the coRR full/storm cell the restarted node 1's L2
   copy then ran ahead of its own producer RAC copy (the audit aborted
   at cycle 9,216); in the coRR base/outages cell the home kept line 0@0
   Excl at node 1, which held it only Shared, and NACKed node 1's store
   until the run stalled.  Recovery now drops both requests with the
   victim's updates and re-serves their requester itself. *)
let test_stale_forwarded_dropped () =
  List.iter
    (fun (config_name, profile, seed) ->
      let desc =
        {
          Oracle.Trace.default with
          bench = "litmus:test=coRR";
          config_name;
          nodes = 3;
          seed;
          chaos =
            Some
              {
                profile;
                crash = Seeded 1;
                restart_after = 5_000;
                txn_timeout = 5_000;
                fallback_threshold = 3;
              };
        }
      in
      let report = Oracle.Runner.run ~diff:false desc in
      Alcotest.(check (list string))
        (Printf.sprintf "coRR %s %s seed %d" config_name profile seed)
        [] report.failures)
    [ ("full", "storm", 3); ("base", "outages", 1) ]

(* ---------------- telemetry recovery spans ---------------- *)

(* The recorder must turn the crash life cycle into one recovery span —
   down, detected, restarted marks all present — abort the victim's
   in-flight transaction span instead of leaving it open, and render the
   outage into the Perfetto export. *)
let test_recovery_spans () =
  let seed = 5 in
  let profile = crash_profile ~seed ~restart:true () in
  let desc = random_desc ~config_name:"full" ~seed in
  let config = Config.with_faults (Oracle.Trace.config_of_desc desc) profile in
  let programs = Oracle.Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  let recorder = Pcc_telemetry.Recorder.attach sys in
  let result = System.run_programs ~max_events:30_000_000 sys programs in
  Alcotest.(check bool) "drained" true (result.outcome = Simulator.Drained);
  let recoveries = Pcc_telemetry.Recorder.recoveries recorder in
  Alcotest.(check int) "one recovery span" 1 (List.length recoveries);
  let r = List.hd recoveries in
  let crash = List.hd profile.Fault.crashes in
  Alcotest.(check int) "victim matches the schedule" crash.Fault.victim
    r.Pcc_telemetry.Recorder.r_victim;
  Alcotest.(check int) "outage opens at the scheduled crash" crash.Fault.crash_at
    r.r_crash_at;
  Alcotest.(check bool) "detection recorded" true (r.r_detected_at <> None);
  Alcotest.(check bool) "restart recorded" true (r.r_restarted_at <> None);
  Alcotest.(check bool) "outage spans crash to restart" true
    (Pcc_telemetry.Recorder.outage_cycles r >= 5_000);
  Alcotest.(check int) "no dangling open spans" 0
    (Pcc_telemetry.Recorder.open_span_count recorder);
  (* the victim dies mid-transaction under this seed, and each recovery
     that aborted a transaction closed exactly one span as aborted *)
  Alcotest.(check bool) "the crash aborted a transaction" true r.r_aborted_txn;
  Alcotest.(check int) "abort counter consistent"
    (List.length (List.filter (fun r -> r.Pcc_telemetry.Recorder.r_aborted_txn) recoveries))
    (Pcc_telemetry.Recorder.aborted_span_count recorder);
  let json =
    Pcc_telemetry.Perfetto.json_of_spans ~recoveries
      (Pcc_telemetry.Recorder.spans recorder)
    |> Pcc_stats.Jsonl.to_string
  in
  Alcotest.(check bool) "perfetto export carries the outage slice" true
    (let contains needle hay =
       let n = String.length needle and h = String.length hay in
       let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
       go 0
     in
     contains "crash-outage" json && contains "recovery-sweep" json)

(* ---------------- determinism across pool widths ---------------- *)

let crash_sweep_tasks () =
  List.map
    (fun seed ->
      let key = Printf.sprintf "crash/seed%d" seed in
      ( key,
        fun () ->
          let desc = random_desc ~config_name:"full" ~seed in
          let profile = crash_profile ~seed ~restart:true () in
          let config = Config.with_faults (Oracle.Trace.config_of_desc desc) profile in
          let programs = Oracle.Trace.programs_of_desc desc in
          Run_export.to_string ~key (System.run ~config ~programs ()) ))
    [ 1; 2; 3; 4 ]

let test_crash_sweep_pool_width_bit_identity () =
  let sequential = Pool.run_keyed ~jobs:1 (crash_sweep_tasks ()) in
  let parallel = Pool.run_keyed ~jobs:2 (crash_sweep_tasks ()) in
  List.iteri
    (fun i (s, p) ->
      if s <> p then
        Alcotest.failf "crash sweep cell %d diverged between pool widths:\n%s\n%s" i s p)
    (List.combine sequential parallel)

(* ---------------- oracle rollback units ---------------- *)

let store c ~node line ~value ~time =
  Sc_check.commit c ~node ~kind:Types.Store ~line ~value ~started:time ~time

let load_ok c ~node line ~value ~started ~time =
  let before = Sc_check.violations c in
  Sc_check.commit c ~node ~kind:Types.Load ~line ~value ~started ~time;
  Sc_check.violations c = before

(* The per-location SC checker must accept exactly the rollback recovery
   performs: reading the surviving value after the victim's newer store
   vanished is legal, and only the victim's lost stores are forgiven. *)
let test_memcheck_crash_forget () =
  let c = Sc_check.create ~nodes:4 in
  store c ~node:1 1 ~value:10 ~time:100;
  store c ~node:2 1 ~value:20 ~time:200;
  Alcotest.(check bool) "lost version illegal before recovery" false
    (load_ok c ~node:3 1 ~value:10 ~started:300 ~time:350);
  Sc_check.crash c ~dead:2 ~surviving:(fun _ -> 10);
  Alcotest.(check bool) "surviving value legal after rollback" true
    (load_ok c ~node:0 1 ~value:10 ~started:400 ~time:450);
  (* a survivor's store above the surviving value is never expunged *)
  let c2 = Sc_check.create ~nodes:4 in
  store c2 ~node:1 1 ~value:10 ~time:100;
  store c2 ~node:3 1 ~value:20 ~time:200;
  Sc_check.crash c2 ~dead:2 ~surviving:(fun _ -> 10);
  Alcotest.(check bool) "survivor's store still current" true
    (load_ok c2 ~node:0 1 ~value:20 ~started:300 ~time:350)

let test_order_node_crashed () =
  let c = Sc_check.create ~nodes:4 in
  store c ~node:1 1 ~value:10 ~time:100;
  store c ~node:2 1 ~value:20 ~time:200;
  ignore (load_ok c ~node:0 1 ~value:20 ~started:210 ~time:250);
  Sc_check.crash c ~dead:2 ~surviving:(fun _ -> 10);
  (* node 0 re-reading the rolled-back value is not a regression *)
  Alcotest.(check bool) "survivor re-reads the rolled-back value" true
    (load_ok c ~node:0 1 ~value:10 ~started:300 ~time:350);
  (* the victim's fresh incarnation starts with no observation history *)
  Alcotest.(check bool) "restarted victim reads the rolled-back value" true
    (load_ok c ~node:2 1 ~value:10 ~started:300 ~time:360);
  Alcotest.(check int) "no violations" 0 (Sc_check.violations c);
  Alcotest.(check int) "lost store no longer anchors the order" 10
    (Sc_check.last_store c 1);
  Alcotest.(check int) "lost store uncounted" 1 (Sc_check.store_count c 1)

let suite =
  [
    Alcotest.test_case "crash/restart matrix stays coherent" `Slow
      test_crash_restart_matrix;
    Alcotest.test_case "producer crash mid-delegation is revoked, not stalled" `Quick
      test_producer_crash_mid_delegation;
    Alcotest.test_case "permanent death: survivors finish" `Quick
      test_no_restart_survivors_finish;
    Alcotest.test_case "restarted node receives no orphan update" `Quick
      test_restart_gets_no_orphan_update;
    Alcotest.test_case "home crash with a lost grant is rebuilt" `Quick
      test_lost_grant_rebuilt;
    Alcotest.test_case "home crash before its Delegate landed is rebuilt" `Quick
      test_orphaned_delegation_rebuilt;
    Alcotest.test_case "restarted node takes no stale forwarded request" `Quick
      test_stale_forwarded_dropped;
    Alcotest.test_case "recorder reconstructs recovery spans" `Quick
      test_recovery_spans;
    Alcotest.test_case "crash sweep bit-identical across pool widths" `Slow
      test_crash_sweep_pool_width_bit_identity;
    Alcotest.test_case "memory check forgives exactly the crash rollback" `Quick
      test_memcheck_crash_forget;
    Alcotest.test_case "order oracle forgives exactly the crash rollback" `Quick
      test_order_node_crashed;
  ]
