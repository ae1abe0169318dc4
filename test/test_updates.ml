(* Integration tests of delayed intervention + speculative updates (§2.4). *)

open Pcc_core

let line ?(home = 0) index = Types.Layout.make_line ~home ~index

let load l = Types.Access (Types.Load, l)

let store l = Types.Access (Types.Store, l)

let pc_programs ?(gap = 2000) ~nodes ~producer ~consumers ~lines ~epochs () =
  Array.init nodes (fun node ->
      List.concat
        (List.init epochs (fun e ->
             let produce = if node = producer then List.map store lines else [] in
             let consume = if List.mem node consumers then List.map load lines else [] in
             produce
             @ [ Types.Barrier ((2 * e) + 1); Types.Compute gap ]
             @ consume
             @ [ Types.Barrier ((2 * e) + 2) ])))

let run config programs =
  let result = System.run ~config ~programs () in
  Alcotest.(check int) "no SC violations" 0 result.System.violations;
  Alcotest.(check (list string)) "invariants hold" [] result.System.invariant_errors;
  result

let test_updates_flow_to_consumers () =
  let l = line 0 in
  let config = Config.full ~nodes:4 () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines:[ l ] ~epochs:10 () in
  let r = run config programs in
  Alcotest.(check bool) "updates sent" true (r.System.stats.Run_stats.updates_sent > 0);
  Alcotest.(check bool) "updates consumed" true
    (r.System.updates_consumed + r.System.stats.Run_stats.updates_as_reply > 0)

let test_updates_convert_remote_to_rac_hits () =
  let lines = List.init 4 (fun i -> line i) in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines ~epochs:12 () in
  let base = System.run ~config:(Config.base ~nodes:4 ()) ~programs () in
  let full = System.run ~config:(Config.full ~nodes:4 ()) ~programs () in
  Alcotest.(check int) "coherent" 0 full.System.violations;
  Alcotest.(check bool) "RAC hits appear" true (full.System.stats.Run_stats.rac_hits > 0);
  Alcotest.(check bool) "remote misses drop" true
    (Run_stats.remote_misses full.System.stats < Run_stats.remote_misses base.System.stats);
  Alcotest.(check bool) "execution faster" true (full.System.cycles < base.System.cycles)

let test_no_updates_without_flag () =
  let l = line 0 in
  let config = Config.delegation_only ~nodes:4 () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2 ] ~lines:[ l ] ~epochs:10 () in
  let r = run config programs in
  Alcotest.(check int) "no updates" 0 r.System.stats.Run_stats.updates_sent

let test_update_values_are_fresh () =
  (* consumers must read exactly the producer's last committed value;
     the memory checker would flag stale pushes *)
  let lines = List.init 3 (fun i -> line i) in
  let config = Config.full ~nodes:4 () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines ~epochs:15 () in
  let r = run config programs in
  Alcotest.(check bool) "many loads checked" true (r.System.stats.Run_stats.loads > 50)

let test_selective_updates_only_to_consumers () =
  (* node 3 never reads: after the sharing vector stabilizes it must not
     receive updates (selective updates, §2.4.2) *)
  let l = line 0 in
  let config = Config.full ~nodes:8 () in
  let t = System.create ~config () in
  let programs = pc_programs ~nodes:8 ~producer:1 ~consumers:[ 2 ] ~lines:[ l ] ~epochs:12 () in
  let result = System.run_programs t programs in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  (* only node 2 consumes: updates land in its RAC or answer its loads *)
  Alcotest.(check int) "non-consumers got nothing" 0 (Node.rac_updates_consumed (System.node t 3));
  Alcotest.(check bool) "consumer was served" true
    (Node.rac_updates_consumed (System.node t 2)
     + result.System.stats.Run_stats.updates_as_reply
    > 0)

let test_write_burst_single_push () =
  (* several stores in one epoch: the delayed intervention waits for the
     burst to end, so each epoch pushes once per consumer *)
  let l = line 0 in
  let config = Config.full ~nodes:4 () in
  let epochs = 10 in
  let programs =
    Array.init 4 (fun node ->
        List.concat
          (List.init epochs (fun e ->
               let produce = if node = 1 then [ store l; store l; store l ] else [] in
               let consume = if node = 2 then [ load l ] else [] in
               produce
               @ [ Types.Barrier ((2 * e) + 1); Types.Compute 2000 ]
               @ consume
               @ [ Types.Barrier ((2 * e) + 2) ])))
  in
  let r = run config programs in
  Alcotest.(check bool) "pushes bounded by epochs" true
    (r.System.stats.Run_stats.updates_sent <= epochs)

let test_early_read_forces_downgrade () =
  (* with a huge intervention delay, a consumer read arrives while the
     producer is still exclusive: the producer downgrades on demand *)
  let l = line 0 in
  let config = { (Config.full ~nodes:4 ()) with Config.intervention_delay = 40_000 } in
  let programs =
    pc_programs ~gap:10 ~nodes:4 ~producer:1 ~consumers:[ 2 ] ~lines:[ l ] ~epochs:10 ()
  in
  let r = run config programs in
  Alcotest.(check int) "still coherent" 0 r.System.violations

let test_update_as_reply () =
  (* a consumer whose read is in flight when the push arrives takes the
     update as the response (§2.4.3).  Barrier-separated epochs never
     overlap a read with a push; the key-value generator's unsynchronized
     readers do, dozens of times in 20,000 events *)
  let workload =
    match Pcc_workload.Workload.of_spec ~nodes:4 ~scale:1.0 ~seed:1 "kv:events=20000" with
    | Ok w -> w
    | Error e -> Alcotest.fail e
  in
  let r = run (Config.full ~nodes:4 ()) (Pcc_workload.Workload.programs workload) in
  Alcotest.(check bool) "some updates served reads" true
    (r.System.stats.Run_stats.updates_as_reply > 0)

let test_rac_pressure_wastes_updates () =
  (* a consumer whose RAC cannot hold the aggregated pushed working set of
     several producers loses updates (the Appbt effect, §3.3.4); a single
     producer cannot create this pressure because its own pinned backing
     entries are bounded by the same RAC *)
  let nodes = 6 in
  let epochs = 10 in
  let lines_of producer = List.init 8 (fun i -> line ((producer * 8) + i)) in
  let programs =
    Array.init nodes (fun node ->
        List.concat
          (List.init epochs (fun e ->
               let produce =
                 if node >= 1 && node <= 3 then List.map store (lines_of node) else []
               in
               let consume =
                 if node = 4 then
                   List.concat_map (fun p -> List.map load (lines_of p)) [ 1; 2; 3 ]
                 else []
               in
               produce
               @ [ Types.Barrier ((2 * e) + 1); Types.Compute 2000 ]
               @ consume
               @ [ Types.Barrier ((2 * e) + 2) ])))
  in
  let tiny_rac =
    { (Config.full ~nodes ()) with Config.rac_bytes = 8 * 128; rac_ways = 4 }
  in
  let r = run tiny_rac programs in
  let big = run (Config.full ~nodes ~rac_bytes:(1024 * 1024) ()) programs in
  Alcotest.(check bool) "tiny RAC wastes pushes" true
    (r.System.updates_wasted > big.System.updates_wasted);
  Alcotest.(check bool) "tiny RAC fewer rac hits" true
    (r.System.stats.Run_stats.rac_hits <= big.System.stats.Run_stats.rac_hits)

let test_updates_reduce_traffic_for_stable_sharing () =
  (* paper: for stable producer-consumer sharing the push mechanism sends
     less traffic than invalidate + refetch *)
  let lines = List.init 6 (fun i -> line i) in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines ~epochs:14 () in
  let base = System.run ~config:(Config.base ~nodes:4 ()) ~programs () in
  let full = System.run ~config:(Config.full ~nodes:4 ()) ~programs () in
  Alcotest.(check bool) "fewer messages than baseline" true
    (full.System.network_messages < base.System.network_messages)

let test_updates_are_fire_and_forget () =
  (* updates carry no per-push acknowledgment (that would erase the
     paper's traffic savings); the flush fence costs messages only when
     undelegation happens *)
  let lines = List.init 4 (fun i -> line i) in
  let config = Config.full ~nodes:4 () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines ~epochs:12 () in
  let r = run config programs in
  let classes = r.System.stats.Run_stats.message_classes in
  Alcotest.(check bool) "updates sent" true (Pcc_stats.Counter.get classes "update" > 0);
  let flushes = Pcc_stats.Counter.get classes "update-flush" in
  Alcotest.(check int) "flush acks balance flushes" flushes
    (Pcc_stats.Counter.get classes "update-flush-ack");
  Alcotest.(check bool) "flushes only on undelegation" true
    (flushes <= 3 * r.System.stats.Run_stats.undelegations
       + (3 * r.System.stats.Run_stats.delegation_refusals))

let test_undelegation_waits_for_acks () =
  (* a foreign writer recalls the line right after an update burst: the
     run must stay coherent (the fence prevents stale stragglers) *)
  let l = line 0 in
  let config = Config.full ~nodes:4 () in
  let programs =
    Array.init 4 (fun node ->
        List.concat
          (List.init 12 (fun e ->
               let produce = if node = 1 then [ store l ] else [] in
               (* every fourth epoch, once the predictor has seen three
                  repeats and delegated the line *)
               let steal = if node = 2 && e mod 4 = 3 then [ store l ] else [] in
               let consume = if node = 3 then [ load l ] else [] in
               produce
               @ [ Types.Barrier ((3 * e) + 1) ]
               @ steal
               @ [ Types.Barrier ((3 * e) + 2) ]
               @ consume
               @ [ Types.Barrier ((3 * e) + 3) ])))
  in
  let r = run config programs in
  Alcotest.(check bool) "exercised undelegation" true
    (r.System.stats.Run_stats.undelegations > 0);
  Alcotest.(check bool) "the undelegation waited for a flush round" true
    (Pcc_stats.Counter.get r.System.stats.Run_stats.message_classes "update-flush-ack" > 0)

let test_adaptive_intervention_delay () =
  (* §5 future work: the adaptive mechanism must remain coherent and keep
     pushing updates across varying burst lengths *)
  let l = line 0 in
  let config = { (Config.full ~nodes:4 ()) with Config.adaptive_intervention = true } in
  let epochs = 12 in
  let programs =
    Array.init 4 (fun node ->
        List.concat
          (List.init epochs (fun e ->
               let burst = 1 + (e mod 3) in
               let produce =
                 if node = 1 then List.init burst (fun _ -> store l) else []
               in
               let consume = if node = 2 then [ load l ] else [] in
               produce
               @ [ Types.Barrier ((2 * e) + 1); Types.Compute 3000 ]
               @ consume
               @ [ Types.Barrier ((2 * e) + 2) ])))
  in
  let r = run config programs in
  Alcotest.(check bool) "updates still flow" true (r.System.stats.Run_stats.updates_sent > 0)

let suite =
  [
    Alcotest.test_case "updates flow" `Quick test_updates_flow_to_consumers;
    Alcotest.test_case "updates remove remote misses" `Quick
      test_updates_convert_remote_to_rac_hits;
    Alcotest.test_case "no updates without flag" `Quick test_no_updates_without_flag;
    Alcotest.test_case "update values fresh" `Quick test_update_values_are_fresh;
    Alcotest.test_case "selective updates" `Quick test_selective_updates_only_to_consumers;
    Alcotest.test_case "write burst single push" `Quick test_write_burst_single_push;
    Alcotest.test_case "early read forces downgrade" `Quick test_early_read_forces_downgrade;
    Alcotest.test_case "update as reply" `Quick test_update_as_reply;
    Alcotest.test_case "RAC pressure wastes updates" `Quick test_rac_pressure_wastes_updates;
    Alcotest.test_case "updates reduce traffic" `Quick
      test_updates_reduce_traffic_for_stable_sharing;
    Alcotest.test_case "updates fire-and-forget" `Quick test_updates_are_fire_and_forget;
    Alcotest.test_case "undelegation waits for acks" `Quick
      test_undelegation_waits_for_acks;
    Alcotest.test_case "adaptive intervention" `Quick test_adaptive_intervention_delay;
  ]
