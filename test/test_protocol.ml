(* Integration tests of the base write-invalidate directory protocol:
   whole-system runs that check timing classes, message behaviour, value
   correctness and the §2.5 invariants. *)

open Pcc_core

let line ?(home = 1) index = Types.Layout.make_line ~home ~index

let load l = Types.Access (Types.Load, l)

let store l = Types.Access (Types.Store, l)

let run ?(config = Config.base ~nodes:4 ()) programs =
  let result = System.run ~config ~programs () in
  Alcotest.(check int) "no SC violations" 0 result.System.violations;
  Alcotest.(check (list string)) "invariants hold" [] result.System.invariant_errors;
  result

let programs_of lists = Array.of_list lists

let test_local_access () =
  let l = line ~home:0 0 in
  let r = run (programs_of [ [ store l; load l ]; []; []; [] ]) in
  Alcotest.(check int) "no network messages" 0 r.System.network_messages;
  Alcotest.(check int) "one local-mem miss" 1 r.System.stats.Run_stats.local_mem_misses;
  Alcotest.(check int) "load hits L2" 1 r.System.stats.Run_stats.l2_hits

let test_remote_read_is_2hop () =
  let l = line ~home:1 0 in
  let r = run (programs_of [ [ load l ]; []; []; [] ]) in
  Alcotest.(check int) "2-hop" 1 r.System.stats.Run_stats.remote_2hop;
  Alcotest.(check int) "request + data" 2 r.System.network_messages

let test_dirty_remote_read_is_3hop () =
  let l = line ~home:1 0 in
  (* node 2 writes (owner), then node 3 reads: home forwards an
     intervention, the data comes from the owner: 3 hops *)
  let r =
    run
      (programs_of
         [
           [ Types.Barrier 1 ];
           [ Types.Barrier 1 ];
           [ store l; Types.Barrier 1 ];
           [ Types.Barrier 1; load l ];
         ])
  in
  Alcotest.(check int) "one 3-hop read" 1 r.System.stats.Run_stats.remote_3hop;
  Alcotest.(check int) "one intervention" 1 r.System.stats.Run_stats.interventions_sent

let test_write_invalidates_sharers () =
  let l = line ~home:0 0 in
  let barrier i = Types.Barrier i in
  let programs =
    programs_of
      [
        [ barrier 1; store l; barrier 2 ];
        [ load l; barrier 1; barrier 2; load l ];
        [ load l; barrier 1; barrier 2; load l ];
        [ barrier 1; barrier 2 ];
      ]
  in
  let r = run programs in
  Alcotest.(check int) "two invalidations" 2 r.System.stats.Run_stats.invals_sent

let test_ownership_transfer () =
  let l = line ~home:0 0 in
  let programs =
    programs_of
      [
        [ Types.Barrier 1; Types.Barrier 2 ];
        [ store l; Types.Barrier 1; Types.Barrier 2 ];
        [ Types.Barrier 1; store l; Types.Barrier 2 ];
        [ Types.Barrier 1; Types.Barrier 2; load l ];
      ]
  in
  let r = run programs in
  (* the second write transfers ownership from node 1 to node 2 *)
  Alcotest.(check bool) "transfer happened" true
    (Pcc_stats.Counter.get r.System.stats.Run_stats.message_classes "transfer" >= 1);
  (* the final read must observe node 2's write *)
  Alcotest.(check int) "still coherent" 0 r.System.violations

let test_value_propagation () =
  (* ping-pong writes: each reader must see the latest committed value;
     the memory checker validates every load *)
  let l = line ~home:0 0 in
  let epochs = 10 in
  let programs =
    Array.init 4 (fun node ->
        List.concat
          (List.init epochs (fun e ->
               let writer = e mod 4 in
               let ops = if node = writer then [ store l ] else [] in
               ops @ [ Types.Barrier (e + 1); load l; Types.Barrier (1000 + e) ])))
  in
  let r = run programs in
  Alcotest.(check int) "loads all checked" (4 * epochs) r.System.stats.Run_stats.loads

let test_reload_flurry_nacks () =
  (* after a barrier, many nodes re-read the same invalidated line: the
     home goes busy and NACKs the losers (the em3d effect, §3.2) *)
  let l = line ~home:0 0 in
  let nodes = 8 in
  let config = Config.base ~nodes () in
  let programs =
    Array.init nodes (fun node ->
        List.concat
          (List.init 6 (fun e ->
               let ops = if node = 1 then [ store l ] else [] in
               ops @ [ Types.Barrier (e + 1); load l; Types.Barrier (100 + e) ])))
  in
  let result = System.run ~config ~programs () in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check bool) "NACKs observed" true
    (result.System.stats.Run_stats.nacks_received > 0)

let test_capacity_writeback () =
  (* a tiny L2 forces dirty evictions and writebacks to the home *)
  let config = { (Config.base ~nodes:2 ()) with Config.l2_bytes = 4 * 128; l2_ways = 4 } in
  let lines = List.init 12 (fun i -> line ~home:1 i) in
  let programs = programs_of [ List.map store lines @ List.map load lines; [] ] in
  let result = System.run ~config ~programs () in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check (list string)) "invariants" [] result.System.invariant_errors;
  Alcotest.(check bool) "writebacks happened" true
    (result.System.stats.Run_stats.writebacks > 0)

let test_writeback_race_resolution () =
  (* dirty eviction racing with a reader: the home serves the reader from
     the written-back data; nobody deadlocks *)
  let config = { (Config.base ~nodes:3 ()) with Config.l2_bytes = 2 * 128; l2_ways = 2 } in
  let victim_lines = List.init 8 (fun i -> line ~home:0 (100 + i)) in
  let l = line ~home:0 0 in
  let programs =
    programs_of
      [
        [];
        (* write l, then stream over victims to force l's eviction *)
        [ store l ] @ List.map store victim_lines;
        [ Types.Compute 500; load l; load l ];
      ]
  in
  let result = System.run ~config ~programs () in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check (list string)) "invariants" [] result.System.invariant_errors

let test_rac_victim_caching () =
  (* RAC-only config: a shared remote line evicted from the tiny L2 is
     recovered from the RAC as a local miss *)
  let config =
    { (Config.rac_only ~nodes:2 ()) with Config.l2_bytes = 2 * 128; l2_ways = 2 }
  in
  let l = line ~home:1 0 in
  let victims = List.init 6 (fun i -> line ~home:0 (50 + i)) in
  let programs = programs_of [ [ load l ] @ List.map load victims @ [ load l ]; [] ] in
  let result = System.run ~config ~programs () in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check bool) "RAC hit on re-read" true
    (result.System.stats.Run_stats.rac_hits >= 1)

let test_barrier_synchronization () =
  (* all nodes must leave a barrier only after everyone arrived *)
  let config = Config.base ~nodes:4 () in
  let t = System.create ~config () in
  let programs =
    Array.init 4 (fun node -> [ Types.Compute (node * 1000); Types.Barrier 1 ])
  in
  let result = System.run_programs t programs in
  Alcotest.(check bool) "finishes after slowest + barrier latency" true
    (result.System.cycles >= 3000 + config.Config.barrier_latency)

let test_sim_drains () =
  let l = line ~home:0 5 in
  let r = run (programs_of [ [ store l ]; [ load l ]; [ load l ]; [ load l ] ]) in
  Alcotest.(check bool) "drained" true (r.System.outcome = Pcc_engine.Simulator.Drained)

let test_deterministic_runs () =
  let app = Pcc_workload.Apps.em3d in
  let programs = Pcc_workload.Apps.programs app ~scale:0.1 ~nodes:8 () in
  let config = Config.small_full ~nodes:8 () in
  let a = System.run ~config ~programs () in
  let b = System.run ~config ~programs () in
  Alcotest.(check int) "same cycles" a.System.cycles b.System.cycles;
  Alcotest.(check int) "same messages" a.System.network_messages b.System.network_messages

(* The blocking processor has one operation in flight, an L2 hit waiting
   out its latency included: a second submission raises, and the hit
   still commits exactly once. *)
let test_submit_during_hit_raises () =
  let sys = System.create ~config:(Config.base ~nodes:2 ()) () in
  let sim = System.sim sys in
  let l = line ~home:0 0 in
  let commits = ref 0 in
  let on_commit () = incr commits in
  let drain () = ignore (Pcc_engine.Simulator.run sim : Pcc_engine.Simulator.outcome) in
  System.submit sys ~node:0 ~kind:Types.Load ~line:l ~on_commit;
  drain ();
  Alcotest.(check int) "the miss committed" 1 !commits;
  System.submit sys ~node:0 ~kind:Types.Load ~line:l ~on_commit;
  Alcotest.check_raises "a second operation during the hit"
    (Invalid_argument "Node.submit: operation already pending") (fun () ->
      System.submit sys ~node:0 ~kind:Types.Load ~line:l ~on_commit);
  drain ();
  Alcotest.(check int) "the hit committed once" 2 !commits

let suite =
  [
    Alcotest.test_case "local access" `Quick test_local_access;
    Alcotest.test_case "submit during an L2 hit raises" `Quick test_submit_during_hit_raises;
    Alcotest.test_case "remote read 2-hop" `Quick test_remote_read_is_2hop;
    Alcotest.test_case "dirty remote read 3-hop" `Quick test_dirty_remote_read_is_3hop;
    Alcotest.test_case "write invalidates sharers" `Quick test_write_invalidates_sharers;
    Alcotest.test_case "ownership transfer" `Quick test_ownership_transfer;
    Alcotest.test_case "value propagation" `Quick test_value_propagation;
    Alcotest.test_case "reload flurry NACKs" `Quick test_reload_flurry_nacks;
    Alcotest.test_case "capacity writebacks" `Quick test_capacity_writeback;
    Alcotest.test_case "writeback race" `Quick test_writeback_race_resolution;
    Alcotest.test_case "RAC victim caching" `Quick test_rac_victim_caching;
    Alcotest.test_case "barrier synchronization" `Quick test_barrier_synchronization;
    Alcotest.test_case "simulation drains" `Quick test_sim_drains;
    Alcotest.test_case "deterministic runs" `Quick test_deterministic_runs;
  ]
