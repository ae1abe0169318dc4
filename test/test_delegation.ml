(* Integration tests of the directory-delegation mechanism (§2.3):
   detection-triggered delegation, request forwarding, consumer-table
   hints, and all three undelegation reasons. *)

open Pcc_core

let line ?(home = 0) index = Types.Layout.make_line ~home ~index

let load l = Types.Access (Types.Load, l)

let store l = Types.Access (Types.Store, l)

(* A producer-consumer epoch program: [producer] writes [lines], the
   [consumers] read them, separated by barriers. *)
let pc_programs ~nodes ~producer ~consumers ~lines ~epochs =
  Array.init nodes (fun node ->
      List.concat
        (List.init epochs (fun e ->
             let produce = if node = producer then List.map store lines else [] in
             let consume = if List.mem node consumers then List.map load lines else [] in
             produce @ [ Types.Barrier ((2 * e) + 1) ] @ consume
             @ [ Types.Barrier ((2 * e) + 2) ])))

let run config programs =
  let result = System.run ~config ~programs () in
  Alcotest.(check int) "no SC violations" 0 result.System.violations;
  Alcotest.(check (list string)) "invariants hold" [] result.System.invariant_errors;
  result

let test_delegation_triggers_after_detection () =
  let l = line ~home:0 0 in
  let config = Config.full ~nodes:4 () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines:[ l ] ~epochs:8 in
  let r = run config programs in
  Alcotest.(check int) "exactly one delegation" 1 r.System.stats.Run_stats.delegations;
  (* detection needs the write-repeat counter to saturate: the delegating
     write cannot be among the first three epochs' writes *)
  Alcotest.(check bool) "not instant" true (r.System.stats.Run_stats.delegations <= 1)

let test_no_delegation_when_disabled () =
  let l = line ~home:0 0 in
  let config = Config.rac_only ~nodes:4 () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines:[ l ] ~epochs:8 in
  let r = run config programs in
  Alcotest.(check int) "no delegations" 0 r.System.stats.Run_stats.delegations

let test_no_delegation_for_multi_writer () =
  (* alternating writers never saturate the write-repeat counter *)
  let l = line ~home:0 0 in
  let config = Config.full ~nodes:4 () in
  let programs =
    Array.init 4 (fun node ->
        List.concat
          (List.init 12 (fun e ->
               let writer = 1 + (e mod 2) in
               let ops = if node = writer then [ store l ] else [] in
               ops
               @ [ Types.Barrier ((2 * e) + 1) ]
               @ (if node = 3 then [ load l ] else [])
               @ [ Types.Barrier ((2 * e) + 2) ])))
  in
  let r = run config programs in
  Alcotest.(check int) "multi-writer line never delegated" 0
    r.System.stats.Run_stats.delegations

let test_delegated_state_visible () =
  let l = line ~home:0 0 in
  let config = Config.full ~nodes:4 () in
  let t = System.create ~config () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2 ] ~lines:[ l ] ~epochs:8 in
  let result = System.run_programs t programs in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check bool) "producer holds the delegation" true
    (Node.is_delegated_producer (System.node t 1) l);
  let dir = Node.directory (System.node t 0) in
  let entry = Directory.entry dir l in
  Alcotest.(check bool) "home is in Dele" true (entry.Directory.state = Directory.Dele);
  Alcotest.(check int) "owner is the producer" 1 entry.Directory.owner

let test_consumer_hint_learned () =
  let l = line ~home:0 0 in
  let config = Config.delegation_only ~nodes:4 () in
  let t = System.create ~config () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines:[ l ] ~epochs:10 in
  let result = System.run_programs t programs in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check (option int)) "consumer learned the delegated home" (Some 1)
    (Node.consumer_hint (System.node t 2) l)

let test_undelegation_on_foreign_write () =
  (* §2.3.3 reason 3: another node requests exclusive access *)
  let l = line ~home:0 0 in
  let config = Config.full ~nodes:4 () in
  let base = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines:[ l ] ~epochs:8 in
  let programs =
    Array.mapi
      (fun node ops ->
        if node = 2 then ops @ [ Types.Barrier 1000; store l ]
        else ops @ [ Types.Barrier 1000 ])
      base
  in
  let t = System.create ~config () in
  let result = System.run_programs t programs in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check (list string)) "invariants" [] result.System.invariant_errors;
  Alcotest.(check bool) "undelegated" true (result.System.stats.Run_stats.undelegations >= 1);
  Alcotest.(check bool) "producer dropped the line" true
    (not (Node.is_delegated_producer (System.node t 1) l));
  let entry = Directory.entry (Node.directory (System.node t 0)) l in
  Alcotest.(check bool) "home no longer Dele" true (entry.Directory.state <> Directory.Dele)

let test_undelegation_on_capacity () =
  (* §2.3.3 reason 1: producer-table replacement.  More producer-consumer
     lines than table entries force undelegations. *)
  let nodes = 4 in
  let config = { (Config.full ~nodes ()) with Config.delegate_entries = 4; delegate_ways = 4 } in
  let lines = List.init 12 (fun i -> line ~home:0 i) in
  let programs = pc_programs ~nodes ~producer:1 ~consumers:[ 2 ] ~lines ~epochs:14 in
  let r = run config programs in
  Alcotest.(check bool) "capacity undelegations" true
    (r.System.stats.Run_stats.undelegations > 0);
  Alcotest.(check bool) "table bounded" true (r.System.stats.Run_stats.delegations > 4)

let test_delegation_reduces_3hop () =
  (* a remote producer with remote consumers: delegation turns the 3-hop
     pattern into 2-hop operations *)
  let lines = List.init 4 (fun i -> line ~home:0 i) in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2; 3 ] ~lines ~epochs:12 in
  let base = System.run ~config:(Config.base ~nodes:4 ()) ~programs () in
  let dele = System.run ~config:(Config.delegation_only ~nodes:4 ()) ~programs () in
  Alcotest.(check int) "coherent" 0 dele.System.violations;
  Alcotest.(check bool) "3-hop misses reduced" true
    (dele.System.stats.Run_stats.remote_3hop < base.System.stats.Run_stats.remote_3hop)

let test_self_delegation_at_home () =
  (* first-touch data homed at its producer: delegation costs no messages
     and still enables the producer table *)
  let l = line ~home:1 0 in
  let config = Config.full ~nodes:4 () in
  let t = System.create ~config () in
  let programs = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2 ] ~lines:[ l ] ~epochs:8 in
  let result = System.run_programs t programs in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check bool) "home delegated to itself" true
    (Node.is_delegated_producer (System.node t 1) l)

let test_stale_hint_recovery () =
  (* after undelegation, consumers with stale hints are NACKed to the
     producer, drop the hint and retry at the home (§2.3.2) *)
  let l = line ~home:0 0 in
  let config =
    { (Config.full ~nodes:4 ()) with Config.delegate_entries = 4; delegate_ways = 4 }
  in
  let extra_lines = List.init 8 (fun i -> line ~home:0 (10 + i)) in
  let programs =
    Array.init 4 (fun node ->
        let epoch e lines =
          let produce = if node = 1 then List.map store lines else [] in
          let consume = if node = 2 then List.map load lines else [] in
          produce @ [ Types.Barrier ((2 * e) + 1) ] @ consume
          @ [ Types.Barrier ((2 * e) + 2) ]
        in
        List.concat
          (List.init 8 (fun e -> epoch e [ l ])
          (* extra producer-consumer lines overflow the 4-entry producer
             table, evicting l's delegation while consumers still hold
             hints for it *)
          @ List.init 8 (fun e -> epoch (50 + e) extra_lines)
          @ List.init 4 (fun e -> epoch (80 + e) [ l ])))
  in
  let r = run config programs in
  Alcotest.(check bool) "ran with undelegations" true
    (r.System.stats.Run_stats.undelegations >= 1)

(* A consumer that learned the delegated home writes while the
   producer's flush fence is up: the producer holds the request (no Busy
   NACK), runs one flush round, and the Undelegate carries the request
   home, which serves it. *)
let test_held_write_rides_undelegate () =
  let l = line ~home:0 0 in
  let config = Config.full ~nodes:4 () in
  let base = pc_programs ~nodes:4 ~producer:1 ~consumers:[ 2 ] ~lines:[ l ] ~epochs:8 in
  (* node 3 reads the delegated line (learning its home from New_home and
     joining the vector); the producer's next write pushes to it, and
     node 3's write then meets the fence *)
  let tail = function
    | 1 -> [ Types.Barrier 100; store l; Types.Barrier 101 ]
    | 3 -> [ load l; Types.Barrier 100; Types.Barrier 101; store l ]
    | _ -> [ Types.Barrier 100; Types.Barrier 101 ]
  in
  let programs = Array.mapi (fun node ops -> ops @ tail node) base in
  let t = System.create ~config () in
  let log = ref [] in
  System.on_message t (fun ~time:_ ~src ~dst msg -> log := (src, dst, msg) :: !log);
  let result = System.run_programs t programs in
  Alcotest.(check int) "coherent" 0 result.System.violations;
  Alcotest.(check (list string)) "invariants" [] result.System.invariant_errors;
  Alcotest.(check int) "no NACK" 0 result.System.stats.Run_stats.nacks_received;
  let rec after p = function [] -> [] | m :: rest -> if p m then rest else after p rest in
  let rec before p = function [] -> [] | m :: rest -> if p m then [] else m :: before p rest in
  let sent = List.rev !log in
  let held =
    after
      (function 3, 1, Message.Get_exclusive _ -> true | _ -> false)
      sent
  in
  if held = [] then Alcotest.fail "node 3's write never reached the producer";
  let carries_request = function
    | 1, 0, Message.Undelegate { pending = Some (3, _); _ } -> true
    | _ -> false
  in
  let flushes =
    List.filter_map
      (function 1, dst, Message.Update_flush _ -> Some dst | _ -> None)
      (before carries_request held)
  in
  Alcotest.(check bool) "one flush round" true
    (flushes <> [] && List.sort_uniq compare flushes = List.sort compare flushes);
  let home_side = after carries_request held in
  if home_side = [] then Alcotest.fail "no Undelegate carried the request";
  Alcotest.(check bool) "the home serves the carried request" true
    (List.exists
       (function
         | 0, 3, (Message.Data_exclusive _ | Message.Delegate _) -> true | _ -> false)
       home_side);
  Alcotest.(check bool) "the writer holds the line" true
    (match System.l2_entry t ~node:3 ~line:l with
    | Some { L2.state = L2.Exclusive; _ } -> true
    | Some _ | None -> false)

let suite =
  [
    Alcotest.test_case "delegation after detection" `Quick
      test_delegation_triggers_after_detection;
    Alcotest.test_case "disabled = no delegation" `Quick test_no_delegation_when_disabled;
    Alcotest.test_case "multi-writer not delegated" `Quick
      test_no_delegation_for_multi_writer;
    Alcotest.test_case "delegated state visible" `Quick test_delegated_state_visible;
    Alcotest.test_case "consumer hint learned" `Quick test_consumer_hint_learned;
    Alcotest.test_case "undelegation on foreign write" `Quick
      test_undelegation_on_foreign_write;
    Alcotest.test_case "undelegation on capacity" `Quick test_undelegation_on_capacity;
    Alcotest.test_case "delegation reduces 3-hop" `Quick test_delegation_reduces_3hop;
    Alcotest.test_case "self-delegation at home" `Quick test_self_delegation_at_home;
    Alcotest.test_case "stale hint recovery" `Quick test_stale_hint_recovery;
    Alcotest.test_case "held write rides the undelegation" `Quick
      test_held_write_rides_undelegate;
  ]
