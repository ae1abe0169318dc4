(* Unit tests for the core protocol building blocks: node sets, the
   producer-consumer predictor, delegate cache, RAC, L2 model, directory,
   memory checker, messages, configs, and the hardware cost model. *)

open Pcc_core
module Rng = Pcc_engine.Rng

let rng () = Rng.create ~seed:0xF00

(* ---------------- Nodeset ---------------- *)

let test_nodeset_basics () =
  let s = Nodeset.of_list [ 3; 1; 7 ] in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 7 ] (Nodeset.to_list s);
  Alcotest.(check int) "cardinal" 3 (Nodeset.cardinal s);
  Alcotest.(check bool) "mem" true (Nodeset.mem s 3);
  Alcotest.(check bool) "not mem" false (Nodeset.mem s 4);
  Alcotest.(check bool) "empty" true (Nodeset.is_empty Nodeset.empty)

let test_nodeset_ops () =
  let a = Nodeset.of_list [ 0; 1; 2 ] and b = Nodeset.of_list [ 2; 3 ] in
  Alcotest.(check (list int)) "union" [ 0; 1; 2; 3 ] (Nodeset.to_list (Nodeset.union a b));
  Alcotest.(check (list int)) "diff" [ 0; 1 ] (Nodeset.to_list (Nodeset.diff a b));
  Alcotest.(check (list int)) "remove" [ 0; 2 ] (Nodeset.to_list (Nodeset.remove a 1));
  Alcotest.(check bool) "equal" true (Nodeset.equal a (Nodeset.of_list [ 2; 1; 0 ]));
  let sum = Nodeset.fold (fun n acc -> n + acc) a 0 in
  Alcotest.(check int) "fold" 3 sum

let test_nodeset_bounds () =
  Alcotest.check_raises "out of range" (Invalid_argument "Nodeset: node id out of range")
    (fun () -> ignore (Nodeset.singleton 62))

(* ---------------- Layout ---------------- *)

let test_layout_roundtrip () =
  let line = Types.Layout.make_line ~home:13 ~index:12345 in
  Alcotest.(check int) "home" 13 (Types.Layout.home_of_line line);
  Alcotest.(check int) "index" 12345 (Types.Layout.index_of_line line)

(* ---------------- Predictor ---------------- *)

let params = { Predictor.write_repeat_threshold = 3; reader_count_max = 3 }

let test_predictor_detects_pattern () =
  let e = Predictor.fresh () in
  Alcotest.(check bool) "initially not PC" false (Predictor.is_producer_consumer params e);
  (* ... W (R)+ W (R)+ W (R)+ W : saturates the 2-bit write-repeat counter *)
  for _ = 1 to 4 do
    Predictor.record_write params e ~writer:2;
    Predictor.record_read params e ~reader:5 ~unique:true
  done;
  Alcotest.(check bool) "detected" true (Predictor.is_producer_consumer params e);
  Alcotest.(check (option int)) "producer" (Some 2) (Predictor.producer e)

let test_predictor_needs_intervening_reads () =
  let e = Predictor.fresh () in
  for _ = 1 to 10 do
    Predictor.record_write params e ~writer:2
  done;
  Alcotest.(check bool) "write bursts alone are not PC" false
    (Predictor.is_producer_consumer params e)

let test_predictor_reset_on_writer_change () =
  let e = Predictor.fresh () in
  for _ = 1 to 4 do
    Predictor.record_write params e ~writer:2;
    Predictor.record_read params e ~reader:5 ~unique:true
  done;
  Predictor.record_write params e ~writer:3;
  Alcotest.(check bool) "pattern broken" false (Predictor.is_producer_consumer params e);
  Alcotest.(check (option int)) "new producer" (Some 3) (Predictor.producer e)

let test_predictor_reader_count_saturates () =
  let e = Predictor.fresh () in
  Predictor.record_write params e ~writer:1;
  for r = 2 to 12 do
    Predictor.record_read params e ~reader:r ~unique:true
  done;
  Alcotest.(check int) "saturated at 3" 3 (Predictor.reader_count e);
  Predictor.record_write params e ~writer:1;
  Alcotest.(check int) "reset on write" 0 (Predictor.reader_count e)

let test_predictor_nonunique_reads_ignored () =
  let e = Predictor.fresh () in
  Predictor.record_write params e ~writer:1;
  Predictor.record_read params e ~reader:2 ~unique:false;
  Alcotest.(check int) "no count" 0 (Predictor.reader_count e);
  Predictor.record_write params e ~writer:1;
  Alcotest.(check int) "repeat not incremented" 0 (Predictor.write_repeat e)

let test_predictor_storage () =
  Alcotest.(check int) "8 bits per entry" 8 (Predictor.storage_bits (Predictor.fresh ()))

(* ---------------- Delegate cache ---------------- *)

let test_producer_table_capacity () =
  let t = Delegate_cache.Producer.create ~rng:(rng ()) ~entries:8 ~ways:4 () in
  Alcotest.(check int) "capacity" 8 (Delegate_cache.Producer.capacity t);
  let evicted = ref 0 in
  for i = 0 to 19 do
    match Delegate_cache.Producer.insert t i i with
    | Delegate_cache.Producer.Inserted (Some _) -> incr evicted
    | Delegate_cache.Producer.Inserted None -> ()
    | Delegate_cache.Producer.Set_locked -> Alcotest.fail "nothing locked"
  done;
  Alcotest.(check int) "evictions" 12 !evicted;
  Alcotest.(check int) "full" 8 (Delegate_cache.Producer.size t)

let test_producer_table_locking () =
  let t = Delegate_cache.Producer.create ~rng:(rng ()) ~entries:4 ~ways:4 () in
  for i = 0 to 3 do
    ignore (Delegate_cache.Producer.insert t i i);
    Delegate_cache.Producer.lock t i
  done;
  (match Delegate_cache.Producer.insert t 99 99 with
  | Delegate_cache.Producer.Set_locked -> ()
  | _ -> Alcotest.fail "expected Set_locked");
  Delegate_cache.Producer.unlock t 0;
  match Delegate_cache.Producer.insert t 99 99 with
  | Delegate_cache.Producer.Inserted (Some (0, _)) -> ()
  | _ -> Alcotest.fail "expected eviction of unlocked entry"

let test_consumer_table_hints () =
  let t = Delegate_cache.Consumer.create ~rng:(rng ()) ~entries:8 ~ways:4 () in
  Alcotest.(check bool) "no eviction" false (Delegate_cache.Consumer.insert t 42 7);
  Alcotest.(check (option int)) "hint" (Some 7) (Delegate_cache.Consumer.find t 42);
  Delegate_cache.Consumer.remove t 42;
  Alcotest.(check (option int)) "stale removed" None (Delegate_cache.Consumer.find t 42)

let test_entry_sizes () =
  Alcotest.(check int) "producer entry (Fig 3)" 10 Delegate_cache.entry_bytes_producer;
  Alcotest.(check int) "consumer entry (Fig 3)" 6 Delegate_cache.entry_bytes_consumer

(* ---------------- RAC ---------------- *)

let test_rac_fill_lookup () =
  let r = Rac.create ~rng:(rng ()) ~lines:8 ~ways:4 () in
  Alcotest.(check bool) "fill" true (Rac.fill r 1 ~value:10 ~origin:Rac.Victim);
  Alcotest.(check (option int)) "lookup" (Some 10) (Rac.lookup r 1);
  Rac.invalidate r 1;
  Alcotest.(check (option int)) "invalidated" None (Rac.lookup r 1)

let test_rac_pinning_and_capacity () =
  let r = Rac.create ~rng:(rng ()) ~lines:4 ~ways:4 () in
  for i = 0 to 3 do
    Alcotest.(check bool) "pinned fill" true (Rac.fill r i ~value:i ~origin:Rac.Delegated)
  done;
  Alcotest.(check bool) "all pinned: fill fails" false
    (Rac.fill r 9 ~value:9 ~origin:Rac.Victim);
  Rac.unpin r 0;
  Alcotest.(check bool) "after unpin" true (Rac.fill r 9 ~value:9 ~origin:Rac.Victim)

let test_rac_update_accounting () =
  let r = Rac.create ~rng:(rng ()) ~lines:8 ~ways:4 () in
  ignore (Rac.fill r 1 ~value:5 ~origin:Rac.Pushed_update);
  ignore (Rac.fill r 2 ~value:6 ~origin:Rac.Pushed_update);
  ignore (Rac.lookup r 1);
  Rac.invalidate r 2;
  Alcotest.(check int) "consumed" 1 (Rac.updates_consumed r);
  Alcotest.(check int) "wasted" 1 (Rac.updates_wasted r);
  (* re-reading the same consumed entry does not double count *)
  ignore (Rac.lookup r 1);
  Alcotest.(check int) "no double count" 1 (Rac.updates_consumed r)

let test_rac_write () =
  let r = Rac.create ~rng:(rng ()) ~lines:8 ~ways:4 () in
  Alcotest.(check bool) "absent write" false (Rac.write r 3 ~value:1);
  ignore (Rac.fill r 3 ~value:1 ~origin:Rac.Victim);
  Alcotest.(check bool) "update in place" true (Rac.write r 3 ~value:9);
  Alcotest.(check (option int)) "new value" (Some 9) (Rac.peek r 3)

(* ---------------- L2 ---------------- *)

let test_l2_fill_and_eviction () =
  let l2 = L2.create ~rng:(rng ()) ~lines:4 ~ways:4 () in
  let entry value = L2.{ state = Shared; value; dirty = false } in
  for i = 0 to 3 do
    Alcotest.(check bool) "no eviction" true (L2.fill l2 i (entry i) = None)
  done;
  match L2.fill l2 99 (entry 99) with
  | Some { victim_line = _; victim_entry = { value; _ } } ->
      Alcotest.(check bool) "victim is an old line" true (value < 4)
  | None -> Alcotest.fail "expected eviction"

let test_l2_set_requires_residency () =
  let l2 = L2.create ~rng:(rng ()) ~lines:4 ~ways:4 () in
  Alcotest.check_raises "set absent" (Invalid_argument "L2.set: line not resident")
    (fun () -> L2.set l2 5 L2.{ state = Shared; value = 0; dirty = false })

let test_l2_invalidate () =
  let l2 = L2.create ~rng:(rng ()) ~lines:4 ~ways:4 () in
  ignore (L2.fill l2 1 L2.{ state = Exclusive; value = 3; dirty = true });
  (match L2.invalidate l2 1 with
  | Some L2.{ state = Exclusive; value = 3; dirty = true } -> ()
  | _ -> Alcotest.fail "expected old entry");
  Alcotest.(check bool) "gone" true (L2.peek l2 1 = None)

(* ---------------- Directory ---------------- *)

let dir_config = Config.base ~nodes:4 ()

let test_directory_entry_creation () =
  let d = Directory.create ~config:dir_config ~rng:(rng ()) ~home:2 in
  let line = Types.Layout.make_line ~home:2 ~index:0 in
  let e = Directory.entry d line in
  Alcotest.(check bool) "unowned" true (e.Directory.state = Directory.Unowned);
  Alcotest.check_raises "wrong home"
    (Invalid_argument "Directory.entry: line not homed at this node") (fun () ->
      ignore (Directory.entry d (Types.Layout.make_line ~home:1 ~index:0)))

let test_directory_cache_timing () =
  let d = Directory.create ~config:dir_config ~rng:(rng ()) ~home:0 in
  let line = Types.Layout.make_line ~home:0 ~index:7 in
  let first = Directory.access d line in
  Alcotest.(check bool) "first is a miss" false first.Directory.dir_cache_hit;
  Alcotest.(check int) "miss latency" dir_config.Config.dir_miss_latency
    first.Directory.latency;
  let second = Directory.access d line in
  Alcotest.(check bool) "second is a hit" true second.Directory.dir_cache_hit;
  Alcotest.(check int) "hit latency" dir_config.Config.dir_hit_latency
    second.Directory.latency

let test_directory_predictor_lost_on_eviction () =
  let config = { dir_config with Config.dir_cache_entries = 4; dir_cache_ways = 4 } in
  let d = Directory.create ~config ~rng:(rng ()) ~home:0 in
  let line i = Types.Layout.make_line ~home:0 ~index:i in
  let a = Directory.access d (line 0) in
  Predictor.record_write params a.Directory.predictor ~writer:1;
  (* flood the directory cache to evict line 0's predictor bits *)
  for i = 1 to 8 do
    ignore (Directory.access d (line i))
  done;
  let again = Directory.access d (line 0) in
  Alcotest.(check (option int)) "history lost" None
    (Predictor.producer again.Directory.predictor)

let test_directory_reset_predictor () =
  let d = Directory.create ~config:dir_config ~rng:(rng ()) ~home:0 in
  let line = Types.Layout.make_line ~home:0 ~index:3 in
  let a = Directory.access d line in
  Predictor.record_write params a.Directory.predictor ~writer:1;
  Directory.reset_predictor d line;
  let b = Directory.access d line in
  Alcotest.(check (option int)) "reset" None (Predictor.producer b.Directory.predictor)

(* ---------------- Memory check ---------------- *)

let test_memcheck_accepts_current () =
  let m = Memory_check.create () in
  Memory_check.store_committed m 1 ~value:10 ~time:100;
  Alcotest.(check bool) "current value ok" true
    (Memory_check.load_committed m 1 ~value:10 ~started:150 ~time:200);
  Alcotest.(check int) "no violations" 0 (Memory_check.violations m)

let test_memcheck_accepts_overlap () =
  let m = Memory_check.create () in
  Memory_check.store_committed m 1 ~value:10 ~time:100;
  Memory_check.store_committed m 1 ~value:20 ~time:180;
  (* a load in flight over the second store may return either value *)
  Alcotest.(check bool) "old overlapping ok" true
    (Memory_check.load_committed m 1 ~value:10 ~started:150 ~time:220);
  Alcotest.(check bool) "new ok" true
    (Memory_check.load_committed m 1 ~value:20 ~started:150 ~time:220)

let test_memcheck_rejects_stale () =
  let m = Memory_check.create () in
  Memory_check.store_committed m 1 ~value:10 ~time:100;
  Memory_check.store_committed m 1 ~value:20 ~time:150;
  Alcotest.(check bool) "stale rejected" false
    (Memory_check.load_committed m 1 ~value:10 ~started:200 ~time:250);
  Alcotest.(check int) "violation recorded" 1 (Memory_check.violations m);
  Alcotest.(check bool) "report produced" true (Memory_check.violation_report m <> [])

let test_memcheck_initial_zero () =
  let m = Memory_check.create () in
  Alcotest.(check bool) "zero-initialized memory" true
    (Memory_check.load_committed m 5 ~value:0 ~started:0 ~time:10)

(* ---------------- Message ---------------- *)

let test_message_sizes () =
  let line = Types.Layout.make_line ~home:0 ~index:0 in
  let wire = Message.wire_bytes ~line_bytes:128 in
  Alcotest.(check int) "request is header only" 16 (wire (Message.Get_shared { line; tid = 0 }));
  Alcotest.(check int) "data carries the line" (16 + 128)
    (wire (Message.Data_shared { line; value = 0; source_is_home = true; tid = 0 }));
  Alcotest.(check int) "delegate carries dir state" (16 + 128 + 8)
    (wire
       (Message.Delegate
          { line; sharers = Nodeset.empty; value = 0; acks_expected = 0; tid = 0 }));
  Alcotest.(check int) "undelegate without data" (16 + 8)
    (wire
       (Message.Undelegate
          { line; sharers = Nodeset.empty; owner = None; value = None; pending = None }))

let test_message_class_names_unique () =
  let line = Types.Layout.make_line ~home:0 ~index:0 in
  let messages =
    [
      Message.Get_shared { line; tid = 0 };
      Message.Get_exclusive { line; tid = 0 };
      Message.Writeback { line; value = 0 };
      Message.Writeback_ack { line };
      Message.Inval { line; requester = 0 };
      Message.Intervention { line; requester = 0; tid = 0 };
      Message.Transfer { line; requester = 0; tid = 0 };
      Message.Transfer_ack { line; new_owner = 0; value = None };
      Message.Data_shared { line; value = 0; source_is_home = true; tid = 0 };
      Message.Data_exclusive
        { line; value = 0; acks_expected = 0; sharers = Nodeset.empty; tid = 0 };
      Message.Inv_ack { line };
      Message.Shared_writeback { line; value = 0; new_sharer = 0 };
      Message.Nack { line; reason = Message.Busy; tid = 0 };
      Message.Delegate
        { line; sharers = Nodeset.empty; value = 0; acks_expected = 0; tid = 0 };
      Message.New_home { line; home = 0 };
      Message.Fwd_get_shared { line; requester = 0; tid = 0 };
      Message.Recall { line; requester = 0; kind = Types.Store };
      Message.Undelegate
        { line; sharers = Nodeset.empty; owner = None; value = None; pending = None };
      Message.Update { line; value = 0 };
    ]
  in
  let names = List.map Message.class_name messages in
  Alcotest.(check int) "distinct class names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* ---------------- Config / Hw_cost ---------------- *)

let test_config_presets () =
  let base = Config.base () in
  Alcotest.(check bool) "base has no rac" false base.Config.rac_enabled;
  let small = Config.small_full () in
  Alcotest.(check bool) "small full delegates" true small.Config.delegation_enabled;
  Alcotest.(check int) "small rac" (32 * 1024) small.Config.rac_bytes;
  let large = Config.large_full () in
  Alcotest.(check int) "large delegate entries" 1024 large.Config.delegate_entries;
  Alcotest.(check int) "large rac" (1024 * 1024) large.Config.rac_bytes;
  let dele_only = Config.delegation_only () in
  Alcotest.(check bool) "no updates" false dele_only.Config.speculative_updates

let test_config_describe () =
  Alcotest.(check string) "base" "Base" (Config.describe (Config.base ()));
  Alcotest.(check string) "small" "32-entry deledc & 32K RAC"
    (Config.describe (Config.small_full ()));
  Alcotest.(check string) "large" "1024-entry deledc & 1M RAC"
    (Config.describe (Config.large_full ()))

let test_config_of_name () =
  (* one table serves every CLI and oracle artifact: each listed name
     resolves, and an unknown one is an error that lists them all *)
  List.iter
    (fun name ->
      match Config.of_name ~nodes:4 name with
      | Ok config -> Alcotest.(check int) (name ^ " nodes") 4 config.Config.nodes
      | Error message -> Alcotest.fail message)
    Config.names;
  Alcotest.(check string) "msi is the snooping machine" "MSI snoop"
    (Config.describe (Result.get_ok (Config.of_name ~nodes:4 "msi")));
  match Config.of_name ~nodes:4 "nosuch" with
  | Ok _ -> Alcotest.fail "unknown machine accepted"
  | Error message ->
      List.iter
        (fun name ->
          Alcotest.(check bool) ("lists " ^ name) true
            (Astring_contains.contains message name))
        Config.names

let test_config_hop_latency () =
  let c = Config.with_hop_latency (Config.base ()) 50 in
  Alcotest.(check int) "hop set" 50 c.Config.network.Pcc_interconnect.Network.hop_latency

let test_hw_cost_small_config () =
  (* §3.3.1: 32-entry tables + 32KB RAC + 8KB predictor bits ~ 40KB *)
  let small = Config.small_full () in
  let total = Hw_cost.per_node_bytes small in
  Alcotest.(check int) "producer table" 320 (Hw_cost.producer_table_bytes ~entries:32);
  Alcotest.(check int) "predictor bits" 8192 (Hw_cost.predictor_bytes ~dir_cache_entries:8192);
  Alcotest.(check bool) "roughly 40KB" true (total > 40_000 && total < 43_000);
  Alcotest.(check int) "base has no overhead" 0 (Hw_cost.per_node_bytes (Config.base ()))

let suite =
  [
    Alcotest.test_case "nodeset basics" `Quick test_nodeset_basics;
    Alcotest.test_case "nodeset ops" `Quick test_nodeset_ops;
    Alcotest.test_case "nodeset bounds" `Quick test_nodeset_bounds;
    Alcotest.test_case "layout roundtrip" `Quick test_layout_roundtrip;
    Alcotest.test_case "predictor detects pattern" `Quick test_predictor_detects_pattern;
    Alcotest.test_case "predictor needs reads" `Quick test_predictor_needs_intervening_reads;
    Alcotest.test_case "predictor writer change" `Quick test_predictor_reset_on_writer_change;
    Alcotest.test_case "predictor reader saturation" `Quick
      test_predictor_reader_count_saturates;
    Alcotest.test_case "predictor nonunique reads" `Quick
      test_predictor_nonunique_reads_ignored;
    Alcotest.test_case "predictor storage" `Quick test_predictor_storage;
    Alcotest.test_case "producer table capacity" `Quick test_producer_table_capacity;
    Alcotest.test_case "producer table locking" `Quick test_producer_table_locking;
    Alcotest.test_case "consumer table hints" `Quick test_consumer_table_hints;
    Alcotest.test_case "delegate entry sizes" `Quick test_entry_sizes;
    Alcotest.test_case "rac fill/lookup" `Quick test_rac_fill_lookup;
    Alcotest.test_case "rac pinning capacity" `Quick test_rac_pinning_and_capacity;
    Alcotest.test_case "rac update accounting" `Quick test_rac_update_accounting;
    Alcotest.test_case "rac write" `Quick test_rac_write;
    Alcotest.test_case "l2 fill/eviction" `Quick test_l2_fill_and_eviction;
    Alcotest.test_case "l2 set residency" `Quick test_l2_set_requires_residency;
    Alcotest.test_case "l2 invalidate" `Quick test_l2_invalidate;
    Alcotest.test_case "directory entries" `Quick test_directory_entry_creation;
    Alcotest.test_case "directory cache timing" `Quick test_directory_cache_timing;
    Alcotest.test_case "predictor bits lost on eviction" `Quick
      test_directory_predictor_lost_on_eviction;
    Alcotest.test_case "directory reset predictor" `Quick test_directory_reset_predictor;
    Alcotest.test_case "memcheck current" `Quick test_memcheck_accepts_current;
    Alcotest.test_case "memcheck overlap" `Quick test_memcheck_accepts_overlap;
    Alcotest.test_case "memcheck stale" `Quick test_memcheck_rejects_stale;
    Alcotest.test_case "memcheck initial zero" `Quick test_memcheck_initial_zero;
    Alcotest.test_case "message sizes" `Quick test_message_sizes;
    Alcotest.test_case "message class names" `Quick test_message_class_names_unique;
    Alcotest.test_case "config presets" `Quick test_config_presets;
    Alcotest.test_case "config describe" `Quick test_config_describe;
    Alcotest.test_case "config of_name" `Quick test_config_of_name;
    Alcotest.test_case "config hop latency" `Quick test_config_hop_latency;
    Alcotest.test_case "hw cost (§3.3.1)" `Quick test_hw_cost_small_config;
  ]
