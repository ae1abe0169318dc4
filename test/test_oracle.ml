(* The oracle subsystem's own tests: the JSONL codec and failure
   artifacts round-trip, the machine's SC checker accepts legal histories and
   rejects illegal ones, store-hit fallbacks keep the statistics
   identities, the online auditor catches the injected protocol fault,
   and — the headline property — oracle-checked runs of every benchmark
   come back clean, including the differential replay against the model
   checker. *)

open Pcc_core
module Oracle = Pcc_oracle
module Jsonl = Pcc_stats.Jsonl
module Q = QCheck

let line ~home ~index = Types.Layout.make_line ~home ~index

(* ---------------- JSONL codec ---------------- *)

let json_gen =
  let open Q.Gen in
  sized @@ fix (fun self n ->
      let leaf =
        oneof
          [
            return Jsonl.Null;
            map (fun b -> Jsonl.Bool b) bool;
            map (fun i -> Jsonl.Int i) small_signed_int;
            map (fun f -> Jsonl.Float (float_of_int f)) small_signed_int;
            map (fun s -> Jsonl.String s) string_printable;
          ]
      in
      if n <= 0 then leaf
      else
        frequency
          [
            (3, leaf);
            (1, map (fun l -> Jsonl.List l) (list_size (0 -- 4) (self (n / 2))));
            ( 1,
              map
                (fun kvs -> Jsonl.Obj kvs)
                (list_size (0 -- 4)
                   (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 6)) (self (n / 2))))
            );
          ])

let prop_jsonl_roundtrip =
  Q.Test.make ~count:300 ~name:"jsonl: to_string |> of_string is the identity"
    (Q.make json_gen)
    (fun v ->
      match Jsonl.of_string (Jsonl.to_string v) with
      | Ok v' -> v = v'
      | Error e -> Q.Test.fail_reportf "parse error: %s" e)

(* ---------------- failure artifacts ---------------- *)

(* A checked run's artifact is a flight dump: the descriptor, chaos
   fields included, the failure messages and the retained events must
   all come back from the file. *)
let test_trace_roundtrip () =
  let desc =
    {
      Oracle.Trace.default with
      bench = "em3d";
      protocol = Some Types.Msi;
      scale = 0.25;
      seed = 17;
      fault = true;
      max_events = 200;
      chaos =
        Some
          {
            profile = "storm";
            crash = Victims [ 1; 3 ];
            restart_after = 8_000;
            txn_timeout = 1_000;
            fallback_threshold = 1;
          };
    }
  in
  let ring = Flight_ring.create () in
  let inval = Message.Inval { line = line ~home:2 ~index:5; requester = 3 } in
  Flight_ring.record ring ~time:3 ~kind:Flight_ring.k_send
    ~detail:(Message.class_index inval) ~src:1 ~dst:2 ~line:(Message.line_of inval)
    ~arg:0;
  Flight_ring.record ring ~time:9 ~kind:Flight_ring.k_commit ~detail:1 ~src:4 ~dst:4
    ~line:(line ~home:0 ~index:1) ~arg:42;
  let failures = [ "boom"; "did not quiesce: run ended\n  node 0: store" ] in
  let path = Filename.temp_file "pcc-oracle" ".flight.json" in
  Flight_ring.write_dump ring ~path ~reason:"boom" ~time:9 ~nodes:6 ~config:"cfg"
    ~run:(Oracle.Trace.desc_to_json desc) ~failures;
  let dump = Flight_ring.read_dump path and reread = Oracle.Trace.read_desc ~path in
  Sys.remove path;
  (match dump with
  | Ok d ->
      Alcotest.(check (list string)) "failures round-trip" failures d.d_failures;
      Alcotest.(check bool) "events round-trip" true
        (List.length d.d_events = 2 && d.d_events = Flight_ring.events ring)
  | Error e -> Alcotest.failf "read_dump: %s" e);
  (match reread with
  | Ok desc' -> Alcotest.(check bool) "descriptor round-trips" true (desc = desc')
  | Error e -> Alcotest.failf "read_desc: %s" e);
  (* a descriptor naming no preset is rejected as pcc_chaos rejects it *)
  let nosuch c = { c with Oracle.Trace.profile = "nosuch" } in
  let unknown = { desc with chaos = Option.map nosuch desc.chaos } in
  Alcotest.(check (result unit string))
    "unknown profile rejected"
    (Error "unknown fault profile \"nosuch\"; valid profiles: drops, storm, outages")
    (Result.map ignore (Oracle.Trace.desc_of_json (Oracle.Trace.desc_to_json unknown)))

(* ---------------- SC checker ---------------- *)

let store c ~node ~line ~value ~time =
  Sc_check.commit c ~node ~kind:Types.Store ~line ~value ~started:time ~time

let load c ~node ~line ~value ~started ~time =
  Sc_check.commit c ~node ~kind:Types.Load ~line ~value ~started ~time

let test_order_accepts_legal () =
  let c = Sc_check.create ~nodes:4 in
  Sc_check.keep_history c;
  let l = line ~home:0 ~index:0 in
  load c ~node:2 ~line:l ~value:0 ~started:1 ~time:5;
  store c ~node:1 ~line:l ~value:10 ~time:10;
  load c ~node:2 ~line:l ~value:10 ~started:12 ~time:15;
  store c ~node:1 ~line:l ~value:20 ~time:20;
  (* started before the second store committed: still a legal window *)
  load c ~node:3 ~line:l ~value:10 ~started:18 ~time:25;
  load c ~node:2 ~line:l ~value:20 ~started:21 ~time:26;
  Alcotest.(check int) "no violations" 0 (Sc_check.violations c);
  Alcotest.(check int) "every commit counted" 6 (Sc_check.commits c);
  Alcotest.(check int) "stores counted" 2 (Sc_check.store_count c l);
  Alcotest.(check int) "last store" 20 (Sc_check.last_store c l);
  match Sc_check.linearize c with
  | [ (l', ops) ] ->
      Alcotest.(check bool) "same line" true (l = l');
      let shape =
        List.map
          (function
            | Sc_check.O_store { value; _ } -> `S value
            | Sc_check.O_load { value; _ } -> `L value)
          ops
      in
      Alcotest.(check bool) "serial shape" true
        (shape = [ `L 0; `S 10; `L 10; `L 10; `S 20; `L 20 ])
  | other -> Alcotest.failf "expected one line, got %d" (List.length other)

(* [f]'s history must hold exactly one offending commit. *)
let expect_order_violation name f =
  let c = Sc_check.create ~nodes:4 in
  f c;
  Alcotest.(check int) (name ^ ": one violation") 1 (Sc_check.violations c);
  Alcotest.(check int) (name ^ ": one report") 1
    (List.length (Sc_check.violation_report c))

let test_order_rejects_stale_read () =
  expect_order_violation "stale read" (fun c ->
      let l = line ~home:1 ~index:3 in
      store c ~node:0 ~line:l ~value:7 ~time:10;
      store c ~node:0 ~line:l ~value:9 ~time:20;
      (* started after version 9 committed, yet returned version 7 *)
      load c ~node:2 ~line:l ~value:7 ~started:30 ~time:35)

let test_order_rejects_nonmonotone () =
  expect_order_violation "non-monotone observation" (fun c ->
      let l = line ~home:0 ~index:1 in
      store c ~node:0 ~line:l ~value:5 ~time:10;
      store c ~node:0 ~line:l ~value:6 ~time:20;
      load c ~node:3 ~line:l ~value:6 ~started:25 ~time:30;
      (* legal window on its own (started before store 6), but node 3
         already observed the newer version *)
      load c ~node:3 ~line:l ~value:5 ~started:5 ~time:40)

let test_order_rejects_unknown_value () =
  expect_order_violation "load of a value never stored" (fun c ->
      let l = line ~home:0 ~index:2 in
      store c ~node:1 ~line:l ~value:3 ~time:10;
      load c ~node:2 ~line:l ~value:4 ~started:11 ~time:12)

let test_order_rejects_unserialized_store () =
  expect_order_violation "store below the newest version" (fun c ->
      let l = line ~home:2 ~index:4 in
      store c ~node:1 ~line:l ~value:8 ~time:10;
      store c ~node:2 ~line:l ~value:6 ~time:20)

(* A load both stale and non-monotone is one offending commit. *)
let test_order_counts_commits_once () =
  expect_order_violation "stale and non-monotone" (fun c ->
      let l = line ~home:0 ~index:5 in
      store c ~node:0 ~line:l ~value:5 ~time:10;
      store c ~node:0 ~line:l ~value:6 ~time:20;
      load c ~node:3 ~line:l ~value:6 ~started:25 ~time:30;
      load c ~node:3 ~line:l ~value:5 ~started:31 ~time:40)

(* ---------------- statistics identities ---------------- *)

(* A store that hits an exclusive L2 copy but loses it during the hit
   latency falls back to the miss path.  This run takes two such
   fallbacks; each access must count as an L2 hit or a miss, not both. *)
let test_store_hit_fallback_counted_once () =
  let nodes = 16 in
  let workload =
    match Pcc_workload.Workload.of_spec ~nodes ~scale:1.0 ~seed:7 "kv:events=50000" with
    | Ok w -> w
    | Error m -> Alcotest.fail m
  in
  let sys = System.create ~config:(Config.small_full ~nodes ()) () in
  let result = System.run_stream sys (Pcc_workload.Workload.stream workload) in
  Alcotest.(check (list string)) "statistics identities hold" []
    (Oracle.Stats_check.check sys result)

(* ---------------- fault injection ---------------- *)

(* Each backend's planted fault must be caught with a flight window
   attached, and the artifact it writes must carry that window and
   replay. *)
let fault_is_caught config_name =
  (* not every seed's workload reaches the corrupted window, so scan a
     few; the oracle must catch at least one *)
  let caught = ref None in
  let seed = ref 1 in
  let path = Filename.temp_file "pcc-oracle-fault" ".flight.json" in
  while !caught = None && !seed <= 10 do
    let desc = { Oracle.Trace.default with config_name; seed = !seed; fault = true } in
    let report = Oracle.Runner.run ~diff:false ~dump:path desc in
    if not (Oracle.Runner.clean report) then caught := Some report;
    incr seed
  done;
  let dump = Flight_ring.read_dump path and reread = Oracle.Trace.read_desc ~path in
  if Sys.file_exists path then Sys.remove path;
  match !caught with
  | None -> Alcotest.failf "%s: injected fault never caught in 10 seeds" config_name
  | Some report ->
      Alcotest.(check bool) (config_name ^ ": the run aborted online") true
        (report.result = None);
      Alcotest.(check bool) (config_name ^ ": events captured") true
        (report.events <> []);
      (* the dump holds the ring's whole retained window; the report's
         events are its last 64 *)
      let window = match dump with Ok d -> d.d_events | Error e -> Alcotest.fail e in
      let tail = List.filteri (fun i _ -> i >= List.length window - 64) window in
      Alcotest.(check bool) (config_name ^ ": artifact carries the window") true
        (tail = report.events);
      (match reread with
      | Ok desc -> Alcotest.(check bool) "artifact records the fault" true desc.fault
      | Error e -> Alcotest.failf "artifact unreadable: %s" e);
      (* the auditor checks a line as soon as a delivery changes it, so
         the adaptive machine's window ends at the receipt that broke the
         line, and the report names it and the shared invariant *)
      if config_name = "full" then begin
        let last = List.nth report.events (List.length report.events - 1) in
        Alcotest.(check string) "window ends at a receipt" "recv"
          (Flight_ring.kind_name last.e_kind);
        let names needle =
          List.exists (fun v -> Astring_contains.contains v needle) report.failures
        in
        Alcotest.(check bool) "the receipt's line is the violating line" true
          (names ("line " ^ Flight_ring.line_name last.e_line ^ ": "));
        Alcotest.(check bool) "caught by the directory invariant" true
          (names "consistency within the directory")
      end

let test_fault_is_caught () = List.iter fault_is_caught [ "full"; "msi" ]

let test_fault_free_config_ignores_flag () =
  (* the same workload under the baseline machine has no update path, so
     the fault flag must be inert there *)
  let desc = { Oracle.Trace.default with config_name = "base"; seed = 2; fault = true } in
  let report = Oracle.Runner.run ~diff:false desc in
  Alcotest.(check bool) "clean" true (Oracle.Runner.clean report)

(* ---------------- oracle-checked runs come back clean ---------------- *)

let clean_run desc =
  let report = Oracle.Runner.run ~max_lines:150 desc in
  if not (Oracle.Runner.clean report) then
    Alcotest.failf "%s/%s seed=%d: %s" desc.Oracle.Trace.bench
      desc.Oracle.Trace.config_name desc.Oracle.Trace.seed
      (String.concat "; " report.failures);
  match report.diff with
  | Some o ->
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s replayed something" desc.bench desc.config_name)
        true
        (o.Oracle.Diff.ops_replayed > 0)
  | None -> Alcotest.fail "differential replay did not run"

let test_all_benchmarks_clean () =
  let seed = 1 + (Test_seed.value mod 1000) in
  List.iter
    (fun (app : Pcc_workload.Apps.app) ->
      List.iter
        (fun config_name ->
          clean_run
            { Oracle.Trace.default with bench = app.name; config_name; scale = 0.1; seed })
        [ "base"; "full" ])
    Pcc_workload.Apps.all

let prop_random_runs_clean =
  Q.Test.make ~count:8 ~name:"oracle: seeded random runs are clean and convergent"
    Q.(pair small_int small_int)
    (fun (s, shape) ->
      let desc =
        {
          Oracle.Trace.default with
          config_name = (if shape mod 2 = 0 then "full" else "rac");
          nodes = 4 + (shape mod 3);
          scale = 0.1;
          seed = 1 + s;
        }
      in
      let report = Oracle.Runner.run ~max_lines:150 desc in
      if not (Oracle.Runner.clean report) then
        Q.Test.fail_reportf "seed %d: %s" desc.seed
          (String.concat "; " report.failures);
      true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_jsonl_roundtrip;
    Alcotest.test_case "trace artifact round-trips" `Quick test_trace_roundtrip;
    Alcotest.test_case "order: accepts a legal history" `Quick test_order_accepts_legal;
    Alcotest.test_case "order: rejects a stale read" `Quick test_order_rejects_stale_read;
    Alcotest.test_case "order: rejects non-monotone observation" `Quick
      test_order_rejects_nonmonotone;
    Alcotest.test_case "order: rejects an unknown value" `Quick
      test_order_rejects_unknown_value;
    Alcotest.test_case "order: rejects an unserialized store" `Quick
      test_order_rejects_unserialized_store;
    Alcotest.test_case "order: one violation per offending commit" `Quick
      test_order_counts_commits_once;
    Alcotest.test_case "stats: store-hit fallback is one miss" `Quick
      test_store_hit_fallback_counted_once;
    Alcotest.test_case "audit catches the injected fault" `Quick test_fault_is_caught;
    Alcotest.test_case "fault flag inert without updates" `Quick
      test_fault_free_config_ignores_flag;
    Alcotest.test_case "all benchmarks clean under the oracle" `Slow
      test_all_benchmarks_clean;
    QCheck_alcotest.to_alcotest prop_random_runs_clean;
  ]
