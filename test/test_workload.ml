(* Tests of the workload generators: structure, determinism, and the
   Table 3 consumer distributions they are built to reproduce. *)

open Pcc_core
module Gen = Pcc_workload.Gen
module Apps = Pcc_workload.Apps
module Litmus = Pcc_workload.Litmus
module Rng = Pcc_engine.Rng

let count_ops p =
  Array.fold_left
    (fun (loads, stores, barriers) ops ->
      List.fold_left
        (fun (l, s, b) op ->
          match op with
          | Types.Access (Types.Load, _) -> (l + 1, s, b)
          | Types.Access (Types.Store, _) -> (l, s + 1, b)
          | Types.Barrier _ -> (l, s, b + 1)
          | Types.Compute _ -> (l, s, b))
        (loads, stores, barriers) ops)
    (0, 0, 0) p

(* The eager generator every paper app ran through before the apps
   streamed: it builds all of each node's program as a list, one epoch
   of every node at a time.  [Gen.stream] must reproduce it op for op. *)
let reference_programs (spec : Gen.app_spec) =
  assert (spec.nodes > 0 && spec.phases > 0 && spec.epochs_per_phase > 0);
  let node_rngs =
    Array.init spec.nodes (fun node -> Rng.create ~seed:(spec.seed + (node * 7919)))
  in
  let programs = Array.make spec.nodes [] in
  let push node op = programs.(node) <- op :: programs.(node) in
  let private_access node rng =
    if spec.private_lines_per_node > 0 then begin
      let index = Rng.int rng ~bound:spec.private_lines_per_node in
      let kind =
        if Rng.bool rng ~p:spec.private_write_fraction then Types.Store else Types.Load
      in
      push node (Types.Access (kind, Gen.private_line ~node index))
    end
  in
  let compute node rng budget =
    if budget > 0 then begin
      let jitter = Rng.int rng ~bound:(max 1 (budget / 4)) in
      push node (Types.Compute (budget + jitter))
    end
  in
  (* Precompute per-phase producer/consumer assignments once. *)
  let phase_roles =
    Array.init spec.phases (fun phase ->
        List.map
          (fun (role : Gen.line_role) ->
            let producer = role.producer_of_phase phase in
            let consumers =
              List.filter (fun c -> c <> producer) (role.consumers_of_phase phase)
            in
            (role, producer, consumers))
          spec.lines)
  in
  let barrier_counter = ref 0 in
  let next_barrier () =
    incr barrier_counter;
    !barrier_counter
  in
  for phase = 0 to spec.phases - 1 do
    let roles = phase_roles.(phase) in
    for _epoch = 0 to spec.epochs_per_phase - 1 do
      (* produce step *)
      for node = 0 to spec.nodes - 1 do
        let rng = node_rngs.(node) in
        compute node rng (spec.compute_per_epoch / 2);
        List.iter
          (fun ((role : Gen.line_role), producer, _) ->
            if producer = node then
              for _write = 1 to role.writes_per_epoch do
                push node (Types.Access (Types.Store, role.line))
              done)
          roles;
        for _access = 1 to spec.private_accesses_per_epoch / 2 do
          private_access node rng
        done
      done;
      let b1 = next_barrier () in
      for node = 0 to spec.nodes - 1 do
        push node (Types.Barrier b1)
      done;
      (* consume step *)
      for node = 0 to spec.nodes - 1 do
        let rng = node_rngs.(node) in
        List.iter
          (fun ((role : Gen.line_role), _, consumers) ->
            if List.mem node consumers then
              for _read = 1 to role.reads_per_epoch do
                push node (Types.Access (Types.Load, role.line))
              done)
          roles;
        for _access = 1 to spec.private_accesses_per_epoch - (spec.private_accesses_per_epoch / 2) do
          private_access node rng
        done;
        compute node rng (spec.compute_per_epoch - (spec.compute_per_epoch / 2))
      done;
      let b2 = next_barrier () in
      for node = 0 to spec.nodes - 1 do
        push node (Types.Barrier b2)
      done
    done
  done;
  Array.map List.rev programs

let test_generator_determinism () =
  let spec app = Apps.programs app ~scale:0.2 ~nodes:8 ~seed:5 () in
  List.iter
    (fun app ->
      let a = spec app and b = spec app in
      Alcotest.(check bool) (app.Apps.name ^ " deterministic") true (a = b))
    Apps.all

let test_generator_seed_sensitivity () =
  let a = Apps.programs Apps.barnes ~scale:0.2 ~nodes:8 ~seed:1 () in
  let b = Apps.programs Apps.barnes ~scale:0.2 ~nodes:8 ~seed:2 () in
  Alcotest.(check bool) "different seeds differ" false (a = b)

let test_all_apps_generate () =
  List.iter
    (fun app ->
      let p = Apps.programs app ~scale:0.1 ~nodes:16 () in
      Alcotest.(check int) (app.Apps.name ^ " one program per node") 16 (Array.length p);
      let loads, stores, barriers = count_ops p in
      Alcotest.(check bool) (app.Apps.name ^ " has loads") true (loads > 0);
      Alcotest.(check bool) (app.Apps.name ^ " has stores") true (stores > 0);
      Alcotest.(check bool) (app.Apps.name ^ " has barriers") true (barriers > 0))
    Apps.all

let test_barriers_symmetric () =
  (* every node executes the same multiset of barrier ids, otherwise the
     run would hang *)
  List.iter
    (fun app ->
      let p = Apps.programs app ~scale:0.1 ~nodes:8 () in
      let barrier_ids ops =
        List.filter_map (function Types.Barrier b -> Some b | _ -> None) ops
      in
      let reference = barrier_ids p.(0) in
      Array.iteri
        (fun i ops ->
          Alcotest.(check (list int))
            (Printf.sprintf "%s node %d barriers" app.Apps.name i)
            reference (barrier_ids ops))
        p)
    Apps.all

let test_scale_parameter () =
  let small = Gen.total_ops (Apps.programs Apps.lu ~scale:0.2 ~nodes:8 ()) in
  let big = Gen.total_ops (Apps.programs Apps.lu ~scale:1.0 ~nodes:8 ()) in
  Alcotest.(check bool) "scale grows work" true (big > 3 * small)

let test_find_by_name () =
  Alcotest.(check (option string)) "case-insensitive" (Some "Em3D")
    (Option.map (fun a -> a.Apps.name) (Apps.find "em3d"));
  Alcotest.(check bool) "unknown" true (Apps.find "spec2006" = None);
  Alcotest.(check int) "seven apps" 7 (List.length Apps.all)

let test_shared_private_disjoint () =
  let shared = Gen.shared_line ~home:3 17 in
  let priv = Gen.private_line ~node:3 17 in
  Alcotest.(check bool) "disjoint index spaces" false (shared = priv);
  Alcotest.(check int) "same home" (Types.Layout.home_of_line shared)
    (Types.Layout.home_of_line priv)

let test_consumer_samplers () =
  let rng = Pcc_engine.Rng.create ~seed:3 in
  Alcotest.(check (list int)) "ring" [ 5 ] (Gen.Consumers.ring_neighbor ~nodes:16 4);
  Alcotest.(check (list int)) "ring wraps" [ 0 ] (Gen.Consumers.ring_neighbor ~nodes:16 15);
  for _ = 1 to 100 do
    let sample = Gen.Consumers.sample ~rng ~nodes:8 ~exclude:3 ~count:4 in
    Alcotest.(check int) "count" 4 (List.length sample);
    Alcotest.(check bool) "excludes" false (List.mem 3 sample);
    Alcotest.(check int) "distinct" 4 (List.length (List.sort_uniq compare sample))
  done

let test_consumer_dist_sampler () =
  let rng = Pcc_engine.Rng.create ~seed:9 in
  let dist = [ (1, 0.5); (3, 0.5) ] in
  let ones = ref 0 and threes = ref 0 in
  for _ = 1 to 2000 do
    match List.length (Gen.Consumers.sample_dist ~rng ~nodes:16 ~exclude:0 ~dist) with
    | 1 -> incr ones
    | 3 -> incr threes
    | n -> Alcotest.failf "unexpected size %d" n
  done;
  let ratio = float_of_int !ones /. 2000.0 in
  Alcotest.(check bool) "roughly balanced" true (ratio > 0.45 && ratio < 0.55)

(* Measured consumer distribution: run the app and compare the Table 3
   buckets against the paper's numbers for the strongly-shaped apps. *)
let consumer_fractions app =
  (* the write-repeat counter needs four writes to saturate, so the run
     must be long enough for detection (MG has only 10 epochs at scale 1) *)
  let programs = Apps.programs app ~scale:0.8 ~nodes:16 () in
  let result = System.run ~config:(Config.large_full ()) ~programs () in
  Alcotest.(check int) (app.Apps.name ^ " coherent") 0 result.System.violations;
  let h = result.System.stats.Run_stats.consumer_hist in
  let frac n = 100.0 *. Pcc_stats.Histogram.fraction h n in
  let frac_ge n = 100.0 *. Pcc_stats.Histogram.fraction_ge h n in
  (frac 1, frac 2, frac 3, frac 4, frac_ge 5)

let test_table3_ocean () =
  let c1, _, _, _, c4plus = consumer_fractions Apps.ocean in
  Alcotest.(check bool) "Ocean ~97.7% single consumer" true (c1 > 90.0);
  Alcotest.(check bool) "Ocean few wide" true (c4plus < 5.0)

let test_table3_em3d () =
  let c1, c2, _, _, _ = consumer_fractions Apps.em3d in
  Alcotest.(check bool) "Em3D mostly 1 (67.8%)" true (c1 > 55.0 && c1 < 80.0);
  Alcotest.(check bool) "Em3D rest 2 (32.2%)" true (c2 > 20.0 && c2 < 45.0)

let test_table3_lu () =
  let c1, _, _, _, _ = consumer_fractions Apps.lu in
  Alcotest.(check bool) "LU ~99.4% single consumer" true (c1 > 95.0)

let test_table3_mg () =
  let _, _, _, _, c4plus = consumer_fractions Apps.mg in
  Alcotest.(check bool) "MG ~91.6% wide" true (c4plus > 80.0)

let test_table3_cg () =
  let _, _, _, _, c4plus = consumer_fractions Apps.cg in
  Alcotest.(check bool) "CG ~99.7% wide (detected lines)" true (c4plus > 90.0)

let test_trace_runs () =
  (* a hand-written program executes and stays coherent: node 0 stores a
     line it homes, node 1 reads it after the barrier *)
  let line = Types.Layout.make_line ~home:0 ~index:1 in
  let programs =
    [|
      [ Types.Access (Types.Store, line); Types.Barrier 1 ];
      [ Types.Barrier 1; Types.Access (Types.Load, line) ];
    |]
  in
  let r = System.run ~config:(Config.base ~nodes:2 ()) ~programs () in
  Alcotest.(check int) "coherent" 0 r.System.violations;
  Alcotest.(check int) "one remote read" 1 r.System.stats.Run_stats.remote_2hop

(* ------------------------------------------------------------------ *)
(* Workload registry (Workload.of_spec) and streaming generators        *)
(* ------------------------------------------------------------------ *)

module Workload = Pcc_workload.Workload

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec scan i = i + n <= h && (String.sub haystack i n = needle || scan (i + 1)) in
  scan 0

let resolve spec =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 spec with
  | Ok w -> w
  | Error m -> Alcotest.failf "%s: %s" spec m

let test_registry_resolves_all () =
  (* every registered name except trace (which requires file=) resolves
     with defaults, and its describe string re-resolves to itself *)
  List.iter
    (fun name ->
      if name <> "trace" then begin
        let w = resolve name in
        Alcotest.(check bool)
          (name ^ " nodes positive") true
          (Workload.nodes w > 0);
        let described = Workload.describe w in
        let w' = resolve described in
        Alcotest.(check string)
          (name ^ " describe respawnable") described (Workload.describe w')
      end)
    (Workload.names ())

let test_registry_rejects_unknown_name () =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 "nosuchworkload" with
  | Ok _ -> Alcotest.fail "unknown name accepted"
  | Error m ->
      Alcotest.(check bool) "names the offender" true
        (contains ~needle:"nosuchworkload" m);
      (* the full valid-name list is part of the contract *)
      List.iter
        (fun name ->
          Alcotest.(check bool) ("lists " ^ name) true (contains ~needle:name m))
        (Workload.names ())

let test_registry_suggests_close_name () =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 "pubsup" with
  | Ok _ -> Alcotest.fail "misspelling accepted"
  | Error m ->
      Alcotest.(check bool) "suggests pubsub" true (contains ~needle:"pubsub" m)

let test_registry_rejects_unknown_key () =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 "kv:bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error m ->
      Alcotest.(check bool) "names the key" true (contains ~needle:"bogus" m);
      Alcotest.(check bool) "lists a valid key" true (contains ~needle:"skew" m)

let test_registry_rejects_malformed_value () =
  match Workload.of_spec ~nodes:8 ~scale:0.1 ~seed:5 "kv:skew=banana" with
  | Ok _ -> Alcotest.fail "malformed value accepted"
  | Error _ -> ()

let test_streaming_generator_determinism () =
  (* same spec, two independent resolutions: the drained streams are
     identical op for op *)
  List.iter
    (fun spec ->
      let a = Workload.programs (resolve spec) in
      let b = Workload.programs (resolve spec) in
      Alcotest.(check bool) (spec ^ " deterministic") true (a = b))
    [
      "kv:events=2000,seed=3";
      "pubsub:events=2000,seed=3";
      "worksteal:events=2000,seed=3";
      "mpsc:events=2000,seed=3";
    ]

let test_streaming_generator_skew_knob () =
  (* the consumer-distribution knob actually changes the access pattern *)
  List.iter
    (fun name ->
      let spec skew = Printf.sprintf "%s:events=2000,seed=3,skew=%s" name skew in
      let flat = Workload.programs (resolve (spec "0.2")) in
      let peaked = Workload.programs (resolve (spec "1.6")) in
      Alcotest.(check bool) (name ^ " skew changes stream") false (flat = peaked))
    [ "kv"; "pubsub"; "worksteal"; "mpsc" ]

let test_streaming_matches_materialized () =
  (* a registry spec reaches the app with the CLI's scale, seed and
     node count: it streams exactly what Apps.programs drains *)
  List.iter
    (fun (name, app) ->
      let w = resolve name in
      let via_registry = Workload.programs w in
      let direct = Apps.programs app ~scale:0.1 ~seed:5 ~nodes:8 () in
      Alcotest.(check bool) (name ^ " matches Apps.programs") true
        (via_registry = direct))
    [ ("em3d", Apps.em3d); ("ocean", Apps.ocean); ("lu", Apps.lu) ]

(* Each registered generator's stream, drained, equals the eager
   reference op for op, and its declared access count is the drained
   one: the seven apps over a grid of machines, seeds and run lengths,
   [random] over every machine from 2 to 16 nodes, and [prodcons]. *)
let test_streams_match_reference () =
  let check ~nodes ~scale ~seed name spec =
    let described =
      Printf.sprintf "%s (nodes %d, scale %g, seed %d)" name nodes scale seed
    in
    let w =
      match Workload.of_spec ~nodes ~scale ~seed name with
      | Ok w -> w
      | Error m -> Alcotest.failf "%s: %s" described m
    in
    let drained = Workload.programs w in
    let reference = reference_programs spec in
    if drained <> reference then
      Alcotest.failf "%s: stream differs from the reference" described;
    Alcotest.(check (option int))
      (described ^ " accesses") (Some (Gen.total_ops reference)) (Workload.total_accesses w)
  in
  List.iter
    (fun (app : Apps.app) ->
      let name = String.lowercase_ascii app.Apps.name in
      List.iter
        (fun nodes ->
          List.iter
            (fun seed ->
              List.iter
                (fun scale ->
                  check ~nodes ~scale ~seed name (app.Apps.spec ~scale ~nodes ~seed))
                [ 0.1; 0.5; 1.0 ])
            [ 1; 7; 42 ])
        [ 2; 4; 8; 16 ])
    Apps.all;
  for nodes = 2 to 16 do
    List.iter
      (fun seed -> check ~nodes ~scale:1.0 ~seed "random" (Gen.random_spec ~nodes ~seed))
      [ 1; 5; 99 ]
  done;
  List.iter
    (fun (nodes, scale) ->
      check ~nodes ~scale ~seed:3 "prodcons" (Workload.prodcons_spec ~nodes ~scale ~seed:3))
    [ (1, 0.15); (4, 0.15); (8, 0.5); (16, 1.0) ]

(* A machine smaller than a workload's minimum is a spec error from
   [of_spec], never an exception out of a generator; at the minimum the
   workload resolves and a full pass drains.  Every registry name but
   [trace] (which takes its node count from the file) is listed. *)
let test_registry_rejects_too_few_nodes () =
  let litmus =
    List.hd (List.sort (fun a b -> compare (Litmus.nodes a) (Litmus.nodes b)) Litmus.corpus)
  in
  let minimums =
    [
      ("barnes", 2, "");
      ("ocean", 1, "");
      ("em3d", 2, "");
      ("lu", 1, "");
      ("cg", 2, "");
      ("mg", 2, "");
      ("appbt", 2, "");
      ("random", 2, "");
      ("prodcons", 1, "");
      ("kv", 2, ":events=2000");
      ("pubsub", 2, ":events=2000");
      ("worksteal", 2, ":events=2000");
      ("mpsc", 3, ":events=2000");
      ("litmus", Litmus.nodes litmus, ":test=" ^ litmus.Litmus.name);
    ]
  in
  List.iter
    (fun name ->
      if name <> "trace" && not (List.exists (fun (n, _, _) -> n = name) minimums) then
        Alcotest.failf "%s: no minimum node count listed" name)
    (Workload.names ());
  List.iter
    (fun (name, minimum, params) ->
      let spec = name ^ params in
      (match Workload.of_spec ~nodes:(minimum - 1) ~scale:0.1 ~seed:5 spec with
      | exception e ->
          Alcotest.failf "%s on %d nodes raised %s" spec (minimum - 1)
            (Printexc.to_string e)
      | Ok _ -> Alcotest.failf "%s accepted %d nodes" spec (minimum - 1)
      | Error m ->
          Alcotest.(check bool) (spec ^ " names the minimum") true
            (contains ~needle:(Printf.sprintf "needs at least %d nodes" minimum) m));
      match Workload.of_spec ~nodes:minimum ~scale:0.1 ~seed:5 spec with
      | Error m -> Alcotest.failf "%s on %d nodes: %s" spec minimum m
      | Ok w ->
          Alcotest.(check int) (spec ^ " nodes") minimum (Workload.nodes w);
          Alcotest.(check int)
            (spec ^ " drains") minimum
            (Array.length (Workload.programs w)))
    minimums

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
    Alcotest.test_case "seed sensitivity" `Quick test_generator_seed_sensitivity;
    Alcotest.test_case "all apps generate" `Quick test_all_apps_generate;
    Alcotest.test_case "barriers symmetric" `Quick test_barriers_symmetric;
    Alcotest.test_case "scale parameter" `Quick test_scale_parameter;
    Alcotest.test_case "find by name" `Quick test_find_by_name;
    Alcotest.test_case "shared/private disjoint" `Quick test_shared_private_disjoint;
    Alcotest.test_case "consumer samplers" `Quick test_consumer_samplers;
    Alcotest.test_case "consumer dist sampler" `Quick test_consumer_dist_sampler;
    Alcotest.test_case "trace runs" `Quick test_trace_runs;
    Alcotest.test_case "registry resolves all" `Quick test_registry_resolves_all;
    Alcotest.test_case "registry rejects unknown name" `Quick
      test_registry_rejects_unknown_name;
    Alcotest.test_case "registry suggests close name" `Quick
      test_registry_suggests_close_name;
    Alcotest.test_case "registry rejects unknown key" `Quick
      test_registry_rejects_unknown_key;
    Alcotest.test_case "registry rejects malformed value" `Quick
      test_registry_rejects_malformed_value;
    Alcotest.test_case "streaming generator determinism" `Quick
      test_streaming_generator_determinism;
    Alcotest.test_case "streaming generator skew knob" `Quick
      test_streaming_generator_skew_knob;
    Alcotest.test_case "streaming matches materialized" `Quick
      test_streaming_matches_materialized;
    Alcotest.test_case "streams match the eager reference" `Quick
      test_streams_match_reference;
    Alcotest.test_case "registry rejects too few nodes" `Quick
      test_registry_rejects_too_few_nodes;
    Alcotest.test_case "Table 3: Ocean" `Slow test_table3_ocean;
    Alcotest.test_case "Table 3: Em3D" `Slow test_table3_em3d;
    Alcotest.test_case "Table 3: LU" `Slow test_table3_lu;
    Alcotest.test_case "Table 3: MG" `Slow test_table3_mg;
    Alcotest.test_case "Table 3: CG" `Slow test_table3_cg;
  ]
