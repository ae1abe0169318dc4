(* Tests of the model checker and the abstract protocol models (§2.5). *)

module Checker = Pcc_mcheck.Checker
module Protocol_model = Pcc_mcheck.Protocol_model

(* A trivial counter model to validate the checker engine itself. *)
module Counter_model = struct
  type state = int

  let initial = [ 0 ]

  let successors n = if n >= 5 then [] else [ (Printf.sprintf "inc-%d" n, n + 1) ]

  let por = None

  let invariants = [ ("below 10", fun n -> n < 10) ]

  let is_quiescent n = n = 5

  let encode = string_of_int

  let pp = Format.pp_print_int
end

module Bad_counter_model = struct
  include Counter_model

  let invariants = [ ("below 3", fun n -> n < 3) ]
end

module Stuck_model = struct
  include Counter_model

  let successors n = if n >= 2 then [] else [ ("inc", n + 1) ]
  (* quiescence still requires 5: state 2 is a deadlock *)
end

let test_checker_ok () =
  match Checker.run (module Counter_model) () with
  | Checker.Ok stats ->
      Alcotest.(check int) "six states" 6 stats.Checker.states_explored;
      Alcotest.(check bool) "exhaustive" true stats.Checker.complete;
      Alcotest.(check int) "depth" 5 stats.Checker.max_depth
  | _ -> Alcotest.fail "expected Ok"

let test_checker_finds_violation () =
  match Checker.run (module Bad_counter_model) () with
  | Checker.Invariant_violation { invariant; trace; state; _ } ->
      Alcotest.(check string) "which invariant" "below 3" invariant;
      Alcotest.(check int) "violating state" 3 state;
      Alcotest.(check (list string)) "counterexample" [ "inc-0"; "inc-1"; "inc-2" ] trace
  | _ -> Alcotest.fail "expected violation"

let test_checker_finds_deadlock () =
  match Checker.run (module Stuck_model) () with
  | Checker.Deadlock { state; trace; _ } ->
      Alcotest.(check int) "stuck state" 2 state;
      Alcotest.(check int) "trace length" 2 (List.length trace)
  | _ -> Alcotest.fail "expected deadlock"

let test_checker_bound () =
  match Checker.run (module Counter_model) ~max_states:3 () with
  | Checker.Ok stats -> Alcotest.(check bool) "not exhaustive" false stats.Checker.complete
  | _ -> Alcotest.fail "expected bounded Ok"

(* state-type-free summary so the locally unpacked model type does not
   escape *)
type summary =
  | S_ok of Checker.stats
  | S_violation of string * int  (* invariant name, trace length *)
  | S_deadlock of int

let summarize outcome =
  match outcome with
  | Checker.Ok stats -> S_ok stats
  | Checker.Invariant_violation { invariant; trace; _ } ->
      S_violation (invariant, List.length trace)
  | Checker.Deadlock { trace; _ } -> S_deadlock (List.length trace)

let run_model ?(max_states = 3_000_000) params =
  let (module M) = Protocol_model.make params in
  summarize (Checker.run (module M) ~max_states ())

let run_snoop_model ?(max_states = 3_000_000) params =
  let (module M) = Pcc_mcheck.Snoop_model.make params in
  summarize (Checker.run (module M) ~max_states ())

let check_ok name outcome =
  match outcome with
  | S_ok stats ->
      Alcotest.(check bool) (name ^ " explored states") true (stats.Checker.states_explored > 100);
      Alcotest.(check bool) (name ^ " exhaustive") true stats.Checker.complete
  | S_violation (invariant, steps) ->
      Alcotest.failf "%s: invariant '%s' violated (%d-step trace)" name invariant steps
  | S_deadlock steps -> Alcotest.failf "%s: deadlock (%d-step trace)" name steps

let test_base_protocol_verified () =
  check_ok "base 2n"
    (run_model
       {
         Protocol_model.default_params with
         nodes = 2;
         enable_delegation = false;
         enable_updates = false;
       })

let test_base_protocol_3n () =
  check_ok "base 3n"
    (run_model
       {
         Protocol_model.default_params with
         enable_delegation = false;
         enable_updates = false;
       })

(* the 3-node full state spaces are enormous; explore a bounded prefix
   and require that no violation or deadlock is reachable within it *)
let check_no_violation_within_bound name outcome =
  match outcome with
  | S_ok _ -> ()
  | S_violation (invariant, steps) ->
      Alcotest.failf "%s: invariant '%s' violated (%d-step trace)" name invariant steps
  | S_deadlock steps -> Alcotest.failf "%s: deadlock (%d-step trace)" name steps

let test_full_protocol_2n () =
  check_ok "full 2n" (run_model { Protocol_model.default_params with nodes = 2 })

let test_full_protocol_3n_1op () =
  check_ok "full 3n 1op"
    (run_model { Protocol_model.default_params with max_ops_per_node = 1 })

let test_full_protocol_3n_2ops_bounded () =
  check_no_violation_within_bound "full 3n 2ops (bounded)"
    (run_model ~max_states:400_000 Protocol_model.default_params)

let test_delegation_without_updates () =
  check_ok "delegation-only 3n 1op"
    (run_model
       {
         Protocol_model.default_params with
         max_ops_per_node = 1;
         enable_updates = false;
       })

let expect_violation name outcome =
  match outcome with
  | S_violation _ -> ()
  | S_ok _ -> Alcotest.failf "%s: seeded bug not detected" name
  | S_deadlock _ -> () (* a seeded bug may also surface as deadlock *)

let test_bug_skip_invals_detected () =
  expect_violation "skip-invals"
    (run_model
       {
         Protocol_model.default_params with
         max_ops_per_node = 1;
         bug = Some Protocol_model.Skip_invals_on_delegate;
       })

let test_bug_no_poison_detected () =
  expect_violation "no-poison"
    (run_model ~max_states:600_000
       { Protocol_model.default_params with bug = Some Protocol_model.No_poison_on_inval })

let test_bug_no_resharing_detected () =
  expect_violation "no-resharing"
    (run_model ~max_states:600_000
       {
         Protocol_model.default_params with
         bug = Some Protocol_model.Updates_without_resharing;
       })

(* Every int goes into one byte biased by 64, so 192 and up would wrap
   (255 aliases -1, "no owner"): [make] must refuse parameters that can
   reach it, and accept the largest that cannot. *)
let test_make_rejects_unencodable () =
  let rejects name params =
    match Protocol_model.make params with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: accepted parameters the encoding cannot hold" name
  in
  let d = Protocol_model.default_params in
  rejects "negative op count" { d with max_ops_per_node = -1 };
  rejects "versions reach 192 (3 nodes x 64 ops)" { d with max_ops_per_node = 64 };
  rejects "in-flight messages reach 196 (capacity 4 x 7 nodes^2)"
    { d with nodes = 7; channel_capacity = 4 };
  ignore (Protocol_model.make { d with max_ops_per_node = 63 } : (module Checker.MODEL));
  ignore (Protocol_model.make { d with nodes = 7; channel_capacity = 3 } : (module Checker.MODEL))

(* ---- the snooping backends' atomic-bus model ---- *)

(* The recorded state counts: a different count means the model no
   longer interprets the table the simulator runs. *)
let check_snoop_states name ~expected outcome =
  match outcome with
  | S_ok stats ->
      Alcotest.(check int) (name ^ " states") expected stats.Checker.states_explored;
      Alcotest.(check bool) (name ^ " exhaustive") true stats.Checker.complete
  | S_violation (invariant, steps) ->
      Alcotest.failf "%s: invariant '%s' violated (%d-step trace)" name invariant steps
  | S_deadlock steps -> Alcotest.failf "%s: deadlock (%d-step trace)" name steps

let test_snoop_msi_verified () =
  check_snoop_states "msi 4n" ~expected:92_901
    (run_snoop_model
       { Pcc_mcheck.Snoop_model.default_params with nodes = 4; variant = Pcc_core.Types.Msi })

let test_snoop_mesi_verified () =
  check_snoop_states "mesi 3n 2-line" ~expected:767_869
    (run_snoop_model
       { Pcc_mcheck.Snoop_model.default_params with lines = 2; variant = Pcc_core.Types.Mesi })

(* the shortest counterexample: an upgrade leaves a stale sharer
   beside the new M *)
let test_snoop_bug_detected () =
  List.iter
    (fun variant ->
      let name = Pcc_core.Protocol.to_string variant in
      match
        run_snoop_model
          {
            Pcc_mcheck.Snoop_model.default_params with
            variant;
            fault = Some Pcc_core.Config.Snoop_upgr_skips_invals;
          }
      with
      | S_violation (invariant, steps) ->
          Alcotest.(check string) (name ^ " invariant") "single-writer" invariant;
          Alcotest.(check int) (name ^ " trace steps") 3 steps
      | S_ok _ -> Alcotest.failf "%s: seeded bug not detected" name
      | S_deadlock steps -> Alcotest.failf "%s: deadlock (%d-step trace)" name steps)
    [ Pcc_core.Types.Msi; Pcc_core.Types.Mesi ]

(* The table's per-line invariants serve the simulator's end-of-run
   check and the model alike: each hand-built line must break exactly
   the invariant it targets. *)
let test_snoop_table_invariants () =
  let module Mesi = Pcc_core.Mesi in
  let broken variant ~mem copies =
    Mesi.violations
      (Mesi.make variant None)
      ~state:fst ~value:snd ~mem copies
    |> List.map Mesi.invariant_name
  in
  let check name variant ~mem copies expected =
    Alcotest.(check (list string)) name expected (broken variant ~mem copies)
  in
  let msi = Pcc_core.Types.Msi and mesi = Pcc_core.Types.Mesi in
  check "clean line" msi ~mem:2 [ (Mesi.S, 2); (Mesi.I, 0); (Mesi.S, 2) ] [];
  check "two M copies" msi ~mem:0 [ (Mesi.M, 5); (Mesi.I, 0); (Mesi.M, 6) ]
    [ "single-writer" ];
  check "M beside S" msi ~mem:0 [ (Mesi.M, 5); (Mesi.S, 0) ] [ "single-writer" ];
  check "S differs from memory" msi ~mem:2 [ (Mesi.S, 3); (Mesi.S, 3) ]
    [ "shared-matches-memory" ];
  check "E under MSI" msi ~mem:4 [ (Mesi.E, 4); (Mesi.I, 0) ]
    [ "msi-has-no-exclusive-clean" ];
  check "E under MESI" mesi ~mem:4 [ (Mesi.E, 4); (Mesi.I, 0) ] []

(* Hand-built lines over three nodes, each broken one way: every line
   breaks exactly its target invariant at its strength, and the clean
   lines pass both strengths. *)
let test_adaptive_invariants () =
  let module Inv = Pcc_core.Dir_invariants in
  let module Dc = Pcc_core.Delegate_cache in
  let set = Pcc_core.Nodeset.of_list in
  let line ?(owner = -1) ?(requester = -1) ?(sharers = []) ?(mem = 0) ?(l2 = [])
      ?(rac = []) ?(producer = []) ?(transfer = []) ?(handoff = false) dir =
    let v =
      { (Inv.create 3) with dir; owner; requester; sharers = set sharers; mem;
        transfer = set transfer; handoff }
    in
    List.iter
      (fun (n, copy, value) ->
        v.l2.(n) <- copy;
        v.l2_value.(n) <- value)
      l2;
    List.iter
      (fun (n, value) ->
        v.rac.(n) <- true;
        v.rac_value.(n) <- value)
      rac;
    List.iter
      (fun (n, phase, vector) ->
        v.phase.(n) <- phase;
        v.vector.(n) <- set vector)
      producer;
    v
  in
  let s = Inv.Shared_copy and e = Inv.Exclusive_copy in
  let clean_shared =
    line Shared_s ~sharers:[ 1; 2 ] ~mem:5 ~l2:[ (1, s, 5) ] ~rac:[ (2, 5) ]
  and clean_delegation =
    line Dele ~owner:1 ~producer:[ (1, Dc.Shared, [ 1; 2 ]) ] ~l2:[ (1, s, 7) ]
      ~rac:[ (1, 7); (2, 7) ]
  and busy = line Busy_shared ~owner:1 ~requester:2 ~l2:[ (1, e, 3) ]
  and granting = line Excl ~owner:1
  and delegating = line Dele ~owner:1 ~handoff:true in
  List.iter
    (fun (name, strength, v, expected) ->
      let names invs = List.sort_uniq compare (List.map Inv.name invs) in
      Alcotest.(check (list string))
        name (names expected)
        (names (Inv.violations strength v));
      Alcotest.(check (list string)) (name ^ ", explained") (names expected)
        (names (List.map fst (Inv.explain strength v))))
    Inv.
      [
        ("clean shared line", Event_boundary, clean_shared, []);
        ("clean shared line at rest", Quiescent, clean_shared, []);
        ("clean delegation", Event_boundary, clean_delegation, []);
        ("clean delegation at rest", Quiescent, clean_delegation, []);
        ( "two E copies",
          Event_boundary,
          line Busy_excl ~owner:1 ~requester:2 ~transfer:[ 2 ]
            ~l2:[ (1, e, 3); (2, e, 3) ],
          [ Single_writer ] );
        ( "an E copy the directory does not account for",
          Event_boundary,
          line Shared_s ~sharers:[ 1 ] ~mem:4 ~l2:[ (1, e, 4) ],
          [ Single_writer ] );
        ( "an S copy outside the home's vector",
          Event_boundary,
          line Shared_s ~sharers:[ 1 ] ~mem:2 ~l2:[ (1, s, 2); (2, s, 2) ],
          [ Directory_consistency ] );
        ( "a Shared_s copy that differs from memory",
          Event_boundary,
          line Shared_s ~sharers:[ 1; 2 ] ~mem:2 ~l2:[ (1, s, 2) ] ~rac:[ (2, 1) ],
          [ Directory_consistency ] );
        ( "a producer entry with no RAC backing",
          Event_boundary,
          line Dele ~owner:1 ~producer:[ (1, Dc.Exclusive, [ 1 ]) ] ~l2:[ (1, e, 3) ],
          [ Delegation_consistency ] );
        ( "a producer entry the directory does not reflect",
          Event_boundary,
          line Shared_s ~sharers:[ 1; 2 ] ~mem:2 ~l2:[ (1, s, 2) ] ~rac:[ (2, 2) ]
            ~producer:[ (2, Dc.Shared, [ 2 ]) ],
          [ Delegation_consistency ] );
        ( "a foreign copy while the producer is exclusive",
          Event_boundary,
          line Dele ~owner:1 ~producer:[ (1, Dc.Exclusive, [ 1; 2 ]) ]
            ~l2:[ (1, e, 3); (2, s, 2) ]
            ~rac:[ (1, 2) ],
          [ Directory_consistency ] );
        ("a Busy entry mid-run", Event_boundary, busy, []);
        ("a Busy entry at quiescence", Quiescent, busy, [ Directory_consistency ]);
        ("an exclusive grant in flight", Event_boundary, granting, []);
        ( "an exclusive grant that never landed",
          Quiescent,
          granting,
          [ Directory_consistency ] );
        ("a delegation in flight", Event_boundary, delegating, []);
        ( "a delegation that never landed",
          Quiescent,
          delegating,
          [ Delegation_consistency ] );
      ]

(* ---------------- canonical hashing properties (qcheck) ---------------- *)

module Sym = Protocol_model.Sym
module Q = QCheck

(* a small multi-line configuration: walks stay cheap, yet every
   canonicalization dimension (node renaming, line permutation) is live *)
let sym_params =
  { Protocol_model.default_params with nodes = 3; lines = 2; max_ops_per_node = 1 }

(* the states of a deterministic pseudo-random walk, last first: each
   pick indexes into the successor list *)
let walk params picks =
  let successors = Sym.successors params in
  let rec go visited state = function
    | [] -> state :: visited
    | pick :: rest -> (
        match successors state with
        | [] -> state :: visited
        | succs ->
            let _, next = List.nth succs (abs pick mod List.length succs) in
            go (state :: visited) next rest)
  in
  go [] (Sym.initial params) picks

let reachable_state picks = List.hd (walk sym_params picks)

let walk_gen = Q.list_of_size (Q.Gen.int_range 0 24) (Q.int_bound 9999)

let sym_successors = Sym.successors sym_params

let encodings_of_successors state =
  List.sort_uniq String.compare
    (List.map (fun (_, s) -> Sym.encode sym_params s) (sym_successors state))

let prop_rename_hash_equal =
  Q.Test.make ~count:60 ~name:"node renaming preserves the canonical hash"
    (Q.pair walk_gen Q.small_int)
    (fun (picks, k) ->
      let s = reachable_state picks in
      let perms = Sym.node_permutations sym_params.Protocol_model.nodes in
      let perm = List.nth perms (k mod List.length perms) in
      let s' = Sym.rename_nodes perm s in
      if not (String.equal (Sym.encode sym_params s) (Sym.encode sym_params s')) then
        Q.Test.fail_report "renamed state hashed differently";
      true)

let prop_line_permutation_hash_equal =
  Q.Test.make ~count:60 ~name:"line permutation preserves the canonical hash"
    walk_gen
    (fun picks ->
      let s = reachable_state picks in
      let s' = Sym.permute_lines [| 1; 0 |] s in
      String.equal (Sym.encode sym_params s) (Sym.encode sym_params s'))

(* verdict-equivalence of symmetric states: a renamed state must offer
   the same behaviour one step out — the canonical hashes of its
   successor set coincide with the original's *)
let prop_rename_verdict_equivalent =
  Q.Test.make ~count:40 ~name:"renamed states are verdict-equivalent"
    (Q.pair walk_gen Q.small_int)
    (fun (picks, k) ->
      let s = reachable_state picks in
      let perms = Sym.node_permutations sym_params.Protocol_model.nodes in
      let perm = List.nth perms (k mod List.length perms) in
      let s' = Sym.rename_nodes perm s in
      if encodings_of_successors s <> encodings_of_successors s' then
        Q.Test.fail_report "renamed state has a different canonical successor set";
      true)

(* soundness of deduplication: semantically distinct states (different
   symmetry-invariant observables) must never collide *)
let prop_distinct_states_hash_distinct =
  Q.Test.make ~count:100 ~name:"semantically distinct states hash distinct"
    (Q.pair walk_gen walk_gen)
    (fun (picks_a, picks_b) ->
      let a = reachable_state picks_a and b = reachable_state picks_b in
      if
        (not (String.equal (Sym.semantic_sig a) (Sym.semantic_sig b)))
        && String.equal (Sym.encode sym_params a) (Sym.encode sym_params b)
      then Q.Test.fail_report "distinct observables, same canonical hash";
      true)

(* the direct encoder, which renames into one buffer and orders the
   lines in place, writes exactly the bytes of renaming whole states and
   sorting their lines as strings, on every state of a walk, across node
   counts, line counts and both workloads *)
let prop_encode_matches_reference =
  let config =
    Q.make
      ~print:(fun (nodes, lines, pc) ->
        Printf.sprintf "nodes=%d lines=%d workload=%s" nodes lines
          (if pc then "pc" else "symmetric"))
      Q.Gen.(triple (int_range 3 5) (int_range 1 2) bool)
  in
  Q.Test.make ~count:60 ~name:"direct encoding matches the renamed-state reference"
    (Q.pair config walk_gen)
    (fun ((nodes, lines, pc), picks) ->
      let params =
        {
          Protocol_model.default_params with
          nodes;
          lines;
          workload = (if pc then Protocol_model.Producer_consumer else Protocol_model.Symmetric);
        }
      in
      List.iter
        (fun s ->
          if not (String.equal (Sym.encode params s) (Sym.reference_encode params s)) then
            Q.Test.fail_report "encoding differs from the reference")
        (walk params picks);
      true)

(* The checker stores every frontier state as its [Marshal] image and
   expands the unpacked copy, so a state must behave the same after the
   round trip: same encoding, same successors (labels, order and
   encodings, per transition group too) and same invariant verdicts.
   This guards the models' use of physical equality, such as the
   invariants' cached view, and catches any closure that enters a
   state. *)
let repack_agrees (type s) (module M : Checker.MODEL with type state = s) picks =
  let view successors = List.map (fun (label, st) -> (label, M.encode st)) successors in
  let same name a b = if a <> b then Q.Test.fail_reportf "%s differ after the round trip" name in
  let rec walk st = function
    | [] -> ()
    | pick :: rest -> (
        let st' = Checker.repack st in
        same "encodings" (M.encode st) (M.encode st');
        same "successors" (view (M.successors st)) (view (M.successors st'));
        Option.iter
          (fun groups -> same "transition groups" (List.map view (groups st)) (List.map view (groups st')))
          M.por;
        same "invariant verdicts"
          (List.map (fun (_, holds) -> holds st) M.invariants)
          (List.map (fun (_, holds) -> holds st') M.invariants);
        match M.successors st' with
        | [] -> ()
        | succs -> walk (snd (List.nth succs (abs pick mod List.length succs))) rest)
  in
  List.iter (fun st -> walk st picks) M.initial;
  true

let prop_repack_round_trip =
  let config =
    Q.make
      ~print:(fun (snoop, nodes, lines, alt) ->
        Printf.sprintf "%s nodes=%d lines=%d"
          (match (snoop, alt) with
          | false, false -> "adaptive symmetric"
          | false, true -> "adaptive pc"
          | true, false -> "msi"
          | true, true -> "mesi")
          nodes lines)
      Q.Gen.(quad bool (int_range 3 5) (int_range 1 2) bool)
  in
  Q.Test.make ~count:60 ~name:"packed states round-trip"
    (Q.pair config walk_gen)
    (fun ((snoop, nodes, lines, alt), picks) ->
      if snoop then
        let (module M) =
          Pcc_mcheck.Snoop_model.make
            {
              Pcc_mcheck.Snoop_model.default_params with
              nodes;
              lines;
              variant = (if alt then Pcc_core.Types.Mesi else Pcc_core.Types.Msi);
            }
        in
        repack_agrees (module M) picks
      else
        let (module M) =
          Protocol_model.make
            {
              Protocol_model.default_params with
              nodes;
              lines;
              workload = (if alt then Protocol_model.Producer_consumer else Protocol_model.Symmetric);
            }
        in
        repack_agrees (module M) picks)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_rename_hash_equal;
      prop_line_permutation_hash_equal;
      prop_rename_verdict_equivalent;
      prop_distinct_states_hash_distinct;
      prop_encode_matches_reference;
      prop_repack_round_trip;
    ]

(* ---------------- determinism and golden counterexample ---------------- *)

let violating_params =
  {
    Protocol_model.default_params with
    max_ops_per_node = 1;
    bug = Some Protocol_model.Skip_invals_on_delegate;
  }

let render ?jobs ?spill params =
  let (module M) = Protocol_model.make params in
  Format.asprintf "%a" (Checker.pp_outcome M.pp) (Checker.run (module M) ?jobs ?spill ())

let fresh_spill_dir () =
  let path = Filename.temp_file "pcc-spill" "" in
  Sys.remove path;
  Sys.mkdir path 0o755;
  path

let remove_spill_dir dir =
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* the minimal counterexample in canonical form: the trace must not move
   when exploration order, parallelism, or storage change *)
let golden_trace =
  [
    "n0:issue-load-miss";
    "deliver[0->0]:gets";
    "n1:issue-store-miss";
    "deliver[1->0]:getx#1";
    "deliver[0->1]:delegate";
    "deliver[0->0]:datas";
  ]

let test_golden_counterexample () =
  let (module M) = Protocol_model.make violating_params in
  match Checker.run (module M) () with
  | Checker.Invariant_violation { invariant; trace; _ } ->
      Alcotest.(check string)
        "which invariant" "consistency within the directory" invariant;
      Alcotest.(check (list string)) "canonical minimal trace" golden_trace trace
  | _ -> Alcotest.fail "expected a violation"

(* Replays a counterexample label by label through [Step]: every state
   before the last passes every invariant, and the last breaks
   [invariant].  A trace that moves with the canonical digests is then
   checked by more than its bytes. *)
let replay_counterexample name params ~invariant trace =
  let module Step = Protocol_model.Step in
  let broken st =
    List.filter_map (fun (inv, holds) -> if holds st then None else Some inv) Step.invariants
  in
  let last =
    List.fold_left
      (fun st label ->
        (match broken st with
        | [] -> ()
        | invs -> Alcotest.failf "%s: %s broken before %s" name (String.concat ", " invs) label);
        match List.assoc_opt label (Step.successors params st) with
        | Some st -> st
        | None -> Alcotest.failf "%s: %s not offered" name label)
      (Step.initial params) trace
  in
  Alcotest.(check (list string)) (name ^ ": broken at the last state") [ invariant ] (broken last)

(* The golden trace above and the seeded-bug goldens of test/mcheck,
   each under the parameters its pcc_check command gives. *)
let test_counterexamples_replay () =
  replay_counterexample "golden trace" violating_params
    ~invariant:"consistency within the directory" golden_trace;
  let d = Protocol_model.default_params in
  List.iter
    (fun (file, params) ->
      let lines =
        String.split_on_char '\n'
          (In_channel.with_open_text (Filename.concat "mcheck" file) In_channel.input_all)
      in
      match lines with
      | first :: steps :: rest ->
          let invariant = Scanf.sscanf first "INVARIANT '%[^']' VIOLATED" Fun.id in
          let rec labels = function
            | l :: rest when String.starts_with ~prefix:"  " l -> String.trim l :: labels rest
            | _ -> []
          in
          let trace = labels rest in
          Alcotest.(check int) (file ^ ": trace length")
            (Scanf.sscanf steps "trace (%d steps):" Fun.id)
            (List.length trace);
          replay_counterexample file params ~invariant trace
      | _ -> Alcotest.failf "%s: not a counterexample" file)
    [
      ( "CHECK_bug_skip_invals.txt",
        { d with max_ops_per_node = 1; bug = Some Skip_invals_on_delegate } );
      ("CHECK_bug_no_poison.txt", { d with bug = Some No_poison_on_inval });
      ("CHECK_bug_no_resharing.txt", { d with bug = Some Updates_without_resharing });
    ]

(* [Step]'s slots are two bytes wide, so the differential replay can
   drive long lines: a producer committing 300 stores counts all of them,
   past the 191 a checker slot holds; [initial] refuses parameters whose
   versions could pass [max_value]. *)
let test_step_slot_width () =
  let module Step = Protocol_model.Step in
  let params = { Protocol_model.default_params with nodes = 2; max_ops_per_node = 300 } in
  let take st label =
    match List.assoc_opt label (Step.successors params st) with
    | Some st -> st
    | None -> Alcotest.failf "%s not offered" label
  in
  let st =
    List.fold_left take (Step.initial params)
      [ "n1:issue-store-miss"; "deliver[1->0]:getx"; "deliver[0->1]:datae" ]
  in
  let st = ref st in
  for _ = 2 to 300 do
    st := take !st "n1:issue-store-hit"
  done;
  Alcotest.(check int) "stores" 300 (Step.store_count !st);
  Alcotest.(check int) "last seen" 300 (Step.last_seen !st 1);
  Alcotest.(check (option int)) "final value" (Some 300) (Step.final_value !st);
  match Step.initial { params with max_ops_per_node = (Step.max_value / 2) + 1 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "accepted versions past a slot's width"

(* The model runs the simulator's rule for a Get_exclusive that meets a
   fenced producer: held, not NACKed; the flush round starts; and the
   Undelegate carries the writer home.  Steered by label: node 0 reads,
   node 1's write is delegated, node 2's forwarded read makes node 1
   downgrade and push to node 0 (the fence), and node 2, hinted to
   node 1, writes. *)
let test_held_write_in_model () =
  let module Step = Protocol_model.Step in
  let params = Protocol_model.default_params in
  let take st label =
    let succs = Step.successors params st in
    match List.assoc_opt label succs with
    | Some st -> st
    | None -> Alcotest.failf "%s not offered; offered: %s" label (String.concat " " (List.map fst succs))
  in
  let steer = List.fold_left take in
  let offered st label = List.mem_assoc label (Step.successors params st) in
  let fenced =
    steer (Step.initial params)
      [
        "n0:issue-load-miss"; "deliver[0->0]:gets"; "deliver[0->0]:datas";
        "n1:issue-store-miss"; "deliver[1->0]:getx#1"; "deliver[0->1]:delegate";
        "deliver[0->0]:inval"; "deliver[0->1]:ack"; "n2:issue-load-miss";
        "deliver[2->0]:gets"; "deliver[0->1]:fwds"; "deliver[0->2]:newhome";
        "deliver[1->2]:datas"; "n2:issue-store-miss";
      ]
  in
  let held = take fenced "deliver[2->1]:getx" in
  Alcotest.(check bool) "no NACK from the producer" false (offered held "deliver[1->2]:nack");
  let returned =
    steer held [ "deliver[1->0]:update"; "deliver[1->0]:flush"; "deliver[0->1]:flushack" ]
  in
  Alcotest.(check bool) "no NACK after the flush" false (offered returned "deliver[1->2]:nack");
  (* the home re-runs a carried request as the writer's own Get_exclusive *)
  let reclaimed = take returned "deliver[1->0]:undele" in
  Alcotest.(check bool) "the undelegation carried node 2's write" true
    (offered reclaimed "deliver[2->0]:getx")

let test_verdict_byte_stable_across_jobs () =
  let sequential = render ~jobs:1 violating_params in
  Alcotest.(check string) "jobs=4 output" sequential (render ~jobs:4 violating_params)

let test_verdict_byte_stable_with_spill () =
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> remove_spill_dir dir) @@ fun () ->
  let in_memory = render ~jobs:2 violating_params in
  Alcotest.(check string) "spilled output" in_memory (render ~jobs:2 ~spill:dir violating_params)

(* jobs/spill must also agree on passing runs (states, transitions, depth) *)
let test_stats_byte_stable () =
  let params = { Protocol_model.default_params with max_ops_per_node = 1 } in
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> remove_spill_dir dir) @@ fun () ->
  let sequential = render ~jobs:1 params in
  Alcotest.(check string) "jobs=4" sequential (render ~jobs:4 params);
  Alcotest.(check string) "jobs=2+spill" sequential (render ~jobs:2 ~spill:dir params)

(* ---------------- partial-order reduction ---------------- *)

let explored params ~por =
  let (module M) = Protocol_model.make ~por params in
  match Checker.run (module M) ~max_states:3_000_000 () with
  | Checker.Ok stats ->
      Alcotest.(check bool) "exhaustive" true stats.Checker.complete;
      stats.Checker.states_explored
  | Checker.Invariant_violation { invariant; _ } ->
      Alcotest.failf "unexpected violation of '%s'" invariant
  | Checker.Deadlock _ -> Alcotest.fail "unexpected deadlock"

let test_por_preserves_verdict () =
  let params =
    { Protocol_model.default_params with nodes = 2; lines = 2; max_ops_per_node = 1 }
  in
  let reduced = explored params ~por:true in
  let full = explored params ~por:false in
  if reduced >= full then
    Alcotest.failf "no reduction: %d (por) vs %d (full)" reduced full

let test_por_detects_multiline_bug () =
  let params =
    {
      Protocol_model.default_params with
      lines = 2;
      max_ops_per_node = 1;
      bug = Some Protocol_model.Skip_invals_on_delegate;
    }
  in
  let (module M) = Protocol_model.make params in
  match Checker.run (module M) ~max_states:2_000_000 ~jobs:2 () with
  | Checker.Invariant_violation { invariant; trace; _ } ->
      Alcotest.(check bool) "line-prefixed invariant" true
        (String.length invariant > 3 && invariant.[0] = 'L');
      List.iter
        (fun label ->
          Alcotest.(check bool)
            (Printf.sprintf "line-prefixed label %s" label)
            true
            (String.length label > 3 && label.[0] = 'L'))
        trace
  | _ -> Alcotest.fail "seeded bug not detected with lines=2"

let suite =
  [
    Alcotest.test_case "engine: ok" `Quick test_checker_ok;
    Alcotest.test_case "engine: violation + trace" `Quick test_checker_finds_violation;
    Alcotest.test_case "engine: deadlock" `Quick test_checker_finds_deadlock;
    Alcotest.test_case "engine: state bound" `Quick test_checker_bound;
    Alcotest.test_case "base protocol 2n exhaustive" `Quick test_base_protocol_verified;
    Alcotest.test_case "base protocol 3n exhaustive" `Slow test_base_protocol_3n;
    Alcotest.test_case "full protocol 2n exhaustive" `Quick test_full_protocol_2n;
    Alcotest.test_case "full protocol 3n (1 op)" `Slow test_full_protocol_3n_1op;
    Alcotest.test_case "full protocol 3n (2 ops, bounded)" `Slow
      test_full_protocol_3n_2ops_bounded;
    Alcotest.test_case "delegation-only verified" `Quick test_delegation_without_updates;
    Alcotest.test_case "seeded bug: skip invals" `Quick test_bug_skip_invals_detected;
    Alcotest.test_case "seeded bug: no poison" `Slow test_bug_no_poison_detected;
    Alcotest.test_case "seeded bug: no resharing" `Slow test_bug_no_resharing_detected;
    Alcotest.test_case "make rejects values the encoding cannot hold" `Quick
      test_make_rejects_unencodable;
    Alcotest.test_case "snoop msi 4n exhaustive (>=10k states)" `Quick
      test_snoop_msi_verified;
    Alcotest.test_case "snoop mesi 3n 2-line exhaustive" `Slow test_snoop_mesi_verified;
    Alcotest.test_case "snoop seeded bug: upgr skips invals" `Quick
      test_snoop_bug_detected;
    Alcotest.test_case "snoop table invariants catch broken lines" `Quick
      test_snoop_table_invariants;
    Alcotest.test_case "adaptive invariants catch broken lines" `Quick
      test_adaptive_invariants;
    Alcotest.test_case "golden: minimal canonical counterexample" `Quick
      test_golden_counterexample;
    Alcotest.test_case "counterexamples replay through Step" `Quick test_counterexamples_replay;
    Alcotest.test_case "Step holds values past a checker slot" `Quick test_step_slot_width;
    Alcotest.test_case "held write rides the undelegation" `Quick test_held_write_in_model;
    Alcotest.test_case "verdict byte-stable across jobs" `Quick
      test_verdict_byte_stable_across_jobs;
    Alcotest.test_case "verdict byte-stable with spill" `Quick
      test_verdict_byte_stable_with_spill;
    Alcotest.test_case "stats byte-stable (jobs, spill)" `Quick test_stats_byte_stable;
    Alcotest.test_case "por: preserves verdict, reduces states" `Quick
      test_por_preserves_verdict;
    Alcotest.test_case "por: multi-line seeded bug detected" `Slow
      test_por_detects_multiline_bug;
  ]
  @ qcheck_cases
