(* Litmus-matrix regression tests.

   Every cell is a run descriptor ([litmus:test=ID] on a named machine,
   fault profile and seed) judged by Oracle.Runner.  Three obligations:
   the committed corpus passes on every supported machine (machines ×
   chaos profiles × seeds), the explicitly forbidden outcomes stay
   unreachable on extra seeds, and the verdict provably still detects a
   broken machine (the mutation sanity check — without it a silently
   weakened checker would keep "passing"), leaving a dump that replays
   to the same failures. *)

open Pcc_core
module Litmus = Pcc_workload.Litmus
module Trace = Pcc_oracle.Trace
module Runner = Pcc_oracle.Runner

let run_cells ?(jobs = 2) cells =
  Pcc_parallel.Pool.run_keyed ~jobs
    (List.map (fun (name, desc) -> (name, fun () -> Runner.run desc)) cells)

let failed cells reports =
  List.filter_map
    (fun ((name, _), (r : Runner.report)) ->
      if r.failures = [] then None
      else Some (name ^ ": " ^ String.concat "; " r.failures))
    (List.combine cells reports)

let check_all_pass what cells =
  match failed cells (run_cells cells) with
  | [] -> ()
  | fs -> Alcotest.failf "%s: %s" what (String.concat "\n" fs)

(* the full committed matrix: 5 tests x 6 machines (4 adaptive machines +
   msi + mesi) x 3 profiles x 3 seeds *)
let test_corpus_passes () =
  let cells = Trace.litmus_cells Litmus.corpus in
  Alcotest.(check int) "matrix size" 270 (List.length cells);
  Alcotest.(check (list string)) "all six machines in the matrix"
    [ "adaptive"; "base"; "delegation"; "full"; "mesi"; "msi" ]
    (List.sort_uniq compare
       (List.map (fun (_, (d : Trace.run_desc)) -> d.config_name) cells));
  check_all_pass "corpus" cells

(* forbidden final observations must stay unreachable beyond the default
   seeds too *)
let test_forbidden_unreachable () =
  let forbidden = List.filter (fun t -> t.Litmus.forbidden <> None) Litmus.corpus in
  Alcotest.(check bool) "corpus commits forbidden-outcome tests" true
    (List.length forbidden >= 2);
  check_all_pass "forbidden outcomes" (Trace.litmus_cells ~seeds:[ 4; 5; 6 ] forbidden)

(* the verdict's forbidden-outcome check itself: a predicate that
   accepts any execution must fail an otherwise clean run, and only by
   that check *)
let test_forbidden_predicate_fires () =
  let test =
    {
      (List.hd Litmus.corpus) with
      Litmus.name = "always-forbidden";
      forbidden = Some ("any execution at all", fun _ -> true);
    }
  in
  let nodes = Litmus.nodes test in
  let sys = System.create ~config:(Config.base ~nodes ()) () in
  let report = Runner.check ~litmus:test sys (Litmus.programs ~nodes test) in
  Alcotest.(check (list string)) "the forbidden outcome is the one failure"
    [ "forbidden outcome reached: any execution at all" ] report.failures

let mutated machine =
  Trace.litmus_cells ~fault:true ~machines:[ machine ] ~profiles:[ None ] ~seeds:[ 1 ]
    Litmus.corpus

(* detection sanity: the corpus must fail against a machine whose
   speculative updates skip re-sharing; mp fails online, in the audit *)
let test_mutation_detected () =
  let cells = mutated "full" in
  let reports = run_cells cells in
  let by_name = List.combine (List.map fst cells) reports in
  (match List.assoc "mp-full+fault-reliable-seed1" by_name with
  | { failures = first :: _; result = None; _ } ->
      Alcotest.(check bool) "mp caught online by the audit" true
        (Astring_contains.contains first "consistency within the directory")
  | _ -> Alcotest.fail "the mutated machine passed mp");
  if failed cells reports = [] then
    Alcotest.fail "mutated machine passed the whole corpus"

(* same sanity check for the snooping twin: a machine whose snoopers
   ignore BUS_UPGR must be caught by the corpus *)
let test_snoop_mutation_detected () =
  let cells = mutated "msi" in
  match failed cells (run_cells cells) with
  | [] -> Alcotest.fail "mutated snooping machine passed the whole corpus"
  | _ :: _ -> ()

(* A failed cell's dump carries its descriptor: reading it back and
   re-running it gives the same failure list, as pcc_oracle --replay
   does.  A file holding the bare descriptor reads back the same. *)
let test_failed_cell_replays () =
  let name, desc = List.nth (mutated "msi") 1 in
  let path = Filename.temp_file name ".flight.json" in
  let report = Runner.run ~dump:path desc in
  let reread = Trace.read_desc ~path in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Pcc_stats.Jsonl.to_string (Trace.desc_to_json desc)));
  let bare = Trace.read_desc ~path in
  Sys.remove path;
  Alcotest.(check bool) (name ^ " fails") true (report.failures <> []);
  Alcotest.(check bool) "a bare descriptor reads back" true (bare = Ok desc);
  match reread with
  | Error e -> Alcotest.failf "no run descriptor: %s" e
  | Ok replayed ->
      Alcotest.(check bool) "the descriptor round-trips" true (replayed = desc);
      Alcotest.(check (list string)) "the replay fails identically" report.failures
        (Runner.run replayed).failures

(* the matrix's verdicts are identical at every jobs setting *)
let test_matrix_deterministic () =
  let show reports =
    List.map
      (fun (r : Runner.report) ->
        ( r.failures,
          Option.map
            (fun (res : System.result) -> (res.cycles, res.network_messages))
            r.result ))
      reports
  in
  let cells = Trace.litmus_cells ~seeds:[ 1 ] Litmus.corpus in
  Alcotest.(check bool) "jobs=1 vs jobs=4" true
    (show (run_cells ~jobs:1 cells) = show (run_cells ~jobs:4 cells))

let suite =
  [
    Alcotest.test_case "corpus passes the full matrix" `Quick test_corpus_passes;
    Alcotest.test_case "forbidden outcomes unreachable (extra seeds)" `Quick
      test_forbidden_unreachable;
    Alcotest.test_case "forbidden predicate fires" `Quick test_forbidden_predicate_fires;
    Alcotest.test_case "mutated machine detected" `Quick test_mutation_detected;
    Alcotest.test_case "mutated snooping machine detected" `Quick
      test_snoop_mutation_detected;
    Alcotest.test_case "failed cell replays from its dump" `Quick test_failed_cell_replays;
    Alcotest.test_case "matrix deterministic across jobs" `Quick
      test_matrix_deterministic;
  ]
