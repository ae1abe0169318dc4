(* Model-checking driver (the paper's §2.5, scaled up): exhaustive
   exploration of the abstract protocol model, or of the atomic-bus
   snooping model.  Checked simulation (the litmus matrix included) is
   pcc_oracle's.

     dune exec bin/pcc_check.exe -- --nodes 4 --lines 2 --ops 1 --jobs 4 *)

open Cmdliner
module Checker = Pcc.Checker
module Model = Pcc.Protocol_model

let bug_of_string = function
  | "" -> Ok None
  | "skip-invals" -> Ok (Some Model.Skip_invals_on_delegate)
  | "no-poison" -> Ok (Some Model.No_poison_on_inval)
  | "no-resharing" -> Ok (Some Model.Updates_without_resharing)
  | other -> Error (Printf.sprintf "unknown bug %S" other)

let workload_of_string = function
  | "symmetric" -> Ok Model.Symmetric
  | "pc" | "producer-consumer" -> Ok Model.Producer_consumer
  | other ->
      Error
        (Printf.sprintf
           "unknown model workload %S; valid patterns: symmetric, pc \
            (producer-consumer).  pcc_check verifies abstract access patterns — \
            simulator workload specs (em3d, kv:skew=1.2, ...) belong to pcc_sim \
            and friends."
           other)

(* Checker counters for --metrics: every outcome carries stats. *)
let checker_metrics registry (stats : Pcc.Checker.stats) ~violations ~deadlocks =
  let module R = Pcc.Telemetry.Registry in
  R.counter registry "pcc_check_states_explored" stats.Pcc.Checker.states_explored;
  R.counter registry "pcc_check_transitions" stats.Pcc.Checker.transitions;
  R.gauge registry "pcc_check_max_depth" stats.Pcc.Checker.max_depth;
  R.gauge registry "pcc_check_complete" (if stats.Pcc.Checker.complete then 1 else 0);
  R.counter registry "pcc_check_invariant_violations" violations;
  R.counter registry "pcc_check_deadlocks" deadlocks

let snoop_bug_of_string = function
  | "" -> Ok None
  | "upgr-skips-invals" -> Ok (Some Pcc.Config.Snoop_upgr_skips_invals)
  | other ->
      Error
        (Printf.sprintf "unknown snooping bug %S (expected upgr-skips-invals)" other)

(* Exit 2 means "violation found", so a usage error — an unknown name or
   parameters the model rejects — must exit 1. *)
let usage_error message =
  prerr_endline message;
  1

let report_outcome pp outcome metrics_path =
  Format.printf "%a@." (Checker.pp_outcome pp) outcome;
  Cli_common.write_metrics metrics_path (fun registry ->
      match outcome with
      | Checker.Ok stats -> checker_metrics registry stats ~violations:0 ~deadlocks:0
      | Checker.Invariant_violation { stats; _ } ->
          checker_metrics registry stats ~violations:1 ~deadlocks:0
      | Checker.Deadlock { stats; _ } ->
          checker_metrics registry stats ~violations:0 ~deadlocks:1);
  match outcome with Checker.Ok _ -> 0 | _ -> 2

let run_model_check protocol nodes lines ops workload delegation updates bug max_states
    jobs spill por metrics_path =
  let bad_output =
    match (Cli_common.output_error [ metrics_path ], spill) with
    | Some message, _ -> Some message
    | None, Some dir ->
        Result.fold (Cli_common.make_dir dir) ~ok:(fun () -> None) ~error:(fun message ->
            Some ("--spill: " ^ message))
    | None, None -> None
  in
  match (bad_output, protocol) with
  | Some message, _ -> usage_error message
  | None, (Pcc.Types.Msi | Pcc.Types.Mesi) -> (
      match snoop_bug_of_string bug with
      | Error message -> usage_error message
      | Ok bug -> (
          let params =
            {
              Pcc.Snoop_model.nodes;
              lines;
              variant = protocol;
              max_ops_per_node = ops;
              fault = bug;
            }
          in
          match Pcc.Snoop_model.make ~por params with
          | exception Invalid_argument message -> usage_error message
          | (module M) ->
              let outcome = Checker.run (module M) ~max_states ~jobs ?spill () in
              report_outcome M.pp outcome metrics_path))
  | None, Pcc.Types.Adaptive -> (
      match (bug_of_string bug, workload_of_string workload) with
      | Error message, _ | _, Error message -> usage_error message
      | Ok bug, Ok workload -> (
          let params =
            {
              Model.default_params with
              Model.nodes;
              lines;
              workload;
              max_ops_per_node = ops;
              enable_delegation = delegation;
              enable_updates = updates;
              bug;
            }
          in
          match Model.make ~por params with
          | exception Invalid_argument message -> usage_error message
          | (module M) ->
              let outcome = Checker.run (module M) ~max_states ~jobs ?spill () in
              report_outcome M.pp outcome metrics_path))

let nodes_arg = Cli_common.nodes ~default:3 ~doc:"Nodes in the model." ()

let lines_arg =
  Arg.(
    value
    & opt int 1
    & info [ "lines" ] ~docv:"N"
        ~doc:
          "Independent cache lines in the model.  Lines multiply the state space; \
           partial-order reduction keeps it tractable.")

let ops_arg =
  Arg.(value & opt int 2 & info [ "ops" ] ~doc:"Memory operations per node (per line).")

let workload_arg =
  Arg.(
    value
    & opt string "symmetric"
    & info [ "workload" ] ~docv:"KIND"
        ~doc:
          "Abstract access pattern for the model (not a simulator workload \
           spec): $(b,symmetric) (every node loads and stores) or $(b,pc) \
           (producer-consumer: one designated writer per line, everyone else reads — \
           the paper's pattern; much smaller per-line spaces).")

let delegation_arg =
  Arg.(value & opt bool true & info [ "delegation" ] ~doc:"Enable directory delegation.")

let updates_arg =
  Arg.(value & opt bool true & info [ "updates" ] ~doc:"Enable speculative updates.")

let bug_arg =
  Arg.(
    value
    & opt string ""
    & info [ "bug" ] ~doc:"Inject a protocol bug: skip-invals, no-poison, no-resharing.")

let max_states_arg = Cli_common.max_states ()

let jobs_arg = Cli_common.jobs ~what:"frontier chunks" ()

let spill_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "spill" ] ~docv:"DIR"
        ~doc:
          "Spill the visited set and counterexample edges to $(docv) so memory stays \
           bounded by the frontier.")

let por_arg =
  Arg.(
    value
    & opt bool true
    & info [ "por" ]
        ~doc:"Partial-order reduction over independent lines (only matters with --lines > 1).")

let cmd =
  let term =
    Term.(
      const run_model_check
      $ Cli_common.protocol
          ~doc:
            "Which model to check: $(b,adaptive) the directory protocol's, $(b,msi) / \
             $(b,mesi) the atomic-bus snooping model's (bug: $(b,upgr-skips-invals))." ()
      $ nodes_arg $ lines_arg $ ops_arg
      $ workload_arg $ delegation_arg $ updates_arg $ bug_arg $ max_states_arg
      $ jobs_arg $ spill_arg $ por_arg $ Cli_common.metrics ())
  in
  Cmd.v
    (Cmd.info "pcc_check" ~doc:"Model-check the coherence protocol backends") term

let () = exit (Cmd.eval' cmd)
