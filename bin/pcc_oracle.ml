(* Differential-oracle driver: run seeded random and benchmark workloads
   with the online coherence auditor attached, then replay each run's
   serialized operations through the model checker and compare.  Every
   run goes through Oracle.Runner; --replay re-runs any checked run's
   flight dump, pcc_chaos's included.

     dune exec bin/pcc_oracle.exe -- --seeds 50
     dune exec bin/pcc_oracle.exe -- --inject-fault --trace fault.jsonl
     dune exec bin/pcc_oracle.exe -- --replay fault.jsonl *)

open Cmdliner
open Pcc

let configs = [ "base"; "full" ]

let descs_for_seed ~workload_pin ~configs ~nodes ~scale seed :
    Oracle.Trace.run_desc list =
  (* each of the seed's workloads runs under both the baseline and the
     fully adaptive machine (or the selected snooping backend) *)
  List.concat_map
    (fun bench ->
      List.map
        (fun config_name ->
          { Oracle.Trace.default with bench; config_name; nodes; scale; seed })
        configs)
    (Cli_common.sweep_benches ~pin:workload_pin seed)

(* A replayed pcc_chaos dump also names its backend and fault profile. *)
let describe (d : Oracle.Trace.run_desc) =
  Printf.sprintf "seed=%d bench=%s config=%s nodes=%d scale=%.2f%s%s%s" d.seed d.bench
    d.config_name d.nodes d.scale
    (Option.fold d.protocol ~none:"" ~some:(fun p -> " protocol=" ^ Protocol.to_string p))
    (Option.fold d.chaos ~none:"" ~some:(fun c -> " profile=" ^ c.Oracle.Trace.profile))
    (if d.fault then " FAULT" else "")

let report_failure desc (report : Oracle.Runner.report) =
  Printf.printf "FAIL %s\n" (describe desc);
  List.iter (fun v -> Printf.printf "  %s\n" v) report.failures;
  Option.iter (Printf.printf "  trace written to %s\n") report.dump

let run_sweep ~workload_pin ~seeds ~protocol ~nodes ~scale ~max_lines ~trace
    ~metrics_path =
  let configs =
    match protocol with
    | Types.Adaptive -> configs
    | p -> [ Protocol.to_string p ]
  in
  let failures = ref 0 in
  let runs = ref 0 in
  let ops = ref 0 in
  let steps = ref 0 in
  let results = ref [] in
  for seed = 1 to seeds do
    List.iter
      (fun desc ->
        incr runs;
        (* only the first failure leaves the artifact *)
        let dump = if !failures = 0 then Some trace else None in
        let report = Oracle.Runner.run ~max_lines ?dump desc in
        (match report.result with
        | Some r -> results := r :: !results
        | None -> ());
        (match report.diff with
        | Some o ->
            ops := !ops + o.Oracle.Diff.ops_replayed;
            steps := !steps + o.Oracle.Diff.model_steps
        | None -> ());
        if not (Oracle.Runner.clean report) then begin
          incr failures;
          report_failure desc report
        end)
      (descs_for_seed ~workload_pin ~configs ~nodes ~scale seed)
  done;
  Printf.printf "%d runs, %d failures; %d ops replayed through the model (%d steps)\n"
    !runs !failures !ops !steps;
  Cli_common.write_metrics metrics_path (fun registry ->
      let module R = Telemetry.Registry in
      List.iter
        (fun r -> R.add_result ~summaries:false registry r)
        (List.rev !results);
      R.counter registry "pcc_oracle_runs" !runs;
      R.counter registry "pcc_oracle_failures" !failures;
      R.counter registry "pcc_oracle_ops_replayed" !ops;
      R.counter registry "pcc_oracle_model_steps" !steps);
  if !failures = 0 then 0 else 1

let run_fault ~nodes ~scale ~trace =
  (* the injected stale-update fault must be caught, with a replayable
     artifact — this is the oracle's own smoke test.  Not every seed's
     workload pushes an update into the window the fault corrupts, so try
     a handful; one catch is a pass. *)
  let rec attempt seed =
    if seed > 10 then begin
      Printf.printf "FAULT NOT CAUGHT in 10 seeds\n";
      1
    end
    else
      let desc = { Oracle.Trace.default with nodes; scale; seed; fault = true } in
      let report = Oracle.Runner.run ~diff:false ~dump:trace desc in
      if Oracle.Runner.clean report then attempt (seed + 1)
      else begin
        Printf.printf "fault caught on %s\n" (describe desc);
        List.iter (fun v -> Printf.printf "  %s\n" v) report.failures;
        Printf.printf "  flight dump: %s (replay with --replay %s)\n" trace trace;
        0
      end
  in
  attempt 1

let run_replay ~max_lines ~path =
  match Oracle.Trace.read_desc ~path with
  | Error message ->
      Printf.eprintf "pcc_oracle: cannot replay: %s\n" message;
      2
  | Ok desc ->
      Printf.printf "replaying %s\n" (describe desc);
      let report = Oracle.Runner.run ~max_lines desc in
      if Oracle.Runner.clean report then begin
        Printf.printf "clean — failure did not reproduce\n";
        0
      end
      else begin
        List.iter (fun v -> Printf.printf "  %s\n" v) report.failures;
        (* a stall's failure message already lists the ring's last events *)
        (match report.result with
        | Some { System.stall = Some _; _ } -> ()
        | Some _ | None ->
            List.iter
              (fun e -> Format.printf "  %a@." Flight_ring.pp_event e)
              report.events);
        1
      end

let run_golden ~nodes ~scale ~seed =
  (* print the pinned-statistics table in the exact form test_golden.ml
     embeds, for regeneration after an intentional protocol change *)
  List.iter
    (fun config_name ->
      List.iter
        (fun (app : Workloads.app) ->
          let desc =
            { Oracle.Trace.default with bench = app.name; config_name; nodes; scale; seed }
          in
          let config = Oracle.Trace.config_of_desc desc in
          let programs = Oracle.Trace.programs_of_desc desc in
          let result = System.run ~config ~programs () in
          let s = result.System.stats in
          Printf.printf "    (%S, %S, (%d, %d, %d, %d, %d, %d));\n"
            (String.lowercase_ascii app.name)
            config_name s.Run_stats.local_mem_misses s.Run_stats.rac_hits
            s.Run_stats.remote_2hop s.Run_stats.remote_3hop s.Run_stats.delegations
            s.Run_stats.updates_sent)
        Workloads.all)
    configs;
  0

let main workload_pin seeds protocol nodes scale max_lines trace replay
    inject_fault golden metrics_path =
  match Cli_common.pin_error ~nodes ~scale workload_pin with
  | Some message ->
      Printf.eprintf "pcc_oracle: %s\n" message;
      2
  | None ->
      if nodes < 2 then begin
        Printf.eprintf "pcc_oracle: --nodes must be at least 2 (got %d)\n" nodes;
        2
      end
      else if golden then run_golden ~nodes:8 ~scale ~seed:7
      else (
        match replay with
        | Some path -> run_replay ~max_lines ~path
        | None ->
            if inject_fault then run_fault ~nodes ~scale ~trace
            else
              run_sweep ~workload_pin ~seeds ~protocol ~nodes ~scale ~max_lines
                ~trace ~metrics_path)

let max_lines_arg =
  Arg.(
    value & opt int 400
    & info [ "max-lines" ] ~docv:"N" ~doc:"Cap on lines replayed through the model.")

let trace_arg =
  Arg.(
    value
    & opt string "oracle-fault.jsonl"
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Where to write the first failure's flight dump (one JSON line).")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Re-run the checked run a flight dump describes (a failure artifact of \
           this tool, pcc_chaos or pcc_check --litmus), or a file holding one run \
           descriptor object.")

let fault_arg =
  Arg.(
    value & flag
    & info [ "inject-fault" ]
        ~doc:"Inject the stale-update protocol fault and verify the oracle catches it.")

let golden_arg =
  Arg.(
    value & flag
    & info [ "golden" ] ~doc:"Print the golden-statistics table for test_golden.ml.")

let cmd =
  let term =
    Term.(
      const main
      $ Cli_common.workload_spec
          ~doc:
            "Pin every sweep run to one workload spec ($(i,NAME) or \
             $(i,NAME:key=value,...)) instead of the random + rotating-benchmark \
             pair per seed."
          ()
      $ Cli_common.seeds ()
      $ Cli_common.protocol
          ~doc:
            "Coherence backend for the sweep: $(b,adaptive) audits base+full with \
             the differential replay, $(b,msi)/$(b,mesi) check the machine's SC \
             verdict and statistics identities over the snooping machine." ()
      $ Cli_common.nodes ~default:6 ()
      $ Cli_common.scale ~default:0.15 ~doc:"Run-length scale for app benchmarks." ()
      $ max_lines_arg $ trace_arg $ replay_arg $ fault_arg $ golden_arg
      $ Cli_common.metrics
          ~doc_suffix:" (sweep mode only; other modes ignore the flag)" ())
  in
  Cmd.v
    (Cmd.info "pcc_oracle"
       ~doc:"Differential coherence oracle: audited simulation vs. model checker")
    term

let () = exit (Cmd.eval' cmd)
