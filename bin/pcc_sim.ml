(* Command-line simulator driver: run one workload under one machine
   configuration and print the run statistics.

     dune exec bin/pcc_sim.exe -- --workload em3d --machine full --scale 0.5
     dune exec bin/pcc_sim.exe -- --workload kv:skew=1.2,events=1000000
     dune exec bin/pcc_sim.exe -- --workload trace:file=run.pcct  # replay *)

open Pcc
open Cmdliner

let run workload_spec machine protocol nodes scale seed delegate_entries rac_kb
    intervention_delay hop_latency max_events verbose metrics_path flight_dump
    record_path json_path =
  let workload =
    Cli_common.resolve_workload ~tool:"pcc_sim" ~nodes ~scale ~seed workload_spec
  in
  (* a trace replay carries its own node count; generators were built at
     the requested one *)
  let nodes = Workload.nodes workload in
  (* --protocol switches an adaptive machine to a snooping backend; the
     adaptive default leaves the named machine (e.g. msi) as it is *)
  let config = Cli_common.resolve_machine ~tool:"pcc_sim" ~nodes machine in
  let config =
    if protocol = Protocol.Adaptive then config else { config with Config.protocol }
  in
  let config =
    {
      config with
      Config.delegate_entries =
        Option.value delegate_entries ~default:config.Config.delegate_entries;
      rac_bytes = (match rac_kb with Some kb -> kb * 1024 | None -> config.Config.rac_bytes);
      intervention_delay =
        Option.value intervention_delay ~default:config.Config.intervention_delay;
    }
  in
  let config =
    match hop_latency with Some hop -> Config.with_hop_latency config hop | None -> config
  in
  Format.printf "workload=%s machine=%s nodes=%d%s@."
    (Workload.describe workload)
    (Config.describe config) nodes
    (match Workload.total_accesses workload with
    | Some ops -> Printf.sprintf " ops=%d" ops
    | None -> "");
  let sys = System.create ~config () in
  let post_mortem reason =
    Option.iter
      (fun path ->
        System.write_flight_dump sys ~path ~reason;
        Format.printf "post-mortem flight dump: %s (decode with pcc_trace --flight %s)@."
          path path)
      flight_dump
  in
  let stream = Workload.stream workload in
  let writer = Option.map (fun path -> Btrace.Writer.create ~path ~nodes ()) record_path in
  let stream = match writer with Some w -> Btrace.recording w stream | None -> stream in
  let result =
    match System.run_stream ?max_events sys stream with
    | result ->
        Option.iter Btrace.Writer.close writer;
        result
    | exception e ->
        Option.iter Btrace.Writer.abort writer;
        post_mortem ("uncaught exception: " ^ Printexc.to_string e);
        raise e
  in
  (match (writer, record_path) with
  | Some _, Some path -> Format.printf "recorded binary trace: %s@." path
  | _ -> ());
  Cli_common.write_metrics metrics_path (fun registry ->
      Telemetry.Registry.add_result registry result;
      Telemetry.Registry.add_system registry sys);
  (match json_path with
  | Some path ->
      Atomic_file.write_string ~path
        (Run_export.to_string
           ~workload:(Workload.describe workload)
           ~key:(Config.describe config) result
        ^ "\n")
  | None -> ());
  Format.printf "cycles            %d@." result.System.cycles;
  Format.printf "network messages  %d (%d KB)@." result.System.network_messages
    (result.System.network_bytes / 1024);
  Format.printf "remote misses     %d@." (Run_stats.remote_misses result.System.stats);
  Format.printf "%a@." Run_stats.pp result.System.stats;
  Format.printf "updates consumed  %d, wasted %d@." result.System.updates_consumed
    result.System.updates_wasted;
  Format.printf "violations        %d@." result.System.violations;
  List.iter (Format.printf "INVARIANT ERROR: %s@.") result.System.invariant_errors;
  (match result.System.stall with
  | Some stall ->
      Format.printf "%a@." System.pp_stall_report stall;
      post_mortem
        (Format.asprintf "run ended %a with %d processor(s) unfinished"
           Simulator.pp_outcome stall.System.stall_outcome stall.System.stall_unfinished)
  | None -> ());
  if verbose then begin
    Format.printf "@.per-class network messages:@.";
    Format.printf "%a@." Counter.pp result.System.stats.Run_stats.message_classes
  end;
  if result.System.violations = 0 && result.System.invariant_errors = [] then 0
  else 2

let delegate_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "delegate-entries" ] ~docv:"E" ~doc:"Override delegate-table entries.")

let rac_arg =
  Arg.(value & opt (some int) None & info [ "rac-kb" ] ~docv:"KB" ~doc:"Override RAC size.")

let delay_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "intervention-delay" ] ~docv:"CYCLES" ~doc:"Override intervention delay.")

let hop_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "hop-latency" ] ~docv:"CYCLES" ~doc:"Override network hop latency.")

let max_events_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-events" ] ~docv:"N"
        ~doc:"Event budget for the run (default: unbounded).")

let flight_dump_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight-dump" ] ~docv:"PATH"
        ~doc:
          "On a stall or an uncaught exception, dump the always-on flight \
           recorder's retained event window to $(docv) (decode with \
           $(b,pcc_trace --flight)).")

let record_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "record" ] ~docv:"PATH"
        ~doc:
          "Record the executed op stream to $(docv) as a compact binary trace \
           (atomic temp+rename); re-feed it with \
           $(b,--workload trace:file=)$(docv).")

let cmd =
  let term =
    Term.(
      const run $ Cli_common.workload () $ Cli_common.machine () $ Cli_common.protocol ()
      $ Cli_common.nodes ()
      $ Cli_common.scale () $ Cli_common.seed () $ delegate_arg $ rac_arg $ delay_arg
      $ hop_arg $ max_events_arg
      $ Cli_common.verbose ~doc:"Print per-class message counters." ()
      $ Cli_common.metrics () $ flight_dump_arg $ record_arg
      $ Cli_common.json ~doc:"Write the canonical result row (Run_export) to $(docv)." ())
  in
  Cmd.v
    (Cmd.info "pcc_sim" ~doc:"Simulate a workload on a selectable coherence backend")
    term

let () = exit (Cmd.eval' cmd)
