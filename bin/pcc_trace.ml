(* Transaction-level telemetry: run one workload with the telemetry
   recorder attached and emit a Perfetto trace (trace.json), time-series
   metrics (metrics.jsonl), and a text latency/phase report.  Doubles as
   a self-profiler of the simulator (events/sec, peak queue depth).

     dune exec bin/pcc_trace.exe -- --out-dir /tmp/pcc
     dune exec bin/pcc_trace.exe -- --workload em3d --machine full --sample-every 200

   Load trace.json at https://ui.perfetto.dev or chrome://tracing. *)

open Cmdliner
open Pcc
module Sim = Pcc.Simulator

(* Post-mortem decode mode: turn a flight-recorder dump into a readable
   timeline on stdout and a Perfetto fragment next to the dump file. *)
let decode_flight path =
  match Telemetry.Flight.load path with
  | Error message ->
      Printf.eprintf "pcc_trace --flight: %s\n" message;
      2
  | Ok dump ->
      Format.printf "@[<v>%a@]@?" Telemetry.Flight.pp_timeline dump;
      let perfetto_path = path ^ ".perfetto.json" in
      Telemetry.Flight.write_perfetto ~path:perfetto_path dump;
      Format.printf "wrote %s (load at https://ui.perfetto.dev)@." perfetto_path;
      0

let run_traced ~workload_spec ~machine ~nodes ~scale ~seed ~sample_every ~out_dir
    ~max_events ~metrics_path =
  let workload =
    Cli_common.resolve_workload ~tool:"pcc_trace" ~nodes ~scale ~seed workload_spec
  in
  let nodes = Workload.nodes workload in
  let config =
    { (Cli_common.resolve_machine ~tool:"pcc_trace" ~nodes machine) with Config.seed }
  in
  let sys = System.create ~config () in
  let recorder = Telemetry.Recorder.attach ~sample_every sys in
  let wall_start = Unix.gettimeofday () in
  let result = System.run_stream ~max_events sys (Workload.stream workload) in
  let wall = Unix.gettimeofday () -. wall_start in
  let sim = System.sim sys in
  (match Unix.mkdir out_dir 0o755 with
  | () -> ()
  | exception Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spans = Telemetry.Recorder.spans recorder in
  let samples = Telemetry.Recorder.samples recorder in
  let recoveries = Telemetry.Recorder.recoveries recorder in
  Cli_common.write_metrics metrics_path (fun registry ->
      Telemetry.Registry.add_result registry result;
      Telemetry.Registry.add_system registry sys);
  let trace_path = Filename.concat out_dir "trace.json" in
  let metrics_path = Filename.concat out_dir "metrics.jsonl" in
  Telemetry.Perfetto.write ~recoveries ~path:trace_path spans;
  Telemetry.Metrics.write ~path:metrics_path
    ~links:(Telemetry.Recorder.retransmits_by_link recorder)
    samples;
  Telemetry.Report.print Format.std_formatter ~result ~spans ~samples ~recoveries
    ~self:
      {
        Telemetry.Report.wall_seconds = wall;
        events_executed = Sim.events_executed sim;
        peak_queue_depth = Sim.peak_pending sim;
      }
    ();
  Format.printf "wrote %s (%d spans), %s (%d samples)@." trace_path
    (List.length spans) metrics_path (List.length samples);
  let leftovers = Telemetry.Recorder.open_span_count recorder in
  if leftovers > 0 then begin
    Format.printf "WARNING: %d spans never closed (run did not quiesce?)@." leftovers;
    1
  end
  else if result.System.outcome <> Sim.Drained then 1
  else 0

let main workload_spec machine nodes scale seed sample_every out_dir max_events flight
    metrics_path =
  match flight with
  | Some path -> decode_flight path
  | None ->
      run_traced ~workload_spec ~machine ~nodes ~scale ~seed ~sample_every ~out_dir
        ~max_events ~metrics_path

let flight_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "flight" ] ~docv:"FILE"
        ~doc:
          "Decode a flight-recorder post-mortem dump instead of running a \
           workload: print the retained event window as a timeline and write \
           $(docv).perfetto.json next to it.")

let sample_arg =
  Arg.(
    value & opt int 500
    & info [ "sample-every" ] ~docv:"CYCLES"
        ~doc:
          "Time-series sampling cadence in simulated cycles (0 disables).  The \
           retained series is bounded: past the cap the recorder decimates and \
           doubles its cadence, so artifacts stay small at any run length.")

let out_dir_arg =
  Arg.(
    value & opt string "telemetry-out"
    & info [ "o"; "out-dir" ] ~docv:"DIR"
        ~doc:"Directory for trace.json and metrics.jsonl (created if missing).")

let cmd =
  let term =
    Term.(
      const main
      $ Cli_common.workload ~default:"prodcons" ()
      $ Cli_common.machine ()
      $ Cli_common.nodes ~default:8 ()
      $ Cli_common.scale ~default:0.15 ~doc:"Run-length scale for app benchmarks." ()
      $ Cli_common.seed ~default:7 ()
      $ sample_arg $ out_dir_arg
      $ Cli_common.max_events ~doc:"Event budget for the run." ()
      $ flight_arg $ Cli_common.metrics ())
  in
  Cmd.v
    (Cmd.info "pcc_trace"
       ~doc:
         "Run a workload with transaction-level telemetry: Perfetto trace export, \
          time-series metrics, and a latency/phase report")
    term

let () = exit (Cmd.eval' cmd)
