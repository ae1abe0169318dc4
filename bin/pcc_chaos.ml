(* Seeded chaos sweeps: run workloads over a deliberately unreliable
   interconnect — packets dropped, duplicated, delayed, reordered, links
   taken down transiently — with the online coherence oracle attached.
   Each run is an Oracle.Runner checked run: the descriptor names the
   fault profile, crash request and recovery knobs, and the runner's one
   verdict judges it.  A sweep passes only if every run passes that
   verdict and the recovery machinery was actually exercised (nonzero
   retransmit / duplicate-drop counters).  A failed run leaves a flight
   dump that pcc_oracle --replay re-runs.

   Seeds are independent simulations, so the sweep fans out across
   domains (--jobs N / PCC_JOBS; 1 = sequential).  Workers never print:
   each run returns a report and the main domain prints them in
   submission order, so output and the --json artifact are bit-identical
   at every jobs level.

   Crash-sweep mode layers scheduled fail-stop node crashes (--crash,
   --restart-after, --crash-nodes) on top of the packet chaos: each run
   additionally kills nodes mid-flight and must recover through the
   epoch/revocation machinery, restart them cold, and still commit every
   operation.

     dune exec bin/pcc_chaos.exe -- --seeds 34
     dune exec bin/pcc_chaos.exe -- --profile storm --seeds 5 --verbose
     dune exec bin/pcc_chaos.exe -- --crash 1 --seeds 12
     dune exec bin/pcc_chaos.exe -- --crash-nodes 1,3 --restart-after 8000 *)

open Cmdliner
open Pcc

let bench_rotation = [| "barnes"; "ocean"; "em3d"; "lu"; "cg"; "mg"; "appbt" |]

(* A run's counters, 0 for a run that aborted online, in three groups:
   each run's JSON lists them recovered, injected, crashed; the tally
   and the metrics list them injected, recovered, crashed. *)
let stat f (r : Oracle.Runner.report) =
  Option.fold r.result ~none:0 ~some:(fun result -> f result.System.stats)

let injected f (r : Oracle.Runner.report) = Option.fold r.faults ~none:0 ~some:f

let recovered =
  [
    ("retransmits", stat (fun s -> s.Run_stats.retransmits));
    ("dup_dropped", stat (fun s -> s.Run_stats.dup_dropped));
    ("txn_timeouts", stat (fun s -> s.Run_stats.txn_timeouts));
    ("fallbacks", stat (fun s -> s.Run_stats.fallbacks));
  ]

let injections =
  [
    ("injected_drops", injected (fun f -> f.Fault.dropped));
    ("injected_dups", injected (fun f -> f.Fault.duplicated));
    ("injected_delays", injected (fun f -> f.Fault.delayed));
    ("injected_outages", injected (fun f -> f.Fault.outages_started));
  ]

let crashed =
  [
    ("crashes", stat (fun s -> s.Run_stats.crashes));
    ("restarts", stat (fun s -> s.Run_stats.restarts));
    ("crash_revoked", stat (fun s -> s.Run_stats.crash_revoked));
  ]

(* Everything one chaotic run reports back to the main domain. *)
type run_report = {
  rr_desc : Oracle.Trace.run_desc;
  rr_profile : string;
  rr_workload : string;
      (* resolved workload description (registry describe string) for the
         --json artifact *)
  rr_total_ops : int;
  rr_problems : string list;
  rr_counts : (string * int) list;
  rr_flight_dump : string option;
      (* where this run's flight dump goes: written only when it fails *)
}

(* One cell of the sweep, built, run and judged by Oracle.Runner.  The
   dump path is a function of the run's own identity, so parallel workers
   never collide and reruns overwrite; a failed run leaves its flight
   dump there, which pcc_oracle --replay re-runs. *)
let run_one ~flight_dir (desc : Oracle.Trace.run_desc) =
  let profile = (Option.get desc.chaos).profile in
  let dump =
    Option.map
      (fun dir ->
        Filename.concat dir
          (Printf.sprintf "seed%d-%s-%s.flight.json" desc.seed profile desc.bench))
      flight_dir
  in
  let report = Oracle.Runner.run ~diff:false ?dump desc in
  (* [bench] was validated up front in [main], so this cannot fail *)
  let workload =
    Result.get_ok
      (Workload.of_spec ~nodes:desc.nodes ~scale:desc.scale ~seed:desc.seed desc.bench)
  in
  {
    rr_desc = desc;
    rr_profile = profile;
    rr_workload = Workload.describe workload;
    rr_total_ops = report.accesses;
    rr_problems = report.failures;
    rr_counts =
      List.map (fun (name, count) -> (name, count report)) (recovered @ injections @ crashed);
    rr_flight_dump = dump;
  }

let print_report ~verbose (r : run_report) =
  let d = r.rr_desc in
  match r.rr_problems with
  | [] ->
      if verbose then
        Printf.printf "ok   seed=%d profile=%-7s bench=%-6s config=%s (%d ops)\n%!" d.seed
          r.rr_profile d.bench d.config_name r.rr_total_ops
  | problems ->
      Printf.printf "FAIL seed=%d profile=%s bench=%s config=%s\n" d.seed r.rr_profile
        d.bench d.config_name;
      List.iter (fun p -> Printf.printf "  %s\n%!" p) problems;
      Option.iter
        (fun path ->
          Printf.printf "  flight dump: %s (replay with pcc_oracle --replay %s)\n%!" path
            path)
        r.rr_flight_dump

let json_of_report (r : run_report) =
  let d = r.rr_desc in
  Jsonl.Obj
    ([
       ("seed", Jsonl.Int d.seed);
       ("profile", Jsonl.String r.rr_profile);
       ("bench", Jsonl.String d.bench);
       ("workload", Jsonl.String r.rr_workload);
       ("config", Jsonl.String d.config_name);
       ("total_ops", Jsonl.Int r.rr_total_ops);
       ("problems", Jsonl.List (List.map (fun p -> Jsonl.String p) r.rr_problems));
     ]
    @ List.map (fun (name, n) -> (name, Jsonl.Int n)) r.rr_counts
    @ [
        ( "flight_dump",
          Option.fold r.rr_flight_dump ~none:Jsonl.Null ~some:(fun p -> Jsonl.String p) );
      ])

let main workload_pin seeds protocol nodes scale profile_filter txn_timeout
    fallback_threshold max_events jobs json_path verbose crash_victims crash_nodes
    restart_after flight_dir metrics_path =
  let pin_error =
    (* validate the pinned spec loudly up front — workers must never be the
       first place an unknown workload name is noticed *)
    match workload_pin with
    | None -> None
    | Some spec -> (
        match Workload.of_spec ~nodes ~scale ~seed:1 spec with
        | Ok _ -> None
        | Error message -> Some message)
  in
  let profile_error =
    (* a typo'd profile is rejected before any run, like a workload *)
    match profile_filter with
    | Some name ->
        Result.fold (Fault.preset name ~seed:0) ~ok:(fun _ -> None) ~error:Option.some
    | None -> None
  in
  match Option.fold pin_error ~none:profile_error ~some:Option.some with
  | Some message ->
      Printf.eprintf "pcc_chaos: %s\n" message;
      2
  | None ->
  if protocol <> Types.Adaptive && (crash_victims > 0 || crash_nodes <> []) then begin
    Printf.eprintf
      "pcc_chaos: fail-stop crashes need the adaptive backend (--protocol %s given)\n"
      (Protocol.to_string protocol);
    2
  end
  else if nodes < 2 then begin
    Printf.eprintf "pcc_chaos: --nodes must be at least 2 (got %d)\n" nodes;
    2
  end
  else if crash_victims < 0 || crash_victims > nodes - 1 then begin
    Printf.eprintf "pcc_chaos: --crash must be in [0, nodes-1] (got %d)\n"
      crash_victims;
    2
  end
  else if restart_after <= 0 then begin
    (* a sweep's pass criterion is full quiescence with every operation
       committed; a victim that never returns cannot satisfy it, so
       permanent death stays in the test suite, not the sweep *)
    Printf.eprintf "pcc_chaos: --restart-after must be positive (got %d)\n"
      restart_after;
    2
  end
  else if
    List.exists (fun v -> v < 0 || v >= nodes) crash_nodes
    || List.length (List.sort_uniq compare crash_nodes) <> List.length crash_nodes
    || List.length crash_nodes > nodes - 1
  then begin
    Printf.eprintf
      "pcc_chaos: --crash-nodes must list distinct nodes in [0, %d], leaving at \
       least one survivor\n"
      (nodes - 1);
    2
  end
  else begin
    let flight_dir =
      match flight_dir with
      | "none" -> None
      | dir ->
          (match Sys.mkdir dir 0o755 with
          | () -> ()
          | exception Sys_error _ -> ());
          Some dir
    in
    let profiles =
      match profile_filter with
      | Some name -> [ name ]
      | None -> List.map fst Fault.presets
    in
    (* Same nesting as the sequential loops ever had: seed, profile,
       bench — the submission order is the print order. *)
    let cells =
      List.concat_map
        (fun seed ->
          let benches =
            match workload_pin with
            | Some spec -> [ spec ]
            | None ->
                [ "random"; bench_rotation.((seed - 1) mod Array.length bench_rotation) ]
          in
          List.concat_map
            (fun profile_name ->
              List.map (fun bench -> (seed, profile_name, bench)) benches)
            profiles)
        (List.init seeds (fun i -> i + 1))
    in
    let crash : Oracle.Trace.crash =
      if crash_nodes <> [] then Victims crash_nodes else Seeded crash_victims
    in
    let tasks =
      List.map
        (fun (seed, profile, bench) ->
          let desc =
            {
              Oracle.Trace.default with
              bench;
              protocol = Some protocol;
              nodes;
              scale;
              seed;
              max_events;
              chaos =
                Some { profile; crash; restart_after; txn_timeout; fallback_threshold };
            }
          in
          ( Printf.sprintf "seed=%d/%s/%s" seed profile bench,
            fun () -> run_one ~flight_dir desc ))
        cells
    in
    let reports = Pool.run_keyed ~jobs tasks in
    List.iter (print_report ~verbose) reports;
    let runs = List.length reports in
    let failures = List.length (List.filter (fun r -> r.rr_problems <> []) reports) in
    let total name =
      List.fold_left (fun acc r -> acc + List.assoc name r.rr_counts) 0 reports
    in
    let crash_mode = crash_victims > 0 || crash_nodes <> [] in
    Printf.printf
      "%d chaotic runs, %d failures\n\
       injected: %d drops, %d duplicates, %d delays, %d outages\n\
       recovered: %d retransmits, %d duplicates dropped, %d txn timeouts, %d fallbacks\n"
      runs failures (total "injected_drops") (total "injected_dups")
      (total "injected_delays") (total "injected_outages") (total "retransmits")
      (total "dup_dropped") (total "txn_timeouts") (total "fallbacks");
    if crash_mode then
      Printf.printf "crashed: %d fail-stops, %d restarts, %d delegations revoked\n"
        (total "crashes") (total "restarts") (total "crash_revoked");
    let names = List.map fst in
    let tally = names injections @ names recovered @ names crashed in
    Option.iter
      (fun path ->
        let doc =
          Jsonl.Obj
            [
              ("runs", Jsonl.List (List.map json_of_report reports));
              ( "tally",
                Jsonl.Obj
                  ([ ("runs", Jsonl.Int runs); ("failures", Jsonl.Int failures) ]
                  @ List.map (fun name -> (name, Jsonl.Int (total name))) tally) );
            ]
        in
        Atomic_file.write ~path (fun oc ->
            output_string oc (Jsonl.to_string doc);
            output_char oc '\n'))
      json_path;
    Cli_common.write_metrics metrics_path (fun registry ->
        let counter = Telemetry.Registry.counter registry in
        counter "pcc_chaos_runs" runs;
        counter "pcc_chaos_failures" failures;
        List.iter
          (fun name -> counter ("pcc_chaos_" ^ name) (total name))
          (names injections);
        List.iter
          (fun name -> counter ("pcc_" ^ name) (total name))
          (names recovered @ names crashed));
    if failures > 0 then 1
    else if total "retransmits" = 0 || total "dup_dropped" = 0 then begin
      (* a sweep that never had to recover proves nothing *)
      Printf.printf "SWEEP TOO QUIET: recovery machinery never exercised\n";
      1
    end
    else if crash_mode && total "crashes" = 0 then begin
      Printf.printf "SWEEP TOO QUIET: crash mode on but no node ever fail-stopped\n";
      1
    end
    else 0
  end

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"NAME"
        ~doc:"Run a single fault profile (drops, storm, outages) instead of all.")

let txn_timeout_arg =
  Arg.(
    value & opt int 2000
    & info [ "txn-timeout" ] ~docv:"CYCLES"
        ~doc:"Initial per-transaction completion timeout.")

let fallback_arg =
  Arg.(
    value & opt int 2
    & info [ "fallback-threshold" ] ~docv:"N"
        ~doc:"Timeout strikes before a line falls back to the base protocol.")

let crash_arg =
  Arg.(
    value & opt int 0
    & info [ "crash" ] ~docv:"N"
        ~doc:
          "Fail-stop $(docv) seeded victim nodes per run (0 disables; at least \
           one node always survives).  Victims lose all volatile state, are \
           detected and recovered from by the directory, and restart cold.")

let crash_nodes_arg =
  let parse s =
    try
      Ok
        (String.split_on_char ',' s
        |> List.filter (fun x -> String.trim x <> "")
        |> List.map (fun x -> int_of_string (String.trim x)))
    with Failure _ -> Error (`Msg (Printf.sprintf "%S: expected node ids like 1,3" s))
  in
  let print ppf vs =
    Format.pp_print_string ppf (String.concat "," (List.map string_of_int vs))
  in
  Arg.(
    value
    & opt (conv (parse, print)) []
    & info [ "crash-nodes" ] ~docv:"IDS"
        ~doc:
          "Comma-separated victim nodes (e.g. 1,3) to crash instead of seeded \
           picks; crash times stay seeded.  Overrides $(b,--crash).")

let restart_after_arg =
  Arg.(
    value & opt int 5_000
    & info [ "restart-after" ] ~docv:"CYCLES"
        ~doc:
          "Cycles between a victim's fail-stop and its cold restart.  Must be \
           positive: a sweep's pass criterion needs every victim back to \
           commit its remaining operations.")

let flight_dir_arg =
  Arg.(
    value & opt string "flight-dumps"
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for the flight dumps of failed runs (created if missing; \
           $(b,none) writes none).  Each run has a deterministic per-run path \
           there; a run that fails any check leaves its flight dump, with its \
           run descriptor and failures, at that path and the failure report \
           names it (re-run with $(b,pcc_oracle --replay), decode with \
           $(b,pcc_trace --flight)).")

let cmd =
  let term =
    Term.(
      const main
      $ Cli_common.workload_spec
          ~doc:
            "Pin every chaotic run to one workload spec ($(i,NAME) or \
             $(i,NAME:key=value,...)) instead of the random + rotating-benchmark \
             pair per seed."
          ()
      $ Cli_common.seeds ~default:34
          ~doc:"Seeds per fault profile (each seed runs 2 benchmarks)." ()
      $ Cli_common.protocol ()
      $ Cli_common.nodes ~default:6 ()
      $ Cli_common.scale ~default:0.15 ~doc:"Run-length scale for app benchmarks." ()
      $ profile_arg $ txn_timeout_arg $ fallback_arg
      $ Cli_common.max_events ()
      $ Cli_common.jobs ~what:"chaotic runs" ()
      $ Cli_common.json
          ~doc:"Write machine-readable per-run reports and the final tally to $(docv)."
          ()
      $ Cli_common.verbose ~doc:"Print each passing run." ()
      $ crash_arg $ crash_nodes_arg $ restart_after_arg $ flight_dir_arg
      $ Cli_common.metrics ())
  in
  Cmd.v
    (Cmd.info "pcc_chaos"
       ~doc:
         "Seeded chaos sweeps: coherence under an unreliable interconnect — and \
          under scheduled fail-stop node crashes — with the online oracle attached")
    term

let () = exit (Cmd.eval' cmd)
