(* Checked-simulation sweeps: the simulation half of the paper's
   verification (pcc_check is the model-checking half).  Every sweep is a
   list of named run descriptors (Oracle.Trace.run_desc cells): one pool
   fans them out across domains (--jobs N / PCC_JOBS), Oracle.Runner's
   one verdict judges each, and one printer reports them in submission
   order, so stdout, --json and --metrics are byte-identical at every
   jobs level.  A failed cell leaves its flight dump at
   <flight-dir>/<cell>.flight.json, which --replay re-runs.  The sweeps:

   - differential (the default): seed x workload x base/full, each run's
     operations replayed through the model checker;
   - chaos (--profile NAME|all): seed x fault profile x workload over an
     unreliable interconnect, with fail-stop crashes on request (--crash,
     --crash-nodes, --restart-after); it passes only if the recovery
     machinery was exercised;
   - litmus (--litmus): the litmus matrix of Oracle.Trace.litmus_cells;
   - planted faults: the litmus corpus on a broken machine
     (--litmus-mutated) and seeds 1-10 of the stale-update bug
     (--inject-fault), which pass only when some cell fails.

     dune exec bin/pcc_oracle.exe -- --seeds 50
     dune exec bin/pcc_oracle.exe -- --profile all --seeds 17 --jobs 2
     dune exec bin/pcc_oracle.exe -- --profile storm --crash 1 --seeds 12
     dune exec bin/pcc_oracle.exe -- --litmus --protocol msi
     dune exec bin/pcc_oracle.exe -- --inject-fault --flight-dir /tmp/fault
     dune exec bin/pcc_oracle.exe -- --replay flight-dumps/CELL.flight.json *)

open Cmdliner
open Pcc

type family =
  | Differential
  | Chaos of string  (** a fault profile or [all] *)
  | Litmus of { mutated : bool }
  | Inject_fault

type mode = Sweep of family | Replay of string | Golden

(* The flags each mode reads; any other flag given is a usage error. *)
let sweep_flags = [ "--jobs"; "--json"; "--verbose"; "--flight-dir"; "--metrics" ]

let seed_flags = [ "--seeds"; "--workload"; "--nodes"; "--scale"; "--protocol" ]

let reads = function
  | Sweep Differential -> ("--max-lines" :: seed_flags) @ sweep_flags
  | Sweep (Chaos _) ->
      seed_flags @ sweep_flags
      @ [
          "--max-events"; "--crash"; "--crash-nodes"; "--restart-after"; "--txn-timeout";
          "--fallback-threshold";
        ]
  | Sweep (Litmus _) -> "--protocol" :: sweep_flags
  | Sweep Inject_fault -> "--nodes" :: "--scale" :: sweep_flags
  | Replay _ -> [ "--max-lines" ]
  | Golden -> [ "--scale" ]

type opts = {
  pin : string option;
  seeds : int;
  protocol : Types.protocol;
  nodes : int;
  scale : float;
  max_lines : int;
  max_events : int;
  crash : int;
  crash_nodes : int list;
  restart_after : int;
  txn_timeout : int;
  fallback_threshold : int;
  jobs : int;
  json : string option;
  verbose : bool;
  flight_dir : string;
  metrics : string option;
}

(* What a sweep runs and how it is judged and tallied. *)
type sweep = {
  cells : (string * Oracle.Trace.run_desc) list;
  replay : bool;  (* replay each clean adaptive run through the model *)
  lossy : bool;  (* tally injected faults and recovery, which must happen *)
  crashes : bool;  (* some node must fail-stop *)
  planted : bool;  (* passes only when some cell fails *)
}

(* A run's counters, 0 for a run that aborted online.  A lossy sweep's
   cells list them recovered, injected, crashed; its tally and metrics
   list them injected, recovered, crashed. *)
let stat f (r : Oracle.Runner.report) =
  Option.fold r.result ~none:0 ~some:(fun result -> f result.System.stats)

let injected f (r : Oracle.Runner.report) = Option.fold r.faults ~none:0 ~some:f

let replayed f (r : Oracle.Runner.report) = Option.fold r.diff ~none:0 ~some:f

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

let model =
  [
    ("ops_replayed", replayed (fun o -> o.Oracle.Diff.ops_replayed));
    ("model_steps", replayed (fun o -> o.Oracle.Diff.model_steps));
  ]

(* A seed sweep's cell: seed, machine (a chaos cell's fault profile) and
   workload, e.g. seed1-base-random, seed2-full+fault-random or
   seed1-drops-barnes. *)
let cell (d : Oracle.Trace.run_desc) =
  let machine =
    match d.chaos with
    | Some c -> c.profile
    | None -> d.config_name ^ if d.fault then "+fault" else ""
  in
  (Printf.sprintf "seed%d-%s-%s" d.seed machine d.bench, d)

let for_seeds o f = List.concat_map f (List.init o.seeds succ)

let sweep ?(replay = true) ?(lossy = false) ?(crashes = false) ?(planted = false) cells =
  { cells; replay; lossy; crashes; planted }

let sweep_of family o =
  let base = { Oracle.Trace.default with nodes = o.nodes; scale = o.scale } in
  match family with
  | Differential ->
      (* each workload under the baseline and the fully adaptive machine,
         or the selected snooping backend *)
      let configs =
        match o.protocol with Types.Adaptive -> [ "base"; "full" ] | p -> [ Protocol.to_string p ]
      in
      Ok
        (sweep
           (for_seeds o (fun seed ->
                List.concat_map
                  (fun bench ->
                    List.map
                      (fun config_name -> cell { base with bench; config_name; seed })
                      configs)
                  (Cli_common.sweep_benches ~pin:o.pin seed))))
  | Chaos name ->
      let profiles =
        if name = "all" then Ok (List.map fst Fault.presets)
        else Result.map (fun _ -> [ name ]) (Fault.preset name ~seed:0)
      in
      Result.map
        (fun profiles ->
          let crash : Oracle.Trace.crash =
            if o.crash_nodes <> [] then Victims o.crash_nodes else Seeded o.crash
          in
          let chaos profile =
            {
              Oracle.Trace.profile;
              crash;
              restart_after = o.restart_after;
              txn_timeout = o.txn_timeout;
              fallback_threshold = o.fallback_threshold;
            }
          in
          sweep ~replay:false ~lossy:true ~crashes:(crash <> Seeded 0)
            (for_seeds o (fun seed ->
                 List.concat_map
                   (fun profile ->
                     List.map
                       (fun bench ->
                         cell
                           {
                             base with
                             bench;
                             protocol = Some o.protocol;
                             seed;
                             max_events = o.max_events;
                             chaos = Some (chaos profile);
                           })
                       (Cli_common.sweep_benches ~pin:o.pin seed))
                   profiles)))
        profiles
  | Litmus { mutated } ->
      (* --protocol msi/mesi restricts the matrix to that backend; the
         mutated corpus runs once on the backend's own machine with its
         planted fault *)
      let machines =
        match o.protocol with Types.Adaptive -> None | p -> Some [ Protocol.to_string p ]
      in
      Ok
        (if mutated then
           sweep ~planted:true
             (Oracle.Trace.litmus_cells ~fault:true
                ~machines:(Option.value machines ~default:[ "full" ])
                ~profiles:[ None ] ~seeds:[ 1 ] Litmus.corpus)
         else sweep (Oracle.Trace.litmus_cells ?machines Litmus.corpus))
  | Inject_fault ->
      (* not every seed's workload pushes an update into the window the
         stale-update fault corrupts *)
      Ok
        (sweep ~replay:false ~planted:true
           (List.init 10 (fun i -> cell { base with seed = i + 1; fault = true })))

(* Every flag default passes, so a mode that does not read a flag never
   trips its check. *)
let validate o =
  let crash_nodes_ok =
    List.for_all (fun v -> v >= 0 && v < o.nodes) o.crash_nodes
    && List.length (List.sort_uniq compare o.crash_nodes) = List.length o.crash_nodes
    && List.length o.crash_nodes <= o.nodes - 1
  in
  let checks =
    [
      (o.seeds < 1, Printf.sprintf "--seeds must be at least 1 (got %d)" o.seeds);
      (o.nodes < 2, Printf.sprintf "--nodes must be at least 2 (got %d)" o.nodes);
      ( (o.crash > 0 || o.crash_nodes <> []) && o.protocol <> Types.Adaptive,
        Printf.sprintf "fail-stop crashes need the adaptive backend (--protocol %s given)"
          (Protocol.to_string o.protocol) );
      ( o.crash < 0 || o.crash > o.nodes - 1,
        Printf.sprintf "--crash must be in [0, nodes-1] (got %d)" o.crash );
      (* a sweep's pass criterion is full quiescence with every operation
         committed; a victim that never returns cannot satisfy it *)
      ( o.restart_after <= 0,
        Printf.sprintf "--restart-after must be positive (got %d)" o.restart_after );
      ( not crash_nodes_ok,
        Printf.sprintf
          "--crash-nodes must list distinct nodes in [0, %d], leaving at least one survivor"
          (o.nodes - 1) );
    ]
  in
  match List.find_opt fst checks with
  | Some (_, message) -> Error message
  | None ->
      Option.fold ~none:(Ok ()) ~some:Result.error
        (Cli_common.pin_error ~nodes:o.nodes ~scale:o.scale o.pin)

let make_flight_dir = function
  | "none" -> Ok None
  | dir -> (
      match Cli_common.make_dir dir with
      | Ok () -> Ok (Some dir)
      | Error message -> Error ("--flight-dir: " ^ message))

let print_cell ~verbose name (report : Oracle.Runner.report) =
  match report.failures with
  | [] -> if verbose then Printf.printf "%s pass\n" name
  | failures ->
      Printf.printf "%s FAIL\n" name;
      List.iter (Printf.printf "  %s\n") failures;
      Option.iter
        (fun path ->
          Printf.printf "  flight dump: %s (replay with pcc_oracle --replay %s)\n" path path)
        report.dump

let json_of_cell ~counters ~dump ((name, d) : string * Oracle.Trace.run_desc)
    (r : Oracle.Runner.report) =
  let workload =
    Result.get_ok (Workload.of_spec ~nodes:d.nodes ~scale:d.scale ~seed:d.seed d.bench)
  in
  let string = Option.fold ~none:Jsonl.Null ~some:(fun s -> Jsonl.String s) in
  Jsonl.Obj
    ([
       ("seed", Jsonl.Int d.seed);
       ("profile", string (Option.map (fun c -> c.Oracle.Trace.profile) d.chaos));
       ("bench", Jsonl.String d.bench);
       ("workload", Jsonl.String (Workload.describe workload));
       ("config", Jsonl.String d.config_name);
       ("total_ops", Jsonl.Int r.accesses);
       ("problems", Jsonl.List (List.map (fun p -> Jsonl.String p) r.failures));
     ]
    @ List.map (fun (name, count) -> (name, Jsonl.Int (count r))) counters
    @ [ ("flight_dump", string (dump name)) ])

let run_sweep o ~flight_dir s =
  let dump name =
    Option.map (fun dir -> Filename.concat dir (name ^ ".flight.json")) flight_dir
  in
  let task (name, desc) =
    ( name,
      fun () -> Oracle.Runner.run ~diff:s.replay ~max_lines:o.max_lines ?dump:(dump name) desc )
  in
  let reports = Pool.run_keyed ~jobs:o.jobs (List.map task s.cells) in
  List.iter2 (fun (name, _) -> print_cell ~verbose:o.verbose name) s.cells reports;
  let runs = List.length reports in
  let failures = List.length (List.filter (fun r -> not (Oracle.Runner.clean r)) reports) in
  let total name =
    let count = List.assoc name (recovered @ injections @ crashed @ model) in
    List.fold_left (fun acc r -> acc + count r) 0 reports
  in
  let only flag group = if flag then group else [] in
  Printf.printf "%d runs, %d failures%s\n" runs failures
    (if s.replay then
       Printf.sprintf "; %d ops replayed through the model (%d steps)" (total "ops_replayed")
         (total "model_steps")
     else "");
  if s.lossy then
    Printf.printf
      "injected: %d drops, %d duplicates, %d delays, %d outages\n\
       recovered: %d retransmits, %d duplicates dropped, %d txn timeouts, %d fallbacks\n"
      (total "injected_drops") (total "injected_dups") (total "injected_delays")
      (total "injected_outages") (total "retransmits") (total "dup_dropped")
      (total "txn_timeouts") (total "fallbacks");
  if s.crashes then
    Printf.printf "crashed: %d fail-stops, %d restarts, %d delegations revoked\n"
      (total "crashes") (total "restarts") (total "crash_revoked");
  let names = List.map fst in
  Option.iter
    (fun path ->
      let counters = only s.lossy (recovered @ injections @ crashed) @ only s.replay model in
      let tally = names (only s.lossy (injections @ recovered @ crashed) @ only s.replay model) in
      let doc =
        Jsonl.Obj
          [
            ("runs", Jsonl.List (List.map2 (json_of_cell ~counters ~dump) s.cells reports));
            ( "tally",
              Jsonl.Obj
                ([ ("runs", Jsonl.Int runs); ("failures", Jsonl.Int failures) ]
                @ List.map (fun name -> (name, Jsonl.Int (total name))) tally) );
          ]
      in
      Atomic_file.write ~path (fun oc ->
          output_string oc (Jsonl.to_string doc);
          output_char oc '\n'))
    o.json;
  (* recovery and crash counters come with each run's statistics *)
  Cli_common.write_metrics o.metrics (fun registry ->
      let counter = Telemetry.Registry.counter registry in
      List.iter
        (fun (r : Oracle.Runner.report) ->
          Option.iter (Telemetry.Registry.add_result ~summaries:false registry) r.result)
        reports;
      counter "pcc_oracle_runs" runs;
      counter "pcc_oracle_failures" failures;
      List.iter
        (fun name -> counter ("pcc_oracle_" ^ name) (total name))
        (names (only s.lossy injections @ only s.replay model)));
  if s.planted then
    if failures > 0 then begin
      Printf.printf "planted fault caught in %d of %d runs\n" failures runs;
      0
    end
    else begin
      Printf.printf "PLANTED FAULT NOT CAUGHT in %d runs\n" runs;
      1
    end
  else if failures > 0 then 1
  else if s.lossy && (total "retransmits" = 0 || total "dup_dropped" = 0) then begin
    (* a sweep that never had to recover proves nothing *)
    Printf.printf "SWEEP TOO QUIET: recovery machinery never exercised\n";
    1
  end
  else if s.crashes && total "crashes" = 0 then begin
    Printf.printf "SWEEP TOO QUIET: crash mode on but no node ever fail-stopped\n";
    1
  end
  else 0

(* A replayed dump may also name a backend and a fault profile. *)
let describe (d : Oracle.Trace.run_desc) =
  Printf.sprintf "seed=%d bench=%s config=%s nodes=%d scale=%.2f%s%s%s" d.seed d.bench
    d.config_name d.nodes d.scale
    (Option.fold d.protocol ~none:"" ~some:(fun p -> " protocol=" ^ Protocol.to_string p))
    (Option.fold d.chaos ~none:"" ~some:(fun c -> " profile=" ^ c.Oracle.Trace.profile))
    (if d.fault then " FAULT" else "")

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
    [ "base"; "full" ];
  0

(* Every check runs before the first simulation: a usage error exits 2. *)
let main mode o given =
  let ( let* ) = Result.bind in
  let checked =
    let* name, mode = mode in
    let* () =
      match List.find_opt (fun flag -> not (List.mem flag (reads mode))) given with
      | Some flag -> Error (Printf.sprintf "%s does not read %s" name flag)
      | None -> Ok ()
    in
    let* () = validate o in
    match mode with
    | Replay path -> Ok (fun () -> run_replay ~max_lines:o.max_lines ~path)
    | Golden -> Ok (fun () -> run_golden ~nodes:8 ~scale:o.scale ~seed:7)
    | Sweep family ->
        let* s = sweep_of family o in
        let* flight_dir = make_flight_dir o.flight_dir in
        Ok (fun () -> run_sweep o ~flight_dir s)
  in
  match checked with
  | Error message ->
      Printf.eprintf "pcc_oracle: %s\n" message;
      2
  | Ok run -> run ()

(* A flag's value, and its name when the command line gave it. *)
let tracked flag term =
  Term.map (fun (v, used) -> (v, if used = [] then [] else [ flag ])) (Term.with_used_args term)

let profile_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "profile" ] ~docv:"NAME"
        ~doc:
          "Run the chaos sweep over fault profile $(docv) (drops, storm, outages) or \
           $(b,all) of them, instead of the differential sweep.")

let litmus_arg =
  Arg.(
    value & flag
    & info [ "litmus" ]
        ~doc:"Run the litmus matrix (tests × machines × chaos profiles × seeds).")

let mutated_arg =
  Arg.(
    value & flag
    & info [ "litmus-mutated" ]
        ~doc:
          "Run the litmus corpus on a machine with its backend's planted fault; passes \
           only when some cell fails.")

let fault_arg =
  Arg.(
    value & flag
    & info [ "inject-fault" ]
        ~doc:
          "Run seeds 1-10 with the stale-update protocol fault planted; passes only \
           when some cell fails.")

let replay_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "replay" ] ~docv:"FILE"
        ~doc:
          "Re-run the checked run a flight dump describes (a failed cell's), or a \
           file holding one run descriptor object.")

let golden_arg =
  Arg.(
    value & flag
    & info [ "golden" ] ~doc:"Print the golden-statistics table for test_golden.ml.")

let mode_term =
  let open Term.Syntax in
  let+ profile = profile_arg
  and+ litmus = litmus_arg
  and+ mutated = mutated_arg
  and+ inject_fault = fault_arg
  and+ replay = replay_arg
  and+ golden = golden_arg in
  let flag set name mode = if set then [ (name, mode) ] else [] in
  match
    Option.fold profile ~none:[] ~some:(fun p -> [ ("--profile", Sweep (Chaos p)) ])
    @ flag litmus "--litmus" (Sweep (Litmus { mutated = false }))
    @ flag mutated "--litmus-mutated" (Sweep (Litmus { mutated = true }))
    @ flag inject_fault "--inject-fault" (Sweep Inject_fault)
    @ Option.fold replay ~none:[] ~some:(fun p -> [ ("--replay", Replay p) ])
    @ flag golden "--golden" Golden
  with
  | [] -> Ok ("the differential sweep", Sweep Differential)
  | [ selected ] -> Ok selected
  | (a, _) :: (b, _) :: _ -> Error (Printf.sprintf "%s and %s select different modes" a b)

let max_lines_arg =
  Arg.(
    value & opt int 400
    & info [ "max-lines" ] ~docv:"N" ~doc:"Cap on lines replayed through the model.")

let txn_timeout_arg =
  Arg.(
    value & opt int 2000
    & info [ "txn-timeout" ] ~docv:"CYCLES"
        ~doc:"Initial per-transaction completion timeout of a chaos run.")

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
          "Fail-stop $(docv) seeded victim nodes per chaos run (0 disables; at least \
           one node always survives).  Victims lose all volatile state, are detected \
           and recovered from by the directory, and restart cold.")

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
           positive: a sweep's pass criterion needs every victim back to commit its \
           remaining operations.")

let flight_dir_arg =
  Arg.(
    value & opt string "flight-dumps"
    & info [ "flight-dir" ] ~docv:"DIR"
        ~doc:
          "Directory for the flight dumps of failed cells, made before any run \
           ($(b,none) writes none).  A cell that fails any check leaves its dump, \
           with its run descriptor and failures, at $(docv)/$(i,CELL).flight.json \
           (re-run with $(b,--replay), decode with $(b,pcc_trace --flight)).")

let cmd =
  let open Term.Syntax in
  let term =
    let+ mode = mode_term
    and+ pin, g_workload =
      tracked "--workload"
        (Cli_common.workload_spec
           ~doc:
             "Pin every seed's runs to one workload spec ($(i,NAME) or \
              $(i,NAME:key=value,...)) instead of the random + rotating-benchmark \
              pair per seed."
           ())
    and+ seeds, g_seeds =
      tracked "--seeds"
        (Cli_common.seeds ~doc:"Seeds to sweep (2 workloads each, or the --workload pin)." ())
    and+ protocol, g_protocol =
      tracked "--protocol"
        (Cli_common.protocol
           ~doc:
             "Coherence backend: $(b,adaptive) runs base+full with the model replay \
              (the full machine under chaos, the whole litmus matrix); $(b,msi) / \
              $(b,mesi) run that snooping machine (the full machine's bus backend \
              under chaos) or restrict the litmus matrix to it."
           ())
    and+ nodes, g_nodes = tracked "--nodes" (Cli_common.nodes ~default:6 ())
    and+ scale, g_scale =
      tracked "--scale"
        (Cli_common.scale ~default:0.15 ~doc:"Run-length scale for app benchmarks." ())
    and+ max_lines, g_max_lines = tracked "--max-lines" max_lines_arg
    and+ max_events, g_max_events =
      tracked "--max-events" (Cli_common.max_events ~doc:"Event budget per chaos run." ())
    and+ crash, g_crash = tracked "--crash" crash_arg
    and+ crash_nodes, g_crash_nodes = tracked "--crash-nodes" crash_nodes_arg
    and+ restart_after, g_restart_after = tracked "--restart-after" restart_after_arg
    and+ txn_timeout, g_txn_timeout = tracked "--txn-timeout" txn_timeout_arg
    and+ fallback_threshold, g_fallback = tracked "--fallback-threshold" fallback_arg
    and+ jobs, g_jobs = tracked "--jobs" (Cli_common.jobs ~what:"checked runs" ())
    and+ json, g_json =
      tracked "--json"
        (Cli_common.json
           ~doc:"Write machine-readable per-cell reports and the final tally to $(docv)."
           ())
    and+ verbose, g_verbose =
      tracked "--verbose" (Cli_common.verbose ~doc:"Print each passing cell." ())
    and+ flight_dir, g_flight_dir = tracked "--flight-dir" flight_dir_arg
    and+ metrics, g_metrics = tracked "--metrics" (Cli_common.metrics ()) in
    main mode
      {
        pin;
        seeds;
        protocol;
        nodes;
        scale;
        max_lines;
        max_events;
        crash;
        crash_nodes;
        restart_after;
        txn_timeout;
        fallback_threshold;
        jobs;
        json;
        verbose;
        flight_dir;
        metrics;
      }
      (List.concat
         [
           g_workload; g_seeds; g_protocol; g_nodes; g_scale; g_max_lines; g_max_events;
           g_crash; g_crash_nodes; g_restart_after; g_txn_timeout; g_fallback; g_jobs;
           g_json; g_verbose; g_flight_dir; g_metrics;
         ])
  in
  Cmd.v
    (Cmd.info "pcc_oracle"
       ~doc:
         "Checked-simulation sweeps: differential, chaos, crash, litmus and \
          planted-fault cells judged by the online oracle")
    term

let () = exit (Cmd.eval' cmd)
