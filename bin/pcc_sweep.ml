(* Parameter-sweep driver: vary one knob of the machine configuration and
   print a row per setting.  Settings are independent simulations, so the
   sweep fans out across domains (--jobs N / PCC_JOBS; 1 = sequential).

     dune exec bin/pcc_sweep.exe -- --workload mg --knob delegate --values 32,64,128,1024 *)

open Pcc
open Cmdliner

let apply_knob config knob value =
  match knob with
  | "delegate" -> Ok { config with Config.delegate_entries = value }
  | "rac-kb" -> Ok { config with Config.rac_bytes = value * 1024 }
  | "delay" -> Ok { config with Config.intervention_delay = value }
  | "hop" -> Ok (Config.with_hop_latency config value)
  | other -> Error (Printf.sprintf "unknown knob %S (delegate, rac-kb, delay, hop)" other)

let write_json path ~app_name ~workload ~knob ~protocol ~nodes ~scale
    ~(base : System.result) rows =
  let row (value, (r : System.result)) =
    Jsonl.Obj
      [
        ("value", Jsonl.Int value);
        ("cycles", Jsonl.Int r.System.cycles);
        ( "speedup",
          Jsonl.Float (float_of_int base.System.cycles /. float_of_int r.System.cycles) );
        ("network_messages", Jsonl.Int r.System.network_messages);
        ("remote_misses", Jsonl.Int (Run_stats.remote_misses r.System.stats));
        ("violations", Jsonl.Int r.System.violations);
      ]
  in
  let doc =
    Jsonl.Obj
      [
        ("app", Jsonl.String app_name);
        ("workload", Jsonl.String workload);
        ("knob", Jsonl.String knob);
        ("protocol", Jsonl.String (Protocol.to_string protocol));
        ("nodes", Jsonl.Int nodes);
        ("scale", Jsonl.Float scale);
        ("base_cycles", Jsonl.Int base.System.cycles);
        ("rows", Jsonl.List (List.map row rows));
      ]
  in
  Atomic_file.write ~path (fun oc ->
      output_string oc (Jsonl.to_string doc);
      output_char oc '\n')

let run workload_spec knob values protocol nodes scale seed jobs json_path metrics_path =
  Cli_common.check_outputs ~tool:"pcc_sweep" [ json_path; metrics_path ];
  let workload =
    Cli_common.resolve_workload ~tool:"pcc_sweep" ~nodes ~scale ~seed workload_spec
  in
  let nodes = Workload.nodes workload in
  (
      (* Validate every setting before spending any simulation time. *)
      let swept = { (Config.small_full ~nodes ()) with Config.protocol } in
      let configs = List.map (fun value -> (value, apply_knob swept knob value)) values in
      match
        List.filter_map (function _, Error m -> Some m | _, Ok _ -> None) configs
      with
      | message :: _ ->
          prerr_endline message;
          1
      | [] ->
          let configs =
            List.map (function v, Ok c -> (v, c) | _, Error _ -> assert false) configs
          in
          (* Materialize once, outside the pool: every swept setting runs
             the same program array (and lazy workloads are forced in the
             main domain, not raced from workers). *)
          let programs = Workload.programs workload in
          (* The baseline rides in the pool with the swept settings. *)
          let baseline = { (Config.base ~nodes ()) with Config.protocol } in
          let tasks =
            ("base", fun () -> System.run ~config:baseline ~programs ())
            :: List.map
                 (fun (value, config) ->
                   (string_of_int value, fun () -> System.run ~config ~programs ()))
                 configs
          in
          let base, results =
            match Pool.run_keyed ~jobs tasks with
            | base :: results -> (base, List.combine (List.map fst configs) results)
            | [] -> assert false
          in
          let table =
            Table.create
              ~title:(Printf.sprintf "%s: sweep of %s (baseline %d cycles)"
                        (Workload.name workload) knob base.System.cycles)
              ~columns:[ knob; "cycles"; "speedup"; "net msgs"; "remote misses"; "violations" ]
          in
          let failed = ref false in
          List.iter
            (fun (value, r) ->
              if r.System.violations > 0 || r.System.invariant_errors <> [] then
                failed := true;
              Table.add_row table
                [
                  Table.Int value;
                  Table.Int r.System.cycles;
                  Table.Float (float_of_int base.System.cycles /. float_of_int r.System.cycles);
                  Table.Int r.System.network_messages;
                  Table.Int (Run_stats.remote_misses r.System.stats);
                  Table.Int r.System.violations;
                ])
            results;
          Table.print table;
          (match json_path with
          | Some path ->
              write_json path ~app_name:(Workload.name workload)
                ~workload:(Workload.describe workload) ~knob ~protocol ~nodes ~scale
                ~base results
          | None -> ());
          (* Aggregate registry: counters sum across every swept setting
             (summaries skipped — they would just keep the last run). *)
          Cli_common.write_metrics metrics_path (fun registry ->
              List.iter
                (fun r -> Telemetry.Registry.add_result ~summaries:false registry r)
                (base :: List.map snd results);
              Telemetry.Registry.gauge registry "pcc_sweep_settings"
                (List.length results));
          if !failed then 2 else 0)

let seed_arg = Cli_common.seed ()

let knob_arg =
  Arg.(
    value & opt string "delegate"
    & info [ "k"; "knob" ] ~doc:"Parameter: delegate, rac-kb, delay, hop.")

let values_arg =
  Arg.(
    value
    & opt (list int) [ 32; 64; 128; 256; 512; 1024 ]
    & info [ "values" ] ~doc:"Comma-separated settings.")

let cmd =
  let term =
    Term.(
      const run $ Cli_common.workload ~default:"mg" () $ knob_arg $ values_arg
      $ Cli_common.protocol ()
      $ Cli_common.nodes () $ Cli_common.scale () $ seed_arg
      $ Cli_common.jobs ~what:"settings" ()
      $ Cli_common.json ~doc:"Write machine-readable sweep results to $(docv)." ()
      $ Cli_common.metrics ())
  in
  Cmd.v (Cmd.info "pcc_sweep" ~doc:"Sweep one machine parameter over a workload") term

let () = exit (Cmd.eval' cmd)
