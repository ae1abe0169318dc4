(* Shared cmdliner vocabulary for the five CLIs and bench/main.exe.

   Every tool speaks the same flags with the same docstrings; defaults
   differ per tool (a checked sweep wants 6 nodes at scale 0.15, the
   simulator driver wants the paper's 16 at 0.5), so each term takes its
   default as a parameter.  Tool-specific knobs (fault profiles, model
   bounds, output directories) stay in their own executables. *)

open Cmdliner

let nodes ?(default = 16) ?(doc = "Number of nodes.") () =
  Arg.(value & opt int default & info [ "n"; "nodes" ] ~docv:"N" ~doc)

let scale ?(default = 0.5) ?(doc = "Run-length scale.") () =
  Arg.(value & opt float default & info [ "s"; "scale" ] ~docv:"S" ~doc)

let seed ?(default = 1) ?(doc = "Workload seed.") () =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let seeds ?(default = 50) ?(doc = "Number of seeds to sweep.") () =
  Arg.(value & opt int default & info [ "seeds" ] ~docv:"N" ~doc)

(* Workload selection: the [--workload NAME[:k=v,...]] spec grammar over
   the Workload registry.  Parsing to a Workload.t happens in
   [resolve_workload] (not an Arg.conv) so unknown names and keys exit 2
   with a suggestion list, mirroring the --protocol loud-rejection
   contract.  [workload_spec] is the optional form, for tools that only
   pin a workload when asked. *)
let workload_spec
    ?(doc =
      Printf.sprintf
        "Workload spec: $(i,NAME) or $(i,NAME:key=value,...).  Names: %s.  Unknown names \
         and keys are rejected (exit 2)."
        (String.concat ", " (Pcc.Workload.names ()))) () =
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"SPEC" ~doc)

let workload ?(default = "em3d") () =
  Term.(const (Option.value ~default) $ workload_spec ())

(* A pcc_oracle seed sweep's workloads for one seed (differential and
   chaos): random plus one app benchmark, rotating through the paper's
   apps by [(seed - 1) mod 7]; a pinned spec replaces both. *)
let sweep_benches ~pin seed =
  match pin with
  | Some spec -> [ spec ]
  | None ->
      let apps = Pcc.Workloads.all in
      let app = List.nth apps ((seed - 1) mod List.length apps) in
      [ "random"; String.lowercase_ascii app.Pcc.Workloads.name ]

(* A pinned spec is validated before any run: a pool worker must never
   be the first to notice an unknown workload. *)
let pin_error ~nodes ~scale = function
  | None -> None
  | Some spec ->
      Result.fold
        (Pcc.Workload.of_spec ~nodes ~scale ~seed:1 spec)
        ~ok:(fun _ -> None) ~error:Option.some

let resolve_workload ~tool ~nodes ~scale ~seed spec =
  match Pcc.Workload.of_spec ~nodes ~scale ~seed spec with
  | Ok w -> w
  | Error message ->
      Printf.eprintf "%s: %s\n" tool message;
      exit 2

(* Machine selection: one name table ({!Pcc.Config.of_name}) for every
   tool.  Resolved after parsing, like the workload, because the machine
   is built for the workload's node count; unknown names exit 2 with the
   valid names listed. *)
let machine ?(default = "full") () =
  let doc =
    Printf.sprintf "Machine configuration: %s.  Unknown names are rejected (exit 2)."
      (String.concat ", " Pcc.Config.names)
  in
  Arg.(value & opt string default & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let resolve_machine ~tool ~nodes name =
  match Pcc.Config.of_name ~nodes name with
  | Ok config -> config
  | Error message ->
      Printf.eprintf "%s: %s\n" tool message;
      exit 2

(* Backend selection.  The converter rejects unknown names loudly (usage
   error, exit 124) instead of silently falling back to a default — a
   typo like --protocol mosi must never masquerade as an adaptive run. *)
let protocol_conv =
  let parse s =
    match Pcc.Protocol.of_string s with Ok p -> Ok p | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun ppf p -> Format.pp_print_string ppf (Pcc.Protocol.to_string p))

let protocol
    ?(doc =
      "Coherence backend: $(b,adaptive) (the paper's directory protocol), $(b,msi) or \
       $(b,mesi) (bus snooping).") () =
  Arg.(value & opt protocol_conv Pcc.Protocol.Adaptive & info [ "protocol" ] ~docv:"PROTO" ~doc)

(* [what] names the unit of concurrency in the docstring ("settings",
   "chaotic runs", ...). *)
let jobs ?(what = "runs") () =
  let doc =
    Printf.sprintf
      "Run up to $(docv) %s concurrently (default: PCC_JOBS or available cores; 1 = \
       sequential).  Results are bit-identical at every level."
      what
  in
  let positive =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  Arg.(
    value & opt positive (Pcc.Pool.default_jobs ()) & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let json ?(doc = "Write machine-readable results to $(docv).") () =
  Arg.(value & opt (some string) None & info [ "json" ] ~docv:"PATH" ~doc)

let metrics ?(doc_suffix = "") () =
  let doc =
    "Write a unified metrics snapshot to $(docv) on exit: $(b,*.json) gets the \
     JSON registry snapshot, any other extension the OpenMetrics text \
     exposition.  Deterministic: sorted by (name, labels) and byte-identical \
     at every --jobs level." ^ doc_suffix
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"PATH" ~doc)

(* Every tool funnels its exit through this: build the registry only when
   the user asked for the file, so default runs stay write-free. *)
let write_metrics path fill =
  match path with
  | None -> ()
  | Some path ->
      let registry = Pcc.Telemetry.Registry.create () in
      fill registry;
      Pcc.Telemetry.Registry.add_pool registry;
      Pcc.Telemetry.Registry.write registry ~path

(* Make [dir] (or find it) before any run: a path that cannot be one is
   a usage error, not a dump write failing in a pool worker. *)
let make_dir dir =
  match Sys.mkdir dir 0o755 with
  | () -> Ok ()
  | exception Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> Ok ()
  | exception Sys_error message ->
      Error (Printf.sprintf "cannot create the directory %s" message)

(* Every file a tool writes is checked before any run: one whose
   directory is missing, or that is a directory, is a usage error naming
   the path, not a Sys_error once all the work is done. *)
let unwritable path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir && Sys.is_directory dir) then
    Some (Printf.sprintf "cannot write %s: no directory %s" path dir)
  else if Sys.file_exists path && Sys.is_directory path then
    Some (Printf.sprintf "cannot write %s: it is a directory" path)
  else None

let output_error paths = List.find_map (fun path -> Option.bind path unwritable) paths

let check_outputs ~tool paths =
  Option.iter
    (fun message ->
      Printf.eprintf "%s: %s\n" tool message;
      exit 2)
    (output_error paths)

let max_events ?(default = 50_000_000) ?(doc = "Event budget per run.") () =
  Arg.(value & opt int default & info [ "max-events" ] ~docv:"N" ~doc)

let max_states ?(default = 3_000_000) ?(doc = "Model-checker exploration bound (states).")
    () =
  Arg.(value & opt int default & info [ "max-states" ] ~docv:"N" ~doc)

let verbose ~doc () = Arg.(value & flag & info [ "v"; "verbose" ] ~doc)
