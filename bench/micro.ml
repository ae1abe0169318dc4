(* Hot-path micro-harness: events/sec and allocation per event on fixed
   seeded workloads.

   The simulator's per-event cost is what every sweep in this repo pays
   millions of times, so the speedup of a hot-path change must be a
   printed number, not a claim.  Each measured run reports:

     events/sec        wall-clock event throughput of Simulator.run
     minor w/event     Gc.minor_words allocated per executed event
     minor w/commit    Gc.minor_words per committed processor operation

   Workloads and seeds are pinned, so the simulated results (cycles,
   messages, statistics) are bit-identical across machines and across
   hot-path refactors; `--json PATH` writes them in the canonical
   Run_export encoding for CI byte-diffing against the committed golden
   artifact (bench/MICRO_golden.json).  Wall-clock numbers go to stdout
   only and are excluded from the artifact.

     dune exec bench/micro.exe
     dune exec bench/micro.exe -- --json /tmp/micro.json
     dune exec bench/micro.exe -- --repeat 3        # best-of-3 timing
     dune exec bench/micro.exe -- --protocol msi    # snooping hot path
     dune exec bench/micro.exe -- --workload kv:events=500000   # ad-hoc cell

   --protocol adaptive/msi/mesi reruns every cell on that coherence
   backend (unknown names are rejected, never silently defaulted — a
   fallback would masquerade as an adaptive run and void the golden and
   history comparisons).  --workload SPEC replaces the fixed cells with
   one registry workload under the base and fully adaptive machines, for
   ad-hoc hot-path timing of any workload (including the streaming
   generators).  The committed goldens assume the defaults: no
   --workload, adaptive backend.

   Every cell — app or generator — is fed through the streaming
   [System.run_stream] pull path, so minor w/event here is the number the
   allocation-budget test pins. *)

open Pcc
module Apps = Pcc.Workloads
module Jsonl = Pcc_stats.Jsonl

let nodes = 16

(* default kept small so the CI smoke run is quick; raise --scale for
   low-noise timing comparisons *)
let default_scale = 0.3

(* One fixed cell per protocol side we care about: the base 3-hop
   protocol (pure directory traffic) and the fully adaptive machine
   (delegation + speculative updates) on two producer-consumer-heavy
   benchmarks, plus the hardened configuration whose reliable-link and
   timeout machinery rides the same hot path. *)
let cells () =
  [
    ("em3d/base", Apps.em3d, Config.base ~nodes ());
    ("em3d/full", Apps.em3d, Config.small_full ~nodes ());
    ("em3d/hardened", Apps.em3d,
     Config.with_faults (Config.small_full ~nodes ()) (Fault.drops ~seed:7));
    ("mg/base", Apps.mg, Config.base ~nodes ());
    ("mg/full", Apps.mg, Config.small_full ~nodes ());
  ]

type measurement = {
  key : string;
  result : System.result;
  events : int;
  commits : int;
  seconds : float;
  minor_words : float;
}

let run_cell ~repeat (key, feed, config) =
  (* repeated runs re-simulate from scratch; keep the fastest wall time
     (least scheduler noise) — the simulated result is identical anyway *)
  let best = ref None in
  for _ = 1 to max 1 repeat do
    let sys = System.create ~config () in
    let sim = System.sim sys in
    let commits = ref 0 in
    System.on_commit sys (fun _ -> incr commits);
    Gc.full_major ();
    let minor_before = Gc.minor_words () in
    let wall_start = Unix.gettimeofday () in
    let result = System.run_stream sys (feed ()) in
    let seconds = Unix.gettimeofday () -. wall_start in
    let minor_words = Gc.minor_words () -. minor_before in
    let m =
      {
        key;
        result;
        events = Pcc.Simulator.events_executed sim;
        commits = !commits;
        seconds;
        minor_words;
      }
    in
    match !best with
    | Some prev when prev.seconds <= seconds -> ()
    | Some _ | None -> best := Some m
  done;
  Option.get !best

(* {2 Perf trajectory}

   [--history FILE] appends one schema-versioned JSONL record per
   invocation: throughput, allocation per event, delegation / retransmit
   rates, and per-miss-class latency percentiles.  [--check-history]
   instead compares the fresh measurement against the file's last record
   and fails on regression, writing nothing — so CI can gate on the
   committed trajectory without dirtying the tree.

   Tolerances: wall-clock throughput is the only noisy number (shared CI
   runners), so it gets a loose 0.5x floor; allocations and the simulated
   numbers are deterministic, so their bands are tight — they exist only
   to let an intentional, reviewed change ratchet the record forward.

   A record notes the best-of count its throughput was taken with, and
   the check takes its fresh measurement the same way: one run ranges
   over 2x on a busy host, so a single run against a best-of-3 record
   compares unlike numbers.  A record that predates the field is matched
   with an explicit --repeat. *)

type history = {
  h_repeat : int option;  (* best-of count behind the throughput *)
  h_events_per_sec : float;
  h_minor_words_per_event : float;
  h_delegation_rate : float;  (* delegations per committed operation *)
  h_retransmit_rate : float;  (* retransmits per executed event *)
  h_latency : (string * (float * float * float)) list;
      (* per miss class: p50, p95, p99 of issue-to-commit latency *)
}

let history_of_measurements ~repeat measurements =
  let total f = List.fold_left (fun acc m -> acc + f m) 0 measurements in
  let events = total (fun m -> m.events) in
  let commits = total (fun m -> m.commits) in
  let seconds = List.fold_left (fun acc m -> acc +. m.seconds) 0.0 measurements in
  let minor = List.fold_left (fun acc m -> acc +. m.minor_words) 0.0 measurements in
  let stat f = total (fun m -> f m.result.System.stats) in
  let delegations = stat (fun s -> s.Run_stats.delegations) in
  let retransmits = stat (fun s -> s.Run_stats.retransmits) in
  let latency =
    List.map
      (fun mc ->
        (* merge the per-cell histograms so the percentiles cover the
           whole harness, not just the last cell *)
        let merged = Histogram.create () in
        List.iter
          (fun m ->
            List.iter
              (fun (v, n) -> Histogram.observe_n merged v ~count:n)
              (Histogram.to_alist (Run_stats.latency_hist m.result.System.stats mc)))
          measurements;
        ( Types.miss_class_name mc,
          (Histogram.p50 merged, Histogram.p95 merged, Histogram.p99 merged) ))
      Types.miss_classes
  in
  {
    h_repeat = Some repeat;
    h_events_per_sec = float_of_int events /. seconds;
    h_minor_words_per_event = minor /. float_of_int events;
    h_delegation_rate = float_of_int delegations /. float_of_int (max 1 commits);
    h_retransmit_rate = float_of_int retransmits /. float_of_int (max 1 events);
    h_latency = latency;
  }

let history_to_json ~nodes ~scale h =
  Jsonl.Obj
    [
      ("kind", Jsonl.String "pcc-micro-history");
      ("version", Jsonl.Int 1);
      ("nodes", Jsonl.Int nodes);
      ("scale", Jsonl.Float scale);
      ("repeat", Jsonl.Int (Option.value h.h_repeat ~default:1));
      ("events_per_sec", Jsonl.Float h.h_events_per_sec);
      ("minor_words_per_event", Jsonl.Float h.h_minor_words_per_event);
      ("delegation_rate", Jsonl.Float h.h_delegation_rate);
      ("retransmit_rate", Jsonl.Float h.h_retransmit_rate);
      ( "latency",
        Jsonl.Obj
          (List.map
             (fun (cls, (p50, p95, p99)) ->
               ( cls,
                 Jsonl.Obj
                   [
                     ("p50", Jsonl.Float p50);
                     ("p95", Jsonl.Float p95);
                     ("p99", Jsonl.Float p99);
                   ] ))
             h.h_latency) );
    ]

let history_of_json json =
  let field name get =
    match Option.bind (Jsonl.member name json) get with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "history record: missing or ill-typed %S" name)
  in
  let ( let* ) = Result.bind in
  let* kind = field "kind" Jsonl.get_string in
  let* () =
    if kind = "pcc-micro-history" then Ok ()
    else Error (Printf.sprintf "history record: kind %S" kind)
  in
  let* version = field "version" Jsonl.get_int in
  let* () =
    if version = 1 then Ok ()
    else Error (Printf.sprintf "history record: unsupported version %d" version)
  in
  let* events_per_sec = field "events_per_sec" Jsonl.get_float in
  let* minor_words = field "minor_words_per_event" Jsonl.get_float in
  let* delegation_rate = field "delegation_rate" Jsonl.get_float in
  let* retransmit_rate = field "retransmit_rate" Jsonl.get_float in
  let* latency_obj =
    match Jsonl.member "latency" json with
    | Some (Jsonl.Obj fields) -> Ok fields
    | _ -> Error "history record: missing latency object"
  in
  let* latency =
    List.fold_left
      (fun acc (cls, v) ->
        let* acc = acc in
        let q name =
          match Option.bind (Jsonl.member name v) Jsonl.get_float with
          | Some f -> Ok f
          | None -> Error (Printf.sprintf "history record: latency.%s.%s" cls name)
        in
        let* p50 = q "p50" in
        let* p95 = q "p95" in
        let* p99 = q "p99" in
        Ok ((cls, (p50, p95, p99)) :: acc))
      (Ok []) latency_obj
  in
  Ok
    {
      h_repeat = Option.bind (Jsonl.member "repeat" json) Jsonl.get_int;
      h_events_per_sec = events_per_sec;
      h_minor_words_per_event = minor_words;
      h_delegation_rate = delegation_rate;
      h_retransmit_rate = retransmit_rate;
      h_latency = List.rev latency;
    }

let read_last_history path =
  match open_in path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let last = ref None in
      (try
         while true do
           let line = String.trim (input_line ic) in
           if line <> "" then last := Some line
         done
       with End_of_file -> close_in_noerr ic);
      (match !last with
      | None -> Error (Printf.sprintf "%s: no history records" path)
      | Some line ->
          Result.bind (Jsonl.of_string line) history_of_json)

let check_history ~last fresh =
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if fresh.h_events_per_sec < last.h_events_per_sec *. 0.5 then
    fail "throughput regressed: %.0f events/sec vs %.0f recorded (floor 0.5x)"
      fresh.h_events_per_sec last.h_events_per_sec;
  if fresh.h_minor_words_per_event > (last.h_minor_words_per_event *. 1.10) +. 0.5 then
    fail "allocation regressed: %.2f minor words/event vs %.2f recorded (band 1.10x)"
      fresh.h_minor_words_per_event last.h_minor_words_per_event;
  if fresh.h_delegation_rate < last.h_delegation_rate *. 0.5 then
    fail "delegation rate collapsed: %.4f vs %.4f recorded (floor 0.5x)"
      fresh.h_delegation_rate last.h_delegation_rate;
  if fresh.h_retransmit_rate > (last.h_retransmit_rate *. 2.0) +. 0.001 then
    fail "retransmit rate exploded: %.5f vs %.5f recorded (band 2x)"
      fresh.h_retransmit_rate last.h_retransmit_rate;
  List.iter
    (fun (cls, (_, _, p99)) ->
      match List.assoc_opt cls last.h_latency with
      | None -> ()
      | Some (_, _, last_p99) ->
          if p99 > (last_p99 *. 1.25) +. 1.0 then
            fail "%s p99 latency regressed: %.0f vs %.0f recorded (band 1.25x)" cls
              p99 last_p99)
    fresh.h_latency;
  List.rev !problems

let () =
  let rec split_opt flag acc = function
    | f :: value :: rest when f = flag -> (Some value, List.rev_append acc rest)
    | [ f ] when f = flag ->
        Printf.eprintf "%s requires a value\n" flag;
        exit 2
    | x :: rest -> split_opt flag (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let split_flag flag args =
    (List.mem flag args, List.filter (fun a -> a <> flag) args)
  in
  let args = List.tl (Array.to_list Sys.argv) in
  let json_path, args = split_opt "--json" [] args in
  let history_path, args = split_opt "--history" [] args in
  let check_history_flag, args = split_flag "--check-history" args in
  let repeat_arg, args = split_opt "--repeat" [] args in
  let scale_arg, args = split_opt "--scale" [] args in
  let protocol_arg, args = split_opt "--protocol" [] args in
  let workload_arg, args = split_opt "--workload" [] args in
  if check_history_flag && history_path = None then begin
    Printf.eprintf "--check-history requires --history FILE\n";
    exit 2
  end;
  (match args with
  | [] -> ()
  | junk ->
      Printf.eprintf "unknown arguments: %s\n" (String.concat " " junk);
      exit 2);
  let repeat =
    match repeat_arg with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Some n
        | Some _ | None ->
            Printf.eprintf "--repeat %s: expected a positive integer\n" s;
            exit 2)
  in
  (* the record to check against is read before measuring, so the fresh
     throughput is taken the way the record's was *)
  let last =
    match history_path with
    | Some path when check_history_flag -> (
        match read_last_history path with
        | Ok last -> Some (path, last)
        | Error message ->
            Printf.eprintf "--check-history: %s\n" message;
            exit 2)
    | Some _ | None -> None
  in
  let repeat =
    match (repeat, Option.bind last (fun (_, l) -> l.h_repeat)) with
    | Some n, Some recorded when n <> recorded ->
        Printf.eprintf
          "--repeat %d: the last history record is a best of %d; the check compares \
           throughput taken the same way\n"
          n recorded;
        exit 2
    | Some n, _ | None, Some n -> n
    | None, None -> 1
  in
  let scale =
    match scale_arg with
    | None -> default_scale
    | Some s -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> f
        | Some _ | None ->
            Printf.eprintf "--scale %s: expected a positive number\n" s;
            exit 2)
  in
  let protocol =
    match protocol_arg with
    | None -> Types.Adaptive
    | Some name -> (
        match Protocol.of_string name with
        | Ok p -> p
        | Error message ->
            Printf.eprintf "--protocol: %s\n" message;
            exit 2)
  in
  let cells =
    match workload_arg with
    | None ->
        (* the fixed app cells; programs materialize once per cell, the
           feed rewinds per repeat *)
        List.map
          (fun (key, app, config) ->
            let programs = Apps.programs app ~scale ~nodes () in
            (key, (fun () -> Op_stream.of_programs programs), config))
          (cells ())
    | Some spec -> (
        (* ad-hoc override: one registry workload, streamed, under the
           base and fully adaptive machines *)
        match Workload.of_spec ~nodes ~scale ~seed:7 spec with
        | Error message ->
            Printf.eprintf "--workload: %s\n" message;
            exit 2
        | Ok w ->
            let wnodes = Workload.nodes w in
            let feed () = Workload.stream w in
            [
              (Workload.name w ^ "/base", feed, Config.base ~nodes:wnodes ());
              (Workload.name w ^ "/full", feed, Config.small_full ~nodes:wnodes ());
            ])
  in
  let cells =
    match protocol with
    | Types.Adaptive -> cells
    | p ->
        List.map
          (fun (key, feed, config) -> (key, feed, { config with Config.protocol = p }))
          cells
  in
  Printf.printf "hot-path micro-harness: %d nodes, scale %.2f, best of %d run(s)%s\n%!"
    nodes scale repeat
    (match protocol with
    | Types.Adaptive -> ""
    | p -> Printf.sprintf ", %s backend" (Protocol.to_string p));
  let measurements = List.map (run_cell ~repeat) cells in
  Printf.printf "%-12s %12s %12s %14s %14s %14s\n" "workload" "events" "commits"
    "events/sec" "minor w/event" "minor w/commit";
  let total_events = ref 0 and total_seconds = ref 0.0 and total_minor = ref 0.0 in
  List.iter
    (fun m ->
      total_events := !total_events + m.events;
      total_seconds := !total_seconds +. m.seconds;
      total_minor := !total_minor +. m.minor_words;
      Printf.printf "%-12s %12d %12d %14.0f %14.1f %14.1f\n" m.key m.events m.commits
        (float_of_int m.events /. m.seconds)
        (m.minor_words /. float_of_int m.events)
        (m.minor_words /. float_of_int (max 1 m.commits)))
    measurements;
  Printf.printf "%-12s %12d %12s %14.0f %14.1f\n" "TOTAL" !total_events ""
    (float_of_int !total_events /. !total_seconds)
    (!total_minor /. float_of_int !total_events);
  (match json_path with
  | None -> ()
  | Some path ->
      let runs = List.map (fun m -> (m.key, m.result)) measurements in
      let doc = Run_export.document ~nodes ~scale runs in
      Atomic_file.write ~path (fun oc ->
          output_string oc (Jsonl.to_string doc);
          output_char oc '\n');
      Printf.printf "wrote %s (%d runs)\n" path (List.length runs));
  match (history_path, last) with
  | None, _ -> ()
  | Some _, Some (path, last) -> (
      let fresh = history_of_measurements ~repeat measurements in
      match check_history ~last fresh with
      | [] -> Printf.printf "history check OK against %s\n" path
      | problems ->
          Printf.printf "HISTORY REGRESSION vs %s:\n" path;
          List.iter (fun p -> Printf.printf "  %s\n" p) problems;
          exit 3)
  | Some path, None ->
      let record = history_of_measurements ~repeat measurements in
      let line = Jsonl.to_string (history_to_json ~nodes ~scale record) in
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      output_string oc line;
      output_char oc '\n';
      close_out oc;
      Printf.printf "appended history record to %s\n" path
