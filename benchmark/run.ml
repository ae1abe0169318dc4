(* The repo benchmark: end-to-end metrics for five workloads, with
   per-layer numbers from a separate traced run.

     dune exec benchmark/run.exe                        # 5 timed rounds of all workloads
     dune exec benchmark/run.exe -- --workload kv-full --seconds 12
     dune exec benchmark/run.exe -- --trace 1 --spans spans.json --json out.json
     dune exec benchmark/run.exe -- --compare old.json new.json
     dune exec benchmark/run.exe -- --smoke             # tiny sizes, runs under dune runtest

   Load shape: every workload is a closed-loop batch with one client.
   This process only schedules; each run of a workload is a child
   process (this executable with --child) that builds the workload from
   the seed, runs it once cold and reports its numbers on one line.
   Children run one at a time, round-robin across the selected
   workloads, so host drift lands on every workload alike.  Round 0 is
   a discarded warm-up.  Rounds stop after --repeats, or when the next
   round would overrun --seconds (at least three timed rounds).

   With --trace 1 one more child per workload runs with observer hooks
   attached and replays the captured inputs through each layer in
   isolation (see Layers).  Per-layer numbers come only from that child;
   end-to-end numbers only from the untraced ones.

   When a single workload is selected, the last line of stdout is one
   JSON object: {"correct", "attempted", "failed", "metrics"}, with the
   gated end-to-end medians (--trace 0) or the per-layer values
   (--trace 1).  Exit status: 0 when every run passed its correctness
   gate, 1 otherwise, 2 on a usage error. *)

open Pcc
module Jsonl = Pcc_stats.Jsonl

(* {1 End-to-end metrics} *)

type better = Higher | Lower

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float;  (** share of the baseline median it may worsen by *)
  floor : float;  (** absolute slack on top of [bound] *)
  gated : bool;  (** listed in BENCHMARK.json's end_to_end *)
  best : bool;
      (** the result line reports the best timed round, not the median:
          host interference only ever adds time, so the fastest round is
          the steadiest estimate of the uncontended speed *)
}

(* Host-time bounds come from the run-to-run spread measured on a
   2-core container (README, "Spread").  The simulated metrics and the
   error rate repeat exactly, so any change at all is reported. *)
let e2e =
  let m ?(floor = 0.0) ?(gated = true) ?(best = false) name unit_ better bound =
    { name; unit_; better; bound; floor; gated; best }
  in
  [
    m "ops_per_s" "1/s" Higher 0.25 ~best:true;
    m "setup_s" "s" Lower 0.25 ~floor:0.02;
    m "minor_words_per_op" "words" Lower 0.05;
    m "peak_rss_mb" "MB" Lower 0.10;
    m "sim_cycles" "cycles" Lower 0.0 ~gated:false;
    m "sim_msgs_per_op" "msgs" Lower 0.0 ~gated:false;
    m "error_rate" "ratio" Lower 0.0 ~gated:false;
  ]

let better_name = function Higher -> "higher" | Lower -> "lower"

(* Values a child reports that must repeat exactly across the rounds of
   one workload (and match [recorded] for the seed). *)
let deterministic = [ "ops"; "sim_cycles"; "sim_msgs_per_op"; "minor_words_per_op" ]

(* Simulated results at the default seed.  A protocol change that moves
   them is legitimate; the benchmark prints a loud diff, and the change
   updates this table. *)
let recorded =
  let sim ops cycles msgs words =
    [ ("ops", ops); ("sim_cycles", cycles); ("sim_msgs_per_op", msgs); ("minor_words_per_op", words) ]
  and mcheck states words = [ ("ops", states); ("minor_words_per_op", words) ] in
  [
    ( (Suite.Full, 7),
      [
        ("em3d-full", sim 231840.0 8474838.0 1.6176544168391995 174.68912180814354);
        ("em3d-hardened", sim 231840.0 10184213.0 3.6252070393374742 565.3255132850242);
        ("kv-full", sim 999936.0 4979598.0 0.576036866359447 69.13424059139786);
        ("pubsub-msi", sim 199080.0 65053807.0 22.76223628691983 637.6786467751658);
        ("mcheck-adaptive", mcheck 47898.0 5120.378533550462);
      ] );
    ( (Suite.Smoke, 7),
      [
        ("em3d-full", sim 19320.0 748845.0 1.6459627329192548 206.29829192546583);
        ("em3d-hardened", sim 19320.0 887886.0 3.680848861283644 616.7256728778468);
        ("kv-full", sim 19712.0 313609.0 1.0416497564935066 169.38631290584416);
        ("pubsub-msi", sim 3780.0 1280689.0 24.073015873015873 693.0169312169312);
        ("mcheck-adaptive", mcheck 1003.0 4872.422731804586);
      ] );
  ]

(* {1 Summaries} *)

type summary = { median : float; q1 : float; q3 : float; n : int; values : float list }

(* Quartiles as Python's statistics.quantiles(values, n=4) computes
   them (the "exclusive" method); the middle one is the median. *)
let summarize values =
  let a = Array.of_list (List.sort compare values) in
  let n = Array.length a in
  let q i =
    if n = 1 then a.(0)
    else
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
  in
  { median = q 2; q1 = q 1; q3 = q 3; n; values }

let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* The value a metric contributes to the result line. *)
let point m s =
  match (m.best, m.better) with
  | false, _ -> s.median
  | true, Higher -> List.fold_left Float.max Float.neg_infinity s.values
  | true, Lower -> List.fold_left Float.min Float.infinity s.values

(* {1 Children} *)

let now = Suite.wall_ns

type child_report = { failures : string list; payload : Jsonl.t }

let metric_obj pairs = Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Float v)) pairs)

let untraced_child ~seed (w : Suite.t) =
  let per x ops = x /. float_of_int (max 1 ops) in
  let failures, ops, run_s, setup_s, minor, extra =
    match w.Suite.kind with
    | Suite.Sim sim ->
        let t0 = now () in
        let _, accesses, feed = Suite.materialize ~seed sim in
        let system = System.create ~config:(sim.Suite.config) () in
        let setup_s = Suite.seconds_since t0 in
        let minor0 = Gc.minor_words () in
        let t0 = now () in
        let r = System.run_stream system feed in
        let run_s = Suite.seconds_since t0 in
        let minor = Gc.minor_words () -. minor0 in
        let ops = Suite.commits r in
        ( Suite.sim_failures ~accesses r,
          ops,
          run_s,
          setup_s,
          minor,
          [
            ("sim_cycles", float_of_int r.System.cycles);
            ("sim_msgs_per_op", per (float_of_int r.System.network_messages) ops);
          ] )
    | Suite.Mcheck m ->
        let t0 = now () in
        let (module M) = Protocol_model.make m.Suite.params in
        let setup_s = Suite.seconds_since t0 in
        let minor0 = Gc.minor_words () in
        let t0 = now () in
        let outcome = Checker.run (module M) ~max_states:m.Suite.max_states ~jobs:1 () in
        let run_s = Suite.seconds_since t0 in
        let minor = Gc.minor_words () -. minor0 in
        let ops = (Suite.checker_stats outcome).Checker.states_explored in
        (Suite.mcheck_failures m outcome, ops, run_s, setup_s, minor, [])
  in
  let metrics =
    [
      ("ops_per_s", float_of_int ops /. run_s);
      ("setup_s", setup_s);
      ("minor_words_per_op", per minor ops);
      ("peak_rss_mb", Suite.peak_rss_mb ());
      ("ops", float_of_int ops);
      ("run_s", run_s);
    ]
    @ extra
  in
  { failures; payload = metric_obj metrics }

let report_to_json r =
  Jsonl.Obj
    [
      ("failures", Jsonl.List (List.map (fun f -> Jsonl.String f) r.failures));
      ("payload", r.payload);
    ]

let report_of_json json =
  match (Jsonl.member "failures" json, Jsonl.member "payload" json) with
  | Some (Jsonl.List fs), Some payload ->
      Some { failures = List.filter_map Jsonl.get_string fs; payload }
  | _ -> None

let child_main ~size ~seed ~traced name =
  match Suite.find size name with
  | None ->
      Printf.eprintf "unknown workload %s\n" name;
      exit 2
  | Some w ->
      let report =
        if traced then
          let failures, payload = Layers.traced_child ~seed w in
          { failures; payload }
        else untraced_child ~seed w
      in
      print_string (Jsonl.to_string (report_to_json report));
      print_newline ()

(* Run one child to completion and parse its report; a crash or an
   unreadable report is itself a failure. *)
let spawn ~size ~seed ~traced (w : Suite.t) =
  let args =
    [ Sys.executable_name; "--child"; w.Suite.name; "--seed"; string_of_int seed ]
    @ (match size with Suite.Smoke -> [ "--smoke" ] | Suite.Full -> [])
    @ if traced then [ "--traced" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    match List.rev (List.filter (( <> ) "") (String.split_on_char '\n' out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match (status, Result.to_option (Jsonl.of_string last)) with
  | Unix.WEXITED 0, Some json -> (
      match report_of_json json with
      | Some r -> r
      | None -> { failures = [ "unreadable child report" ]; payload = Jsonl.Obj [] })
  | Unix.WEXITED 0, None -> { failures = [ "child printed no report" ]; payload = Jsonl.Obj [] }
  | (Unix.WEXITED c | Unix.WSIGNALED c | Unix.WSTOPPED c), _ ->
      { failures = [ Printf.sprintf "child died (status %d)" c ]; payload = Jsonl.Obj [] }

let field name (r : child_report) = Option.bind (Jsonl.member name r.payload) Jsonl.get_float

(* {1 One benchmark invocation} *)

type record = {
  workload : Suite.t;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;
  mutable warmup : child_report option;
  mutable rounds : child_report list;  (** timed rounds, newest first *)
  mutable traced : child_report option;
}

let note_failures rec_ ~label (r : child_report) =
  rec_.attempted <- rec_.attempted + 1;
  if r.failures <> [] then begin
    rec_.failed <- rec_.failed + 1;
    List.iter
      (fun f ->
        let line = Printf.sprintf "%s (%s): %s" rec_.workload.Suite.name label f in
        Printf.eprintf "FAILED %s\n%!" line;
        rec_.failures <- line :: rec_.failures)
      r.failures
  end

let run_rounds ~size ~seed ~repeats ~seconds records =
  let start = now () in
  let run_round label keep =
    List.iter
      (fun rec_ ->
        let r = spawn ~size ~seed ~traced:false rec_.workload in
        note_failures rec_ ~label r;
        keep rec_ r)
      records
  in
  run_round "warm-up" (fun rec_ r -> rec_.warmup <- Some r);
  let rec loop round last_s =
    let elapsed = Suite.seconds_since start in
    let more =
      match seconds with
      | Some budget -> round <= 3 || elapsed +. last_s <= budget
      | None -> round <= repeats
    in
    if more then begin
      let t0 = now () in
      run_round (Printf.sprintf "round %d" round) (fun rec_ r ->
          rec_.rounds <- r :: rec_.rounds);
      loop (round + 1) (Suite.seconds_since t0)
    end
  in
  loop 1 0.0

let summary_of rec_ name =
  match List.filter_map (field name) rec_.rounds with
  | [] -> None
  | values -> Some (summarize values)

let error_rate rec_ = float_of_int rec_.failed /. float_of_int (max 1 rec_.attempted)

let e2e_summaries rec_ =
  List.filter_map
    (fun m ->
      if m.name = "error_rate" then Some (m, summarize [ error_rate rec_ ])
      else Option.map (fun s -> (m, s)) (summary_of rec_ m.name))
    e2e

(* Deterministic outputs must repeat across every round of a workload
   and match the recorded values for this seed.  A mismatch is loud but
   is not a failure: a legitimate protocol change moves these. *)
let determinism_check ~size ~seed rec_ =
  let name = rec_.workload.Suite.name in
  let runs = Option.to_list rec_.warmup @ List.rev rec_.rounds in
  let recorded =
    Option.bind (List.assoc_opt (size, seed) recorded) (List.assoc_opt name)
  in
  let diffs = ref [] in
  List.iter
    (fun key ->
      match List.filter_map (field key) runs with
      | [] -> ()
      | first :: _ as values ->
          if List.exists (fun v -> v <> first) values then
            diffs :=
              Printf.sprintf "  %s: differs across rounds: %s" key
                (String.concat ", " (List.map (Printf.sprintf "%.17g") values))
              :: !diffs
          else (
            match Option.bind recorded (List.assoc_opt key) with
            | Some r when r <> first ->
                diffs :=
                  Printf.sprintf "  %s: recorded %.17g, now %.17g" key r first :: !diffs
            | Some _ | None -> ()))
    deterministic;
  match (!diffs, recorded) with
  | [], Some _ -> Printf.printf "%s: simulated results match the recorded values\n" name
  | [], None ->
      Printf.printf "%s: simulated results repeat across rounds (no recorded values for seed %d)\n"
        name seed
  | diffs, _ ->
      Printf.eprintf "!!! %s: SIMULATED RESULTS CHANGED (seed %d, %s sizes)\n%s\n%!" name seed
        (Suite.size_name size)
        (String.concat "\n" (List.rev diffs))

let print_e2e rec_ =
  let w = rec_.workload in
  Printf.printf "\n%s  [%s]  %d timed rounds, %d/%d runs failed\n" w.Suite.name w.Suite.describe
    (List.length rec_.rounds) rec_.failed rec_.attempted;
  Printf.printf "  %-20s %-7s %14s %14s %14s %4s %7s %14s %6s %6s\n" "metric" "unit" "median"
    "q1" "q3" "n" "spread" "best" "better" "bound";
  List.iter
    (fun (m, s) ->
      Printf.printf "  %-20s %-7s %14.6g %14.6g %14.6g %4d %7.3f %14s %6s %6.2f\n" m.name m.unit_
        s.median s.q1 s.q3 s.n (spread s)
        (if m.best then Printf.sprintf "%.6g" (point m s) else "")
        (better_name m.better) m.bound)
    (e2e_summaries rec_)

(* {1 Per-layer results} *)

let layer_values rec_ =
  match rec_.traced with
  | None -> []
  | Some r ->
      let untraced_run_s = Option.map (fun s -> s.median) (summary_of rec_ "run_s") in
      List.map
        (fun (l : Layers.metric) ->
          let value =
            if l.Layers.name = "observe.trace_overhead" then
              match (field "run_s" r, untraced_run_s) with
              | Some traced, Some base when base > 0.0 -> (traced /. base) -. 1.0
              | _ -> 0.0
            else
              Option.value ~default:0.0
                (Option.bind (Jsonl.member "layers" r.payload) (fun o ->
                     Option.bind (Jsonl.member l.Layers.name o) Jsonl.get_float))
          in
          (l, value))
        Layers.metrics

let print_layers rec_ =
  match layer_values rec_ with
  | [] -> ()
  | values ->
      Printf.printf "\n%s per layer (traced run)\n" rec_.workload.Suite.name;
      Printf.printf "  %-34s %-8s %14s  %s\n" "metric" "unit" "value" "moves";
      List.iter
        (fun ((l : Layers.metric), v) ->
          Printf.printf "  %-34s %-8s %14.6g  %s\n" l.Layers.name l.Layers.unit_ v l.Layers.moves)
        values

(* {1 JSON document} *)

let summary_json s =
  [
    ("median", Jsonl.Float s.median);
    ("q1", Jsonl.Float s.q1);
    ("q3", Jsonl.Float s.q3);
    ("n", Jsonl.Int s.n);
    ("values", Jsonl.List (List.map (fun v -> Jsonl.Float v) s.values));
  ]

let document ~size ~seed records =
  let workload rec_ =
    let w = rec_.workload in
    Jsonl.Obj
      [
        ("name", Jsonl.String w.Suite.name);
        ("describe", Jsonl.String w.Suite.describe);
        ("why", Jsonl.String w.Suite.why);
        ("attempted", Jsonl.Int rec_.attempted);
        ("failed", Jsonl.Int rec_.failed);
        ("failures", Jsonl.List (List.rev_map (fun f -> Jsonl.String f) rec_.failures));
        ( "e2e",
          Jsonl.Obj
            (List.map
               (fun (m, s) ->
                 ( m.name,
                   Jsonl.Obj
                     ([
                        ("unit", Jsonl.String m.unit_);
                        ("better", Jsonl.String (better_name m.better));
                        ("bound", Jsonl.Float m.bound);
                        ("floor", Jsonl.Float m.floor);
                      ]
                     @ summary_json s) ))
               (e2e_summaries rec_)) );
        ( "layers",
          Jsonl.Obj
            (List.map
               (fun ((l : Layers.metric), v) ->
                 ( l.Layers.name,
                   Jsonl.Obj
                     [
                       ("unit", Jsonl.String l.Layers.unit_);
                       ("value", Jsonl.Float v);
                       ("moves", Jsonl.String l.Layers.moves);
                     ] ))
               (layer_values rec_)) );
      ]
  in
  Jsonl.Obj
    [
      ("kind", Jsonl.String "pcc-benchmark");
      ("version", Jsonl.Int 1);
      ("size", Jsonl.String (Suite.size_name size));
      ("seed", Jsonl.Int seed);
      ("workloads", Jsonl.List (List.map workload records));
    ]

let write_file path s =
  Atomic_file.write ~path (fun oc ->
      output_string oc s;
      output_char oc '\n')

let read_json path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (Jsonl.of_string (String.trim text))

(* {1 Comparing two documents} *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* A side whose quartile spread exceeds the bound leaves the row
   unresolved, unless every run of one side beats every run of the
   other. *)
let verdict ~better ~bound ~floor (old_ : summary) (new_ : summary) =
  let sign = match better with Lower -> 1.0 | Higher -> -1.0 in
  let worse_by = sign *. (new_.median -. old_.median) in
  let slack = (bound *. Float.abs old_.median) +. floor in
  let wide s = s.q3 -. s.q1 > (bound *. Float.abs s.median) +. floor in
  let lo s = List.fold_left Float.min Float.infinity s.values in
  let hi s = List.fold_left Float.max Float.neg_infinity s.values in
  let separated =
    match better with
    | Lower -> hi new_ < lo old_ || lo new_ > hi old_
    | Higher -> lo new_ > hi old_ || hi new_ < lo old_
  in
  if (wide old_ || wide new_) && not separated then Unresolved
  else if worse_by > slack then Worse
  else if worse_by < -.slack then Better
  else Same

let summary_of_json json =
  let num k = Option.bind (Jsonl.member k json) Jsonl.get_float in
  match (num "median", num "q1", num "q3", Option.bind (Jsonl.member "values" json) Jsonl.get_list) with
  | Some median, Some q1, Some q3, Some values ->
      let values = List.filter_map Jsonl.get_float values in
      Some { median; q1; q3; n = List.length values; values }
  | _ -> None

let workloads_of doc =
  Option.value ~default:[]
    (Option.bind (Jsonl.member "workloads" doc) Jsonl.get_list)
  |> List.filter_map (fun w ->
         Option.map (fun n -> (n, w)) (Option.bind (Jsonl.member "name" w) Jsonl.get_string))

(* Returns the rows' verdicts; prints one row per (workload, metric). *)
let compare_docs old_doc new_doc =
  Printf.printf "%-16s %-20s %12s %12s %12s   %12s %12s %12s  %s\n" "workload" "metric"
    "old median" "old q1" "old q3" "new median" "new q1" "new q3" "verdict";
  let news = workloads_of new_doc in
  List.concat_map
    (fun (name, old_w) ->
      match List.assoc_opt name news with
      | None ->
          Printf.printf "%-16s missing from the new document\n" name;
          [ Unresolved ]
      | Some new_w ->
          let metrics w =
            match Jsonl.member "e2e" w with Some (Jsonl.Obj fields) -> fields | _ -> []
          in
          let new_metrics = metrics new_w in
          List.filter_map
            (fun (metric, old_m) ->
              let str k = Option.bind (Jsonl.member k old_m) Jsonl.get_string in
              let num k = Option.value ~default:0.0 (Option.bind (Jsonl.member k old_m) Jsonl.get_float) in
              match
                ( summary_of_json old_m,
                  Option.bind (List.assoc_opt metric new_metrics) summary_of_json )
              with
              | Some o, Some n ->
                  let better = if str "better" = Some "higher" then Higher else Lower in
                  let v = verdict ~better ~bound:(num "bound") ~floor:(num "floor") o n in
                  Printf.printf "%-16s %-20s %12.6g %12.6g %12.6g   %12.6g %12.6g %12.6g  %s\n" name
                    metric o.median o.q1 o.q3 n.median n.q1 n.q3 (verdict_name v);
                  Some v
              | _ ->
                  Printf.printf "%-16s %-20s missing on one side\n" name metric;
                  Some Unresolved)
            (metrics old_w))
    (workloads_of old_doc)

let compare_files old_path new_path =
  match (read_json old_path, read_json new_path) with
  | Error e, _ | _, Error e ->
      Printf.eprintf "--compare: %s\n" e;
      exit 2
  | Ok o, Ok n ->
      let verdicts = compare_docs o n in
      if List.exists (fun v -> v = Worse || v = Unresolved) verdicts then exit 1

(* {1 The contract line} *)

let totals records =
  List.fold_left (fun (a, f) r -> (a + r.attempted, f + r.failed)) (0, 0) records

let summary_line ~trace records =
  let attempted, failed = totals records in
  let metrics =
    match records with
    | [ rec_ ] when trace ->
        List.map
          (fun ((l : Layers.metric), v) ->
            (l.Layers.name, Jsonl.Obj [ ("value", Jsonl.Float v); ("unit", Jsonl.String l.Layers.unit_) ]))
          (layer_values rec_)
    | [ rec_ ] ->
        List.filter_map
          (fun (m, s) ->
            if m.gated then
              Some (m.name, Jsonl.Obj [ ("value", Jsonl.Float (point m s)); ("unit", Jsonl.String m.unit_) ])
            else None)
          (e2e_summaries rec_)
    | _ -> []
  in
  Jsonl.to_string
    (Jsonl.Obj
       [
         ("correct", Jsonl.Bool (failed = 0));
         ("attempted", Jsonl.Int attempted);
         ("failed", Jsonl.Int failed);
         ("metrics", Jsonl.Obj metrics);
       ])

(* {1 Entry point} *)

type mode = Bench | Compare of string * string | Child of string

type options = {
  mode : mode;
  size : Suite.size;  (** [Smoke] without [--child] runs the smoke test *)
  seed : int;
  repeats : int;
  seconds : float option;
  only : string option;  (** one workload, or all *)
  json : string option;
  trace : bool;
  spans : string option;
  traced_child : bool;  (** with [--child]: run with the hooks and replays *)
}

let bench opts =
  let selected =
    match opts.only with
    | None -> Suite.all opts.size
    | Some name -> (
        match Suite.find opts.size name with
        | Some w -> [ w ]
        | None ->
            Printf.eprintf "--workload %s: unknown (one of %s)\n" name
              (String.concat ", " (List.map (fun w -> w.Suite.name) (Suite.all opts.size)));
            exit 2)
  in
  let records =
    List.map
      (fun workload ->
        { workload; attempted = 0; failed = 0; failures = []; warmup = None; rounds = []; traced = None })
      selected
  in
  let start = now () in
  Printf.printf "benchmark: %d workload(s), %s sizes, seed %d, %s\n%!" (List.length records)
    (Suite.size_name opts.size) opts.seed
    (match opts.seconds with
    | Some s -> Printf.sprintf "%.0f s budget" s
    | None -> Printf.sprintf "%d timed rounds" opts.repeats);
  run_rounds ~size:opts.size ~seed:opts.seed ~repeats:opts.repeats ~seconds:opts.seconds records;
  if opts.trace then
    List.iter
      (fun rec_ ->
        let r = spawn ~size:opts.size ~seed:opts.seed ~traced:true rec_.workload in
        note_failures rec_ ~label:"traced" r;
        rec_.traced <- Some r)
      records;
  List.iter print_e2e records;
  print_newline ();
  List.iter (determinism_check ~size:opts.size ~seed:opts.seed) records;
  List.iter print_layers records;
  (match opts.spans with
  | None -> ()
  | Some path ->
      let spans =
        List.concat_map
          (fun rec_ ->
            match Option.bind rec_.traced (fun r -> Jsonl.member "spans" r.payload) with
            | Some (Jsonl.List l) -> l
            | _ -> [])
          records
      in
      write_file path (Jsonl.to_string (Jsonl.Obj [ ("spans", Jsonl.List spans) ]));
      Printf.printf "\nwrote %d spans to %s\n" (List.length spans) path);
  (match opts.json with
  | None -> ()
  | Some path ->
      write_file path (Jsonl.to_string (document ~size:opts.size ~seed:opts.seed records));
      Printf.printf "wrote %s\n" path);
  let attempted, failed = totals records in
  Printf.printf "\n%d/%d runs failed (error_rate %.4f); wall time %.1f s\n" failed attempted
    (float_of_int failed /. float_of_int (max 1 attempted))
    (Suite.seconds_since start);
  records

(* {1 Smoke test}

   Tiny sizes, every workload, the traced path, a JSON write -> read ->
   compare round trip, and a check that BENCHMARK.json (read from the
   working directory) lists exactly the workloads and metrics defined
   here. *)

let benchmark_json_problems () =
  match read_json "BENCHMARK.json" with
  | Error e -> [ e ]
  | Ok doc ->
      let entries key fields =
        Option.value ~default:[] (Option.bind (Jsonl.member key doc) Jsonl.get_list)
        |> List.map (fun e ->
               List.map
                 (fun f ->
                   match Jsonl.member f e with
                   | Some (Jsonl.String s) -> s
                   | Some v -> Jsonl.to_string v
                   | None -> "?")
                 fields)
      in
      let expect key fields actual =
        if entries key fields <> actual then
          [ Printf.sprintf "BENCHMARK.json %s differs from the benchmark's own table" key ]
        else []
      in
      expect "workloads" [ "name"; "why" ]
        (List.map (fun w -> [ w.Suite.name; w.Suite.why ]) (Suite.all Suite.Full))
      @ expect "end_to_end" [ "name"; "unit"; "better"; "bound" ]
          (List.filter_map
             (fun m ->
               if m.gated then
                 Some [ m.name; m.unit_; better_name m.better; Jsonl.to_string (Jsonl.Float m.bound) ]
               else None)
             e2e)
      @ expect "per_layer" [ "name"; "unit"; "better" ]
          (List.map (fun (l : Layers.metric) -> [ l.Layers.name; l.Layers.unit_; l.Layers.better ]) Layers.metrics)

let smoke opts =
  let pid = Unix.getpid () in
  let json = Printf.sprintf ".benchmark-smoke-%d.json" pid
  and spans = Printf.sprintf ".benchmark-smoke-%d.spans.json" pid in
  let records =
    bench
      { opts with repeats = 2; seconds = None; only = None; json = Some json; trace = true; spans = Some spans }
  in
  let _, failed = totals records in
  let problems = ref (if failed > 0 then [ Printf.sprintf "%d runs failed" failed ] else []) in
  let problem p = problems := p :: !problems in
  (match read_json json with
  | Error e -> problem e
  | Ok doc ->
      print_newline ();
      let verdicts = compare_docs doc doc in
      if verdicts = [] || List.exists (fun v -> v = Worse || v = Better) verdicts then
        problem "comparing the document with itself found a difference");
  (match Result.map (Jsonl.member "spans") (read_json spans) with
  | Ok (Some (Jsonl.List (_ :: _))) -> ()
  | Ok _ -> problem "the span file holds no spans"
  | Error e -> problem e);
  List.iter
    (fun rec_ ->
      if List.length (layer_values rec_) <> List.length Layers.metrics then
        problem (rec_.workload.Suite.name ^ ": per-layer metrics missing"))
    records;
  List.iter problem (benchmark_json_problems ());
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ json; spans ];
  match List.rev !problems with
  | [] -> print_endline "smoke OK"
  | ps ->
      List.iter (Printf.eprintf "SMOKE FAILED: %s\n") ps;
      exit 1

let usage () =
  prerr_string
    "usage: run.exe [--seed S] [--repeats R | --seconds S] [--workload NAME] [--json PATH]\n\
    \               [--trace 0|1] [--spans PATH]\n\
    \       run.exe --compare OLD.json NEW.json\n\
    \       run.exe --smoke\n";
  exit 2

let () =
  let number parse valid v =
    match parse v with Some x when valid x -> x | Some _ | None -> usage ()
  in
  let rec parse o = function
    | [] -> o
    | "--seed" :: v :: rest -> parse { o with seed = number int_of_string_opt (fun _ -> true) v } rest
    | "--repeats" :: v :: rest ->
        parse { o with repeats = number int_of_string_opt (fun r -> r >= 1) v } rest
    | "--seconds" :: v :: rest ->
        parse { o with seconds = Some (number float_of_string_opt (fun s -> s > 0.0) v) } rest
    | "--workload" :: v :: rest -> parse { o with only = Some v } rest
    | "--json" :: v :: rest -> parse { o with json = Some v } rest
    | "--trace" :: ("0" | "1" as v) :: rest -> parse { o with trace = v = "1" } rest
    | "--spans" :: v :: rest -> parse { o with spans = Some v; trace = true } rest
    | "--compare" :: a :: b :: rest -> parse { o with mode = Compare (a, b) } rest
    | "--smoke" :: rest -> parse { o with size = Suite.Smoke } rest
    | "--child" :: v :: rest -> parse { o with mode = Child v } rest
    | "--traced" :: rest -> parse { o with traced_child = true } rest
    | arg :: _ ->
        Printf.eprintf "unexpected argument %s\n" arg;
        usage ()
  in
  let o =
    parse
      {
        mode = Bench;
        size = Suite.Full;
        seed = 7;
        repeats = 5;
        seconds = None;
        only = None;
        json = None;
        trace = false;
        spans = None;
        traced_child = false;
      }
      (List.tl (Array.to_list Sys.argv))
  in
  match (o.mode, o.size) with
  | Compare (a, b), _ -> compare_files a b
  | Child name, size -> child_main ~size ~seed:o.seed ~traced:o.traced_child name
  | Bench, Suite.Smoke -> smoke o
  | Bench, Suite.Full ->
      let records = bench o in
      print_endline (summary_line ~trace:o.trace records);
      if snd (totals records) > 0 then exit 1
