(* Telemetry correctness: span lifecycle against the run's own
   statistics, bit-identity of instrumented runs, and wellformedness of
   the Perfetto trace and metrics JSONL artifacts (parsed back with the
   same codec that wrote them). *)

open Pcc_core
module Sim = Pcc_engine.Simulator
module Oracle = Pcc_oracle
module Telemetry = Pcc_telemetry
module Span = Telemetry.Span
module Recorder = Telemetry.Recorder
module Histogram = Pcc_stats.Histogram
module Jsonl = Pcc_stats.Jsonl

let desc =
  { Oracle.Trace.default with bench = "em3d"; nodes = 4; scale = 0.05; seed = 11 }

(* One shared instrumented run: every test below reads from it. *)
let instrumented =
  lazy
    (let config = Oracle.Trace.config_of_desc desc in
     let programs = Oracle.Trace.programs_of_desc desc in
     let sys = System.create ~config () in
     let recorder = Recorder.attach ~sample_every:50 sys in
     let commits = ref 0 in
     System.on_commit sys (fun _ -> incr commits);
     let result = System.run_programs sys programs in
     (result, recorder, !commits))

let test_span_lifecycle () =
  let result, recorder, commits = Lazy.force instrumented in
  Alcotest.(check bool) "run drained" true (result.System.outcome = Sim.Drained);
  Alcotest.(check int) "no open spans after drain" 0
    (Recorder.open_span_count recorder);
  Alcotest.(check int) "one closed span per committed op" commits
    (Recorder.span_count recorder);
  Alcotest.(check bool) "spans nonempty" true (commits > 0);
  List.iter
    (fun (s : Span.t) ->
      if not (Span.segments_contiguous s) then
        Alcotest.failf "span on node %d line %d: segments do not tile [%d,%d]"
          s.node (Types.Layout.index_of_line s.line) s.start s.finish;
      let phase_sum =
        List.fold_left (fun acc p -> acc + Span.phase_cycles s p) 0 Span.phases
      in
      if phase_sum <> Span.duration s then
        Alcotest.failf "span on node %d: phases sum to %d, duration %d" s.node
          phase_sum (Span.duration s))
    (Recorder.spans recorder)

let test_spans_match_stats () =
  let result, recorder, _ = Lazy.force instrumented in
  let stats = result.System.stats in
  let spans = Recorder.spans recorder in
  (* Per class, the spans are exactly the recorded misses: same count,
     same total latency. *)
  List.iter
    (fun miss ->
      let mine = List.filter (fun (s : Span.t) -> s.miss = Some miss) spans in
      let h = Run_stats.latency_hist stats miss in
      let name = Types.miss_class_name miss in
      Alcotest.(check int) (name ^ " count") (Histogram.count h)
        (List.length mine);
      Alcotest.(check int) (name ^ " latency sum") (Histogram.sum h)
        (List.fold_left (fun acc s -> acc + Span.duration s) 0 mine))
    Types.miss_classes;
  (* And therefore the spans' mean miss latency is the run's. *)
  let miss_spans = List.filter (fun (s : Span.t) -> s.miss <> None) spans in
  let n = List.length miss_spans in
  Alcotest.(check bool) "some misses" true (n > 0);
  let total = List.fold_left (fun acc s -> acc + Span.duration s) 0 miss_spans in
  Alcotest.(check (float 1e-9)) "avg miss latency"
    (Run_stats.avg_miss_latency stats)
    (float_of_int total /. float_of_int n)

let test_bit_identity () =
  let config = Oracle.Trace.config_of_desc desc in
  let programs = Oracle.Trace.programs_of_desc desc in
  let bare = System.run ~config ~programs () in
  let observed, _, _ = Lazy.force instrumented in
  let key (r : System.result) =
    let s = r.stats in
    ( r.cycles, r.network_messages, r.network_bytes,
      Run_stats.
        ( s.loads, s.stores, s.l2_hits, s.rac_hits, s.local_mem_misses,
          s.remote_2hop, s.remote_3hop, s.retries, s.delegations,
          s.updates_sent ) )
  in
  if key bare <> key observed then
    Alcotest.fail "recorder + sampler perturbed the run"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let parse_json what text =
  match Jsonl.of_string text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: parse error: %s" what e

let str_field name j =
  match Option.bind (Jsonl.member name j) Jsonl.get_string with
  | Some s -> s
  | None -> Alcotest.failf "event missing string field %S in %s" name
              (Jsonl.to_string j)

let require_int_fields names j =
  List.iter
    (fun name ->
      match Option.bind (Jsonl.member name j) Jsonl.get_int with
      | Some _ -> ()
      | None ->
          Alcotest.failf "event missing int field %S in %s" name
            (Jsonl.to_string j))
    names

let test_trace_json_wellformed () =
  let _, recorder, _ = Lazy.force instrumented in
  let spans = Recorder.spans recorder in
  let path = Filename.temp_file "pcc_trace" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Perfetto.write ~path spans;
      let j = parse_json "trace.json" (read_file path) in
      let events =
        match Option.bind (Jsonl.member "traceEvents" j) Jsonl.get_list with
        | Some l -> l
        | None -> Alcotest.fail "trace.json has no traceEvents array"
      in
      Alcotest.(check bool) "has events" true (events <> []);
      let begins = ref 0 and ends = ref 0 and slices = ref 0 in
      List.iter
        (fun ev ->
          match str_field "ph" ev with
          | "X" ->
              incr slices;
              ignore (str_field "name" ev);
              ignore (str_field "cat" ev);
              require_int_fields [ "ts"; "dur"; "pid"; "tid" ] ev
          | "b" ->
              incr begins;
              require_int_fields [ "ts"; "pid"; "tid" ] ev;
              ignore (str_field "id" ev)
          | "e" ->
              incr ends;
              ignore (str_field "id" ev)
          | "M" -> ignore (str_field "name" ev)
          | ph -> Alcotest.failf "unexpected event phase %S" ph)
        events;
      Alcotest.(check int) "one async begin per span" (List.length spans) !begins;
      Alcotest.(check int) "async begins and ends pair up" !begins !ends;
      let segments =
        List.fold_left (fun acc (s : Span.t) -> acc + List.length s.segments) 0
          spans
      in
      Alcotest.(check int) "one slice per segment" segments !slices)

let test_metrics_jsonl_wellformed () =
  let _, recorder, _ = Lazy.force instrumented in
  let samples = Recorder.samples recorder in
  Alcotest.(check bool) "sampler produced samples" true (samples <> []);
  let path = Filename.temp_file "pcc_metrics" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Telemetry.Metrics.write ~path
        ~links:(Recorder.retransmits_by_link recorder)
        samples;
      let lines =
        String.split_on_char '\n' (read_file path)
        |> List.filter (fun l -> l <> "")
      in
      Alcotest.(check bool) "nonempty" true (lines <> []);
      let last_time = ref (-1) in
      let sample_lines = ref 0 in
      List.iter
        (fun line ->
          let j = parse_json "metrics line" line in
          match str_field "kind" j with
          | "sample" ->
              incr sample_lines;
              require_int_fields
                [ "time"; "in_flight_txns"; "delegated_lines"; "rac_occupancy";
                  "event_queue_depth"; "retransmits" ]
                j;
              let t =
                Option.get (Option.bind (Jsonl.member "time" j) Jsonl.get_int)
              in
              Alcotest.(check bool) "times nondecreasing" true (t >= !last_time);
              last_time := t
          | "link_retransmits" -> ()
          | k -> Alcotest.failf "unexpected metrics record kind %S" k)
        lines;
      Alcotest.(check int) "one line per sample" (List.length samples)
        !sample_lines)

let suite =
  [
    Alcotest.test_case "span lifecycle" `Quick test_span_lifecycle;
    Alcotest.test_case "spans match run stats" `Quick test_spans_match_stats;
    Alcotest.test_case "bit-identical when instrumented" `Quick test_bit_identity;
    Alcotest.test_case "trace.json wellformed" `Quick test_trace_json_wellformed;
    Alcotest.test_case "metrics.jsonl wellformed" `Quick
      test_metrics_jsonl_wellformed;
  ]
