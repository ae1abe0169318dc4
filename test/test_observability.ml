(* The observability layer's contracts:

   - Flight recorder: the int-packed ring survives an encode → dump →
     JSON → decode round-trip bit-exactly, including wrap-around, and a
     truncated run leaves a well-formed dump behind that the decoder can
     fully render.
   - One event stream: every subscriber callback the probe makes is, in
     order, exactly the ring's send/recv/issue/commit/retransmit record
     of the same event, on every backend and with retransmissions.
   - Metrics registry: the export bytes are a pure function of the run
     results, so a --jobs 4 sweep produces the same JSON and OpenMetrics
     files as --jobs 1. *)

module Q = QCheck
module Ring = Pcc_core.Flight_ring
module Registry = Pcc_telemetry.Registry
module Pool = Pcc_parallel.Pool
module Jsonl = Pcc_stats.Jsonl
module Apps = Pcc_workload.Apps
module Oracle = Pcc_oracle
open Pcc_core

(* ------------------------------------------------------------------ *)
(* Flight ring round-trip                                              *)
(* ------------------------------------------------------------------ *)

(* Fields stay inside their packed widths (detail 8 bits, src/dst 12
   bits); [line = -1] — "no line" — is generated too. *)
let gen_event =
  Q.Gen.(
    map2
      (fun (kind, detail, src, dst) (time, arg, line) ->
        {
          Ring.e_time = time;
          e_kind = kind;
          e_detail = detail;
          e_src = src;
          e_dst = dst;
          e_arg = arg;
          e_line = line;
        })
      (quad
         (int_bound (Ring.kind_count - 1))
         (int_bound 255) (int_bound 4095) (int_bound 4095))
      (triple (int_bound 1_000_000) (int_bound 1_000_000)
         (map (fun l -> l - 1) (int_bound 1_000))))

let record_all ring evs =
  List.iter
    (fun e ->
      Ring.record ring ~time:e.Ring.e_time ~kind:e.Ring.e_kind
        ~detail:e.Ring.e_detail ~src:e.Ring.e_src ~dst:e.Ring.e_dst
        ~line:e.Ring.e_line ~arg:e.Ring.e_arg)
    evs

let flight_roundtrip =
  Q.Test.make ~name:"flight ring: record -> dump -> decode round-trip" ~count:200
    (Q.make
       ~print:(fun (cap, evs) ->
         Printf.sprintf "capacity %d, %d events" cap (List.length evs))
       Q.Gen.(pair (int_range 1 40) (list_size (int_range 0 150) gen_event)))
    (fun (capacity, evs) ->
      let ring = Ring.create ~capacity () in
      record_all ring evs;
      let cap = Ring.capacity ring in
      let n = List.length evs in
      (* the retained window is the last [cap] events, oldest first *)
      let expected =
        if n <= cap then evs else List.filteri (fun i _ -> i >= n - cap) evs
      in
      if Ring.total ring <> n then
        Q.Test.fail_reportf "total: %d recorded, ring says %d" n (Ring.total ring);
      if Ring.events ring <> expected then
        Q.Test.fail_reportf "retained window disagrees (capacity %d, %d events)" cap n;
      let json =
        Ring.dump_to_json ring ~reason:"roundtrip" ~time:123 ~nodes:4 ~config:"cfg"
      in
      match Jsonl.of_string (Jsonl.to_string json) with
      | Error m -> Q.Test.fail_reportf "dump JSON does not reparse: %s" m
      | Ok reparsed -> (
          match Ring.dump_of_json reparsed with
          | Error m -> Q.Test.fail_reportf "dump does not decode: %s" m
          | Ok d ->
              d.Ring.d_reason = "roundtrip"
              && d.Ring.d_time = 123 && d.Ring.d_nodes = 4
              && d.Ring.d_config = "cfg" && d.Ring.d_recorded = n
              && d.Ring.d_capacity = cap && d.Ring.d_events = expected))

(* Wrap-around, deterministically: 3x capacity through a tiny ring. *)
let test_ring_wraparound () =
  let ring = Ring.create ~capacity:8 () in
  let cap = Ring.capacity ring in
  let total = 3 * cap in
  for i = 0 to total - 1 do
    Ring.record ring ~time:i ~kind:Ring.k_issue ~detail:(i land 1) ~src:(i land 3)
      ~dst:0 ~line:i ~arg:(2 * i)
  done;
  Alcotest.(check int) "total counts every record" total (Ring.total ring);
  let retained = Ring.events ring in
  Alcotest.(check int) "window is one capacity" cap (List.length retained);
  List.iteri
    (fun j e ->
      let i = total - cap + j in
      Alcotest.(check int) "time" i e.Ring.e_time;
      Alcotest.(check int) "line" i e.Ring.e_line;
      Alcotest.(check int) "arg" (2 * i) e.Ring.e_arg)
    retained

(* ------------------------------------------------------------------ *)
(* The sink and the ring cannot drift                                  *)
(* ------------------------------------------------------------------ *)

(* Runs one small seeded workload with a subscriber on every stream and
   returns (callbacks, ring records), each callback rebuilt as the event
   the ring would hold for it.  The run must fit in the ring, so the
   ring still holds every record it made. *)
let sink_and_ring config =
  let programs =
    Oracle.Trace.programs_of_desc
      { Oracle.Trace.default with nodes = 4; scale = 0.1; seed = 3 }
  in
  let sys = System.create ~config () in
  let seen = ref [] in
  let push ~time kind ~detail ~src ~dst ~line ~arg =
    let code = Ring.pack_code ~kind ~detail ~src ~dst in
    seen := Ring.unpack ~time ~code ~arg ~line :: !seen
  in
  let op = function Types.Load -> 0 | Types.Store -> 1 in
  let message kind ~time ~src ~dst msg =
    push ~time kind ~detail:(Message.class_index msg) ~src ~dst
      ~line:(Message.line_of msg) ~arg:0
  in
  System.on_message sys (message Ring.k_send);
  System.on_recv sys (message Ring.k_recv);
  System.on_issue sys (fun ~time ~node ~kind ~line ->
      push ~time Ring.k_issue ~detail:(op kind) ~src:node ~dst:node ~line ~arg:0);
  System.on_commit sys (fun (c : Probe.commit_event) ->
      push ~time:c.c_time Ring.k_commit ~detail:(op c.c_kind) ~src:c.c_node
        ~dst:c.c_node ~line:c.c_line ~arg:c.c_value);
  System.on_retransmit sys (fun ~time ~src ~dst ->
      push ~time Ring.k_retransmit ~detail:0 ~src ~dst ~line:(-1) ~arg:0);
  let result = System.run_programs sys programs in
  Alcotest.(check bool) "run drained" true (result.System.stall = None);
  let ring = System.flight sys in
  Alcotest.(check bool) "the ring holds the whole run" true
    (Ring.total ring <= Ring.capacity ring);
  ( List.rev !seen,
    List.filter
      (fun (e : Ring.event) -> e.e_kind <> Ring.k_note && e.e_kind <> Ring.k_crash)
      (Ring.events ring) )

let test_sink_matches_ring () =
  List.iter
    (fun (name, config) ->
      let callbacks, records = sink_and_ring config in
      let count kind =
        List.length (List.filter (fun (e : Ring.event) -> e.e_kind = kind) callbacks)
      in
      Alcotest.(check bool) (name ^ ": commits observed") true (count Ring.k_commit > 0);
      if Config.hardened config then
        Alcotest.(check bool) (name ^ ": retransmits observed") true
          (count Ring.k_retransmit > 0);
      Alcotest.(check bool)
        (name ^ ": callbacks are the ring's records, in order")
        true (callbacks = records))
    [
      ("full", Config.full ~nodes:4 ());
      ( "full+drops",
        Config.with_faults (Config.full ~nodes:4 ())
          (Pcc_interconnect.Fault.drops ~seed:7) );
      ("msi", Config.snoop ~nodes:4 Types.Msi ());
    ]

(* ------------------------------------------------------------------ *)
(* Registry export determinism across --jobs                           *)
(* ------------------------------------------------------------------ *)

let registry_exports ~jobs =
  let nodes = 6 in
  let configs = [ Config.base ~nodes (); Config.small_full ~nodes () ] in
  let tasks =
    List.concat_map
      (fun (app : Apps.app) ->
        let programs = Apps.programs app ~scale:0.1 ~nodes () in
        List.map
          (fun config ->
            ( app.Apps.name ^ "/" ^ Config.describe config,
              fun () -> System.run ~config ~programs () ))
          configs)
      [ Apps.lu; Apps.cg ]
  in
  let results = Pool.run_keyed ~jobs tasks in
  let registry = Registry.create () in
  List.iter (fun r -> Registry.add_result ~summaries:false registry r) results;
  (Jsonl.to_string (Registry.to_json registry), Registry.to_openmetrics registry)

let test_registry_jobs_determinism () =
  let json1, text1 = registry_exports ~jobs:1 in
  let json4, text4 = registry_exports ~jobs:4 in
  Alcotest.(check string) "JSON snapshot identical at jobs 1 vs 4" json1 json4;
  Alcotest.(check string) "OpenMetrics identical at jobs 1 vs 4" text1 text4;
  Alcotest.(check bool) "exposition terminated" true
    (Astring_contains.contains text1 "# EOF")

(* ------------------------------------------------------------------ *)
(* Forced stall leaves a decodable post-mortem                         *)
(* ------------------------------------------------------------------ *)

let test_stall_dump_wellformed () =
  let desc =
    { Oracle.Trace.default with scale = 0.1; seed = 4 }
  in
  let config = Oracle.Trace.config_of_desc desc in
  let programs = Oracle.Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  let path = Filename.temp_file "pcc-flight" ".json" in
  let result = System.run_programs ~max_events:300 sys programs in
  let recent =
    match result.System.stall with
    | None -> Alcotest.fail "a truncated run must carry a stall report"
    | Some stall -> stall.System.stall_recent
  in
  System.write_flight_dump sys ~path ~reason:"forced stall";
  (match Ring.read_dump path with
  | Error m -> Alcotest.failf "dump not decodable: %s" m
  | Ok dump ->
      let tail =
        List.filteri
          (fun i _ -> i >= List.length dump.Ring.d_events - List.length recent)
          dump.Ring.d_events
      in
      Alcotest.(check bool) "the stall report's window ends the dump" true (tail = recent);
      Alcotest.(check int) "node count" 6 dump.Ring.d_nodes;
      Alcotest.(check bool) "window non-empty" true (dump.Ring.d_events <> []);
      Alcotest.(check bool) "recorded covers the window" true
        (dump.Ring.d_recorded >= List.length dump.Ring.d_events);
      (* the decoder is total over everything the recorder wrote *)
      List.iter
        (fun e ->
          if String.length (Ring.describe e) = 0 then
            Alcotest.failf "event at t=%d renders empty" e.Ring.e_time)
        dump.Ring.d_events;
      let text = Format.asprintf "%a" Ring.pp_dump dump in
      Alcotest.(check bool) "timeline names the reason" true
        (Astring_contains.contains text dump.Ring.d_reason));
  Sys.remove path

let suite =
  [
    QCheck_alcotest.to_alcotest flight_roundtrip;
    Alcotest.test_case "flight ring wrap-around window" `Quick test_ring_wraparound;
    Alcotest.test_case "registry exports: jobs 1 vs 4 byte-identical" `Quick
      test_registry_jobs_determinism;
    Alcotest.test_case "forced stall writes a decodable flight dump" `Quick
      test_stall_dump_wellformed;
    Alcotest.test_case "probe subscribers see exactly the ring's events" `Quick
      test_sink_matches_ring;
  ]
