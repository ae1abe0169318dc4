module Jsonl = Pcc_stats.Jsonl
module Ring = Pcc_core.Flight_ring

let hex_line line = Printf.sprintf "0x%x" line

(* One track per node: pid 0, tid = node id. *)
let thread_name node =
  Jsonl.Obj
    [
      ("name", Jsonl.String "thread_name");
      ("ph", Jsonl.String "M");
      ("pid", Jsonl.Int 0);
      ("tid", Jsonl.Int node);
      ("args", Jsonl.Obj [ ("name", Jsonl.String (Printf.sprintf "node %d" node)) ]);
    ]

(* The object every trace file shares; timestamps are sim cycles
   presented as trace microseconds. *)
let envelope ~other events =
  Jsonl.Obj
    [
      ("traceEvents", Jsonl.List events);
      ("displayTimeUnit", Jsonl.String "ns");
      ("otherData", Jsonl.Obj (("timeUnit", Jsonl.String "sim cycles as us") :: other));
    ]

let write_json ~path json =
  Pcc_stats.Atomic_file.write ~path (fun oc ->
      output_string oc (Jsonl.to_string json);
      output_char oc '\n')

(* Complete ("X") slice for one phase segment, on the requester node's
   track.  ts/dur are sim cycles presented as trace microseconds. *)
let event_of_segment (span : Span.t) (seg : Span.segment) =
  Jsonl.Obj
    [
      ("name", Jsonl.String (Span.phase_name seg.phase));
      ("cat", Jsonl.String (Span.class_label span));
      ("ph", Jsonl.String "X");
      ("ts", Jsonl.Int seg.seg_start);
      ("dur", Jsonl.Int (seg.seg_end - seg.seg_start));
      ("pid", Jsonl.Int 0);
      ("tid", Jsonl.Int span.node);
      ( "args",
        Jsonl.Obj
          [
            ("line", Jsonl.String (hex_line span.line));
            ("kind", Jsonl.String (Span.kind_name span.kind));
          ] );
    ]

(* Async begin/end pair grouping the whole transaction under its line
   address: all traffic on one line lines up on one async track. *)
let async_events (span : Span.t) =
  let base ph ts =
    Jsonl.Obj
      [
        ( "name",
          Jsonl.String (Printf.sprintf "%s %s" (Span.kind_name span.kind)
                          (hex_line span.line)) );
        ("cat", Jsonl.String "line");
        ("id", Jsonl.String (hex_line span.line));
        ("ph", Jsonl.String ph);
        ("ts", Jsonl.Int ts);
        ("pid", Jsonl.Int 0);
        ("tid", Jsonl.Int span.node);
        ( "args",
          Jsonl.Obj
            [
              ("class", Jsonl.String (Span.class_label span));
              ("retransmits", Jsonl.Int span.retransmits);
            ] );
      ]
  in
  [ base "b" span.start; base "e" span.finish ]

(* Fail-stop outages render as "X" slices on the victim's own track —
   the gap they carve out of the node's span stream is exactly the
   outage — plus an instant marker where the machine-wide recovery
   sweep ran. *)
let recovery_events (r : Recorder.recovery) =
  let outage_end =
    match (r.r_restarted_at, r.r_detected_at) with
    | Some t, _ | None, Some t -> t
    | None, None -> r.r_crash_at
  in
  let outage =
    Jsonl.Obj
      [
        ("name", Jsonl.String "crash-outage");
        ("cat", Jsonl.String "crash");
        ("ph", Jsonl.String "X");
        ("ts", Jsonl.Int r.r_crash_at);
        ("dur", Jsonl.Int (outage_end - r.r_crash_at));
        ("pid", Jsonl.Int 0);
        ("tid", Jsonl.Int r.r_victim);
        ( "args",
          Jsonl.Obj
            [
              ( "detected_at",
                match r.r_detected_at with
                | Some t -> Jsonl.Int t
                | None -> Jsonl.String "never" );
              ( "restarted_at",
                match r.r_restarted_at with
                | Some t -> Jsonl.Int t
                | None -> Jsonl.String "never" );
              ("aborted_txn", Jsonl.Bool r.r_aborted_txn);
            ] );
      ]
  in
  let sweep =
    match r.r_detected_at with
    | None -> []
    | Some t ->
        [
          Jsonl.Obj
            [
              ("name", Jsonl.String "recovery-sweep");
              ("cat", Jsonl.String "crash");
              ("ph", Jsonl.String "i");
              ("s", Jsonl.String "p");
              ("ts", Jsonl.Int t);
              ("pid", Jsonl.Int 0);
              ("tid", Jsonl.Int r.r_victim);
            ];
        ]
  in
  outage :: sweep

let metadata_events ~recoveries spans =
  let nodes =
    List.sort_uniq compare
      (List.map (fun (s : Span.t) -> s.node) spans
      @ List.map (fun (r : Recorder.recovery) -> r.r_victim) recoveries)
  in
  Jsonl.Obj
    [
      ("name", Jsonl.String "process_name");
      ("ph", Jsonl.String "M");
      ("pid", Jsonl.Int 0);
      ("args", Jsonl.Obj [ ("name", Jsonl.String "pcc machine") ]);
    ]
  :: List.map thread_name nodes

let json_of_spans ?(recoveries = []) spans =
  envelope ~other:[]
    (metadata_events ~recoveries spans
    @ List.concat_map
        (fun (span : Span.t) ->
          List.map (event_of_segment span) span.segments @ async_events span)
        spans
    @ List.concat_map recovery_events recoveries)

let write ?recoveries ~path spans = write_json ~path (json_of_spans ?recoveries spans)

(* Every flight record becomes a thread-scoped instant on the source
   node's track, so a post-mortem window lines up under a full capture. *)
let flight_event (e : Ring.event) =
  let name =
    if e.e_kind = Ring.k_send || e.e_kind = Ring.k_recv then
      Printf.sprintf "%s %s" (Ring.kind_name e.e_kind)
        (Pcc_core.Message.class_index_name e.e_detail)
    else if e.e_kind = Ring.k_note then Ring.note_name e.e_detail
    else if e.e_kind = Ring.k_crash then
      Printf.sprintf "crash %s" (Ring.crash_phase_name e.e_detail)
    else Ring.kind_name e.e_kind
  in
  Jsonl.Obj
    [
      ("name", Jsonl.String name);
      ("cat", Jsonl.String (Ring.kind_name e.e_kind));
      ("ph", Jsonl.String "i");
      ("s", Jsonl.String "t");
      ("ts", Jsonl.Int e.e_time);
      ("pid", Jsonl.Int 0);
      ("tid", Jsonl.Int e.e_src);
      ( "args",
        Jsonl.Obj
          [
            ("dst", Jsonl.Int e.e_dst);
            ("line", Jsonl.String (Ring.line_name e.e_line));
            ("arg", Jsonl.Int e.e_arg);
            ("detail", Jsonl.String (Ring.describe e));
          ] );
    ]

let json_of_flight (d : Ring.dump) =
  envelope
    ~other:[ ("reason", Jsonl.String d.d_reason); ("config", Jsonl.String d.d_config) ]
    (List.init d.d_nodes thread_name @ List.map flight_event d.d_events)

let write_flight ~path d = write_json ~path (json_of_flight d)
