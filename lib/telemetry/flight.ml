module Jsonl = Pcc_stats.Jsonl
module Ring = Pcc_core.Flight_ring
module Message = Pcc_core.Message

type dump = Ring.dump

type event = Ring.event

let load path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Jsonl.of_string (String.trim text) with
      | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
      | Ok json -> Ring.dump_of_json json)

let pp_timeline ppf (d : dump) =
  let retained = List.length d.d_events in
  Format.fprintf ppf "flight dump: %s@," d.d_reason;
  Format.fprintf ppf "config: %s@," d.d_config;
  Format.fprintf ppf
    "dumped at cycle %d; %d nodes; last %d of %d recorded events (ring capacity %d)@,"
    d.d_time d.d_nodes retained d.d_recorded d.d_capacity;
  List.iter (fun e -> Format.fprintf ppf "%a@," Ring.pp_event e) d.d_events

(* Perfetto rendering: every record becomes a thread-scoped instant on
   the source node's track, so the post-mortem window lines up under a
   full pcc_trace capture (same pid/tid/timestamp conventions). *)
let perfetto_event (e : event) =
  let name =
    if e.e_kind = Ring.k_send || e.e_kind = Ring.k_recv then
      Printf.sprintf "%s %s" (Ring.kind_name e.e_kind)
        (Message.class_index_name e.e_detail)
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

let perfetto_json (d : dump) =
  let threads =
    List.init d.d_nodes (fun node ->
        Jsonl.Obj
          [
            ("name", Jsonl.String "thread_name");
            ("ph", Jsonl.String "M");
            ("pid", Jsonl.Int 0);
            ("tid", Jsonl.Int node);
            ( "args",
              Jsonl.Obj [ ("name", Jsonl.String (Printf.sprintf "node %d" node)) ]
            );
          ])
  in
  Jsonl.Obj
    [
      ("traceEvents", Jsonl.List (threads @ List.map perfetto_event d.d_events));
      ("displayTimeUnit", Jsonl.String "ns");
      ( "otherData",
        Jsonl.Obj
          [
            ("timeUnit", Jsonl.String "sim cycles as us");
            ("reason", Jsonl.String d.d_reason);
            ("config", Jsonl.String d.d_config);
          ] );
    ]

let write_perfetto ~path d =
  Pcc_stats.Atomic_file.write_string ~path (Jsonl.to_string (perfetto_json d) ^ "\n")
