module Jsonl = Pcc_stats.Jsonl
module Ring = Pcc_core.Flight_ring

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
