module Jsonl = Pcc_stats.Jsonl

(* Packed event layout (second word):
     bits 32..35  kind
     bits 24..31  detail (message class / op kind / crash phase / note)
     bits 12..23  src node
     bits  0..11  dst node
   Times, free-form args and line numbers (which carry the home node in
   their upper bits and do not fit 24 bits) get their own arrays. *)

let k_send = 0
let k_recv = 1
let k_retransmit = 2
let k_issue = 3
let k_commit = 4
let k_crash = 5
let k_note = 6
let kind_count = 7

let kind_name = function
  | 0 -> "send"
  | 1 -> "recv"
  | 2 -> "retransmit"
  | 3 -> "issue"
  | 4 -> "commit"
  | 5 -> "crash"
  | 6 -> "note"
  | _ -> "?"

let n_timeout = 0
let n_fallback = 1
let n_delegate = 2
let n_delegation_refused = 3
let n_undelegate = 4
let n_revoke = 5
let n_predictor = 6
let n_dir_state = 7

let note_name = function
  | 0 -> "timeout"
  | 1 -> "fallback"
  | 2 -> "delegate"
  | 3 -> "delegation-refused"
  | 4 -> "undelegate"
  | 5 -> "revoke"
  | 6 -> "predictor"
  | 7 -> "dir-state"
  | _ -> "?"

let dstate_name = function
  | 0 -> "Unowned"
  | 1 -> "Shared"
  | 2 -> "Excl"
  | 3 -> "BusyShared"
  | 4 -> "BusyExcl"
  | 5 -> "Dele"
  | _ -> "?"

type t = {
  mask : int;
  times : int array;
  codes : int array;
  args : int array;
  lines : int array;
  mutable head : int;  (* events ever recorded; head land mask = next slot *)
}

let rec pow2_at_least n acc = if acc >= n then acc else pow2_at_least n (acc * 2)

let create ?(capacity = 4096) () =
  let cap = pow2_at_least (max 2 capacity) 2 in
  {
    mask = cap - 1;
    times = Array.make cap 0;
    codes = Array.make cap 0;
    args = Array.make cap 0;
    lines = Array.make cap 0;
    head = 0;
  }

let pack_code ~kind ~detail ~src ~dst =
  (kind lsl 32) lor ((detail land 0xff) lsl 24)
  lor ((src land 0xfff) lsl 12)
  lor (dst land 0xfff)

let record t ~time ~kind ~detail ~src ~dst ~line ~arg =
  let i = t.head land t.mask in
  t.times.(i) <- time;
  t.codes.(i) <- pack_code ~kind ~detail ~src ~dst;
  t.args.(i) <- arg;
  t.lines.(i) <- line;
  t.head <- t.head + 1

let total t = t.head

let capacity t = t.mask + 1

type event = {
  e_time : int;
  e_kind : int;
  e_detail : int;
  e_src : int;
  e_dst : int;
  e_arg : int;
  e_line : int;
}

let unpack ~time ~code ~arg ~line =
  {
    e_time = time;
    e_kind = (code lsr 32) land 0xf;
    e_detail = (code lsr 24) land 0xff;
    e_src = (code lsr 12) land 0xfff;
    e_dst = code land 0xfff;
    e_arg = arg;
    e_line = line;
  }

(* The last [n] retained events, oldest first: walk back from the newest
   so wrap-around needs no special case. *)
let recent t n =
  let acc = ref [] in
  for k = t.head - 1 downto t.head - min n (min t.head (t.mask + 1)) do
    let i = k land t.mask in
    acc :=
      unpack ~time:t.times.(i) ~code:t.codes.(i) ~arg:t.args.(i) ~line:t.lines.(i) :: !acc
  done;
  !acc

let events t = recent t (t.mask + 1)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let crash_phase_name = function
  | 0 -> "down"
  | 1 -> "detected"
  | 2 -> "restarted"
  | d -> Printf.sprintf "phase-%d" d

(* Lines render as index@home (the operand form the rest of the tooling
   uses); -1 marks an event with no line. *)
let line_name line =
  if line < 0 then "-"
  else
    Printf.sprintf "%d@%d"
      (Types.Layout.index_of_line line)
      (Types.Layout.home_of_line line)

let op_name = function 0 -> "load" | 1 -> "store" | d -> Printf.sprintf "op-%d" d

let describe e =
  let line = line_name e.e_line in
  if e.e_kind = k_send || e.e_kind = k_recv then
    Printf.sprintf "%s %s %d->%d line %s" (kind_name e.e_kind)
      (Message.class_index_name e.e_detail)
      e.e_src e.e_dst line
  else if e.e_kind = k_retransmit then Printf.sprintf "retransmit %d->%d" e.e_src e.e_dst
  else if e.e_kind = k_issue then
    Printf.sprintf "issue %s node %d line %s" (op_name e.e_detail) e.e_src line
  else if e.e_kind = k_commit then
    Printf.sprintf "commit %s node %d line %s = %d" (op_name e.e_detail) e.e_src line
      e.e_arg
  else if e.e_kind = k_crash then
    Printf.sprintf "crash node %d %s" e.e_src (crash_phase_name e.e_detail)
  else if e.e_kind = k_note then begin
    let base = Printf.sprintf "%s node %d line %s" (note_name e.e_detail) e.e_src line in
    if e.e_detail = n_dir_state then Printf.sprintf "%s -> %s" base (dstate_name e.e_arg)
    else if e.e_detail = n_timeout then Printf.sprintf "%s (strike %d)" base e.e_arg
    else if e.e_detail = n_delegate then
      Printf.sprintf "%s (%d consumer%s this epoch)" base e.e_arg
        (if e.e_arg = 1 then "" else "s")
    else if e.e_detail = n_predictor then
      Printf.sprintf "%s -> %s" base
        (if e.e_arg = 1 then "producer-consumer" else "other")
    else base
  end
  else
    Printf.sprintf "%s(%d) node %d line %s" (kind_name e.e_kind) e.e_detail e.e_src line

let pp_event ppf e = Format.fprintf ppf "[%8d] %s" e.e_time (describe e)

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)
(* ------------------------------------------------------------------ *)

let event_to_json e =
  Jsonl.List
    [
      Jsonl.Int e.e_time;
      Jsonl.Int (pack_code ~kind:e.e_kind ~detail:e.e_detail ~src:e.e_src ~dst:e.e_dst);
      Jsonl.Int e.e_arg;
      Jsonl.Int e.e_line;
    ]

let event_of_json = function
  | Jsonl.List [ Jsonl.Int time; Jsonl.Int code; Jsonl.Int arg; Jsonl.Int line ] ->
      Some (unpack ~time ~code ~arg ~line)
  | _ -> None

type dump = {
  d_reason : string;
  d_time : int;
  d_nodes : int;
  d_config : string;
  d_recorded : int;
  d_capacity : int;
  d_events : event list;
  d_run : Jsonl.t option;
  d_failures : string list;
}

(* [run] and [failures] are written only when given, so a machine's own
   dumps ([pcc_sim --flight-dump]) keep their fields. *)
let dump_to_json ?run ?(failures = []) t ~reason ~time ~nodes ~config =
  Jsonl.Obj
    ([
       ("kind", Jsonl.String "pcc-flight");
       ("version", Jsonl.Int 1);
       ("reason", Jsonl.String reason);
       ("time", Jsonl.Int time);
       ("nodes", Jsonl.Int nodes);
       ("config", Jsonl.String config);
       ("recorded", Jsonl.Int t.head);
       ("capacity", Jsonl.Int (t.mask + 1));
       ("events", Jsonl.List (List.map event_to_json (events t)));
     ]
    @ Option.to_list (Option.map (fun desc -> ("run", desc)) run)
    @ if failures = [] then []
      else [ ("failures", Jsonl.List (List.map (fun m -> Jsonl.String m) failures)) ])

let dump_of_json json =
  let ( let* ) r f = Result.bind r f in
  let field name get =
    match Option.bind (Jsonl.member name json) get with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "flight dump: missing or ill-typed %S" name)
  in
  let* kind = field "kind" Jsonl.get_string in
  let* () =
    if kind = "pcc-flight" then Ok ()
    else Error (Printf.sprintf "flight dump: kind %S is not pcc-flight" kind)
  in
  let* version = field "version" Jsonl.get_int in
  let* () =
    if version = 1 then Ok ()
    else Error (Printf.sprintf "flight dump: unsupported version %d" version)
  in
  let* reason = field "reason" Jsonl.get_string in
  let* time = field "time" Jsonl.get_int in
  let* nodes = field "nodes" Jsonl.get_int in
  let* config = field "config" Jsonl.get_string in
  let* recorded = field "recorded" Jsonl.get_int in
  let* capacity = field "capacity" Jsonl.get_int in
  let* events = field "events" Jsonl.get_list in
  let decoded = List.filter_map event_of_json events in
  let* () =
    if List.compare_lengths decoded events = 0 then Ok ()
    else Error "flight dump: event is not a [time,code,arg,line] int quad"
  in
  let failures =
    Option.value ~default:[] (Option.bind (Jsonl.member "failures" json) Jsonl.get_list)
  in
  Ok
    {
      d_reason = reason;
      d_time = time;
      d_nodes = nodes;
      d_config = config;
      d_recorded = recorded;
      d_capacity = capacity;
      d_events = decoded;
      d_run = Jsonl.member "run" json;
      d_failures = List.filter_map Jsonl.get_string failures;
    }

let write_dump ?run ?failures t ~path ~reason ~time ~nodes ~config =
  Pcc_stats.Atomic_file.write_string ~path
    (Jsonl.to_string (dump_to_json ?run ?failures t ~reason ~time ~nodes ~config) ^ "\n")

let read_dump path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error message -> Error message
  | text -> (
      match Jsonl.of_string (String.trim text) with
      | Error message -> Error (Printf.sprintf "%s: %s" path message)
      | Ok json -> Result.map_error (Printf.sprintf "%s: %s" path) (dump_of_json json))

let pp_dump ppf d =
  Format.fprintf ppf "@[<v>flight dump: %s@,config: %s@," d.d_reason d.d_config;
  Option.iter (fun run -> Format.fprintf ppf "run: %s@," (Jsonl.to_string run)) d.d_run;
  if d.d_failures <> [] then Format.fprintf ppf "failures:@,";
  List.iter (Format.fprintf ppf "  %s@,") d.d_failures;
  Format.fprintf ppf
    "dumped at cycle %d; %d nodes; last %d of %d recorded events (ring capacity %d)@,"
    d.d_time d.d_nodes (List.length d.d_events) d.d_recorded d.d_capacity;
  List.iter (Format.fprintf ppf "%a@," pp_event) d.d_events;
  Format.fprintf ppf "@]"
