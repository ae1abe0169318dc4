open Pcc_core
module Jsonl = Pcc_stats.Jsonl

type run_desc = {
  bench : string;
  config_name : string;
  nodes : int;
  scale : float;
  seed : int;
  fault : bool;
}

type event =
  | Msg of { time : int; src : int; dst : int; cls : string; line : Types.line }
  | Commit of {
      time : int;
      node : int;
      kind : Types.op_kind;
      line : Types.line;
      value : int;
      started : int;
    }

let pp_line ppf line =
  Format.fprintf ppf "%d@%d" (Types.Layout.index_of_line line)
    (Types.Layout.home_of_line line)

let pp_event ppf = function
  | Msg { time; src; dst; cls; line } ->
      Format.fprintf ppf "[%d] msg %s %d->%d line %a" time cls src dst pp_line line
  | Commit { time; node; kind; line; value; started } ->
      Format.fprintf ppf "[%d] commit n%d %s line %a value %d (started %d)" time node
        (match kind with Types.Load -> "load" | Types.Store -> "store")
        pp_line line value started

module Ring = struct
  type t = { slots : event option array; mutable next : int; mutable count : int }

  let create ~capacity =
    assert (capacity > 0);
    { slots = Array.make capacity None; next = 0; count = 0 }

  let add t event =
    t.slots.(t.next) <- Some event;
    t.next <- (t.next + 1) mod Array.length t.slots;
    t.count <- min (t.count + 1) (Array.length t.slots)

  let to_list t =
    let capacity = Array.length t.slots in
    let start = (t.next - t.count + capacity) mod capacity in
    List.init t.count (fun i -> Option.get t.slots.((start + i) mod capacity))
end

(* ------------------------------------------------------------------ *)
(* Descriptor -> system                                                *)
(* ------------------------------------------------------------------ *)

let config_of_desc desc =
  match Config.of_name ~nodes:desc.nodes desc.config_name with
  | Ok base ->
      {
        base with
        Config.seed = desc.seed;
        inject_fault = (if desc.fault then Some Config.Stale_update_no_resharing else None);
      }
  | Error message -> invalid_arg ("Trace.config_of_desc: " ^ message)

let programs_of_desc desc =
  match
    Pcc_workload.Workload.of_spec ~nodes:desc.nodes ~scale:desc.scale
      ~seed:desc.seed desc.bench
  with
  | Ok workload -> Pcc_workload.Workload.programs workload
  | Error message -> invalid_arg (Printf.sprintf "Trace.programs_of_desc: %s" message)

(* ------------------------------------------------------------------ *)
(* JSONL encoding                                                      *)
(* ------------------------------------------------------------------ *)

let desc_to_json desc =
  Jsonl.Obj
    [
      ("kind", Jsonl.String "run");
      ("bench", Jsonl.String desc.bench);
      ("config", Jsonl.String desc.config_name);
      ("nodes", Jsonl.Int desc.nodes);
      ("scale", Jsonl.Float desc.scale);
      ("seed", Jsonl.Int desc.seed);
      ("fault", Jsonl.Bool desc.fault);
    ]

let event_to_json = function
  | Msg { time; src; dst; cls; line } ->
      Jsonl.Obj
        [
          ("kind", Jsonl.String "event");
          ("event", Jsonl.String "msg");
          ("time", Jsonl.Int time);
          ("src", Jsonl.Int src);
          ("dst", Jsonl.Int dst);
          ("class", Jsonl.String cls);
          ("line", Jsonl.Int line);
        ]
  | Commit { time; node; kind; line; value; started } ->
      Jsonl.Obj
        [
          ("kind", Jsonl.String "event");
          ("event", Jsonl.String "commit");
          ("time", Jsonl.Int time);
          ("node", Jsonl.Int node);
          ("op", Jsonl.String (match kind with Types.Load -> "load" | Types.Store -> "store"));
          ("line", Jsonl.Int line);
          ("value", Jsonl.Int value);
          ("started", Jsonl.Int started);
        ]

let write ~path ~desc ~violations ~events =
  Pcc_stats.Atomic_file.write ~path
    (fun oc ->
      output_string oc (Jsonl.to_string (desc_to_json desc));
      output_char oc '\n';
      List.iter
        (fun message ->
          output_string oc
            (Jsonl.to_string
               (Jsonl.Obj
                  [ ("kind", Jsonl.String "violation"); ("message", Jsonl.String message) ]));
          output_char oc '\n')
        violations;
      List.iter
        (fun event ->
          output_string oc (Jsonl.to_string (event_to_json event));
          output_char oc '\n')
        events)

let read_desc ~path =
  match In_channel.with_open_text path In_channel.input_line with
  | None -> Error (Printf.sprintf "%s: empty trace file" path)
  | exception Sys_error message -> Error message
  | Some header -> (
      match Jsonl.of_string header with
      | Error message -> Error (Printf.sprintf "%s: bad header: %s" path message)
      | Ok json -> (
          let str key = Option.bind (Jsonl.member key json) Jsonl.get_string in
          let int key = Option.bind (Jsonl.member key json) Jsonl.get_int in
          let flt key = Option.bind (Jsonl.member key json) Jsonl.get_float in
          let bool key = Option.bind (Jsonl.member key json) Jsonl.get_bool in
          match (str "kind", str "bench", str "config", int "nodes", flt "scale", int "seed") with
          | Some "run", Some bench, Some config_name, Some nodes, Some scale, Some seed ->
              Ok
                {
                  bench;
                  config_name;
                  nodes;
                  scale;
                  seed;
                  fault = Option.value (bool "fault") ~default:false;
                }
          | _ -> Error (Printf.sprintf "%s: header is not a run descriptor" path)))
