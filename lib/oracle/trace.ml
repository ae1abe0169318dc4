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

(* ------------------------------------------------------------------ *)
(* Descriptor -> system                                                *)
(* ------------------------------------------------------------------ *)

let config_of_desc desc =
  match Config.of_name ~nodes:desc.nodes desc.config_name with
  | Ok base ->
      let fault =
        match base.Config.protocol with
        | Types.Adaptive -> Config.Stale_update_no_resharing
        | Types.Msi | Types.Mesi -> Config.Snoop_upgr_skips_invals
      in
      {
        base with
        Config.seed = desc.seed;
        inject_fault = (if desc.fault then Some fault else None);
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

let write ~path ~desc ~violations ~events =
  let tagged kind key value = Jsonl.Obj [ ("kind", Jsonl.String kind); (key, value) ] in
  Pcc_stats.Atomic_file.write ~path (fun oc ->
      List.iter
        (fun json ->
          output_string oc (Jsonl.to_string json);
          output_char oc '\n')
        ((desc_to_json desc
         :: List.map (fun m -> tagged "violation" "message" (Jsonl.String m)) violations)
        @ List.map (fun e -> tagged "event" "event" (Flight_ring.event_to_json e)) events
        ))

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
