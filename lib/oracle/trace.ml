open Pcc_core
module Jsonl = Pcc_stats.Jsonl
module Fault = Pcc_interconnect.Fault

type crash = Seeded of int | Victims of int list

type chaos = {
  profile : string;
  crash : crash;
  restart_after : int;
  txn_timeout : int;
  fallback_threshold : int;
}

type run_desc = {
  bench : string;
  config_name : string;
  protocol : Types.protocol option;
  nodes : int;
  scale : float;
  seed : int;
  fault : bool;
  chaos : chaos option;
  max_events : int;
}

let default =
  {
    bench = "random";
    config_name = "full";
    protocol = None;
    nodes = 6;
    scale = 0.15;
    seed = 1;
    fault = false;
    chaos = None;
    max_events = 50_000_000;
  }

(* The window sits inside a default-scale run so crashes land
   mid-traffic; explicit victims keep the seeded crash times. *)
let crash_schedule ~chaos_seed ~nodes c =
  let victims = match c.crash with Seeded n -> n | Victims v -> List.length v in
  if victims = 0 then []
  else
    let schedule =
      Fault.crash_schedule ~seed:chaos_seed ~nodes ~victims ~window:(3_000, 12_000)
        ~restart_after:c.restart_after ()
    in
    match c.crash with
    | Seeded _ -> schedule
    | Victims explicit ->
        List.map2
          (fun (crash : Fault.crash) victim -> { crash with victim })
          schedule explicit

let machine desc =
  let ( let* ) = Result.bind in
  let* base = Config.of_name ~nodes:desc.nodes desc.config_name in
  let protocol = Option.value desc.protocol ~default:base.Config.protocol in
  let fault =
    if protocol = Types.Adaptive then Config.Stale_update_no_resharing
    else Config.Snoop_upgr_skips_invals
  in
  let inject_fault = if desc.fault then Some fault else None in
  let config = { base with Config.protocol; seed = desc.seed; inject_fault } in
  match desc.chaos with
  | None -> Ok config
  | Some c ->
      (* an independent chaos stream per (seed, profile, bench): the
         workload stays pinned by [seed] alone *)
      let chaos_seed = (desc.seed * 8191) + Hashtbl.hash (c.profile, desc.bench) in
      let* profile = Fault.preset c.profile ~seed:chaos_seed in
      let crashes = crash_schedule ~chaos_seed ~nodes:desc.nodes c in
      Ok
        {
          config with
          net_faults = Some { profile with Fault.crashes };
          txn_timeout = c.txn_timeout;
          fallback_threshold = c.fallback_threshold;
        }

let config_of_desc desc =
  match machine desc with
  | Ok config -> config
  | Error message -> invalid_arg ("Trace.config_of_desc: " ^ message)

let programs_of_desc desc =
  match
    Pcc_workload.Workload.of_spec ~nodes:desc.nodes ~scale:desc.scale ~seed:desc.seed
      desc.bench
  with
  | Ok workload -> Pcc_workload.Workload.programs workload
  | Error message -> invalid_arg (Printf.sprintf "Trace.programs_of_desc: %s" message)

let litmus_machines = [ "base"; "delegation"; "full"; "adaptive"; "msi"; "mesi" ]

(* A chaos cell keeps Config's recovery knobs; with no crash,
   [restart_after] is inert. *)
let litmus_cells ?(machines = litmus_machines)
    ?(profiles = [ None; Some "drops"; Some "storm" ]) ?(seeds = [ 1; 2; 3 ])
    ?(fault = false) tests =
  let knobs = Config.base () in
  let chaos profile =
    {
      profile;
      crash = Seeded 0;
      restart_after = 5_000;
      txn_timeout = knobs.txn_timeout;
      fallback_threshold = knobs.fallback_threshold;
    }
  in
  List.concat_map
    (fun (test : Pcc_workload.Litmus.test) ->
      List.concat_map
        (fun config_name ->
          List.concat_map
            (fun profile ->
              List.map
                (fun seed ->
                  ( Printf.sprintf "%s-%s%s-%s-seed%d" test.name config_name
                      (if fault then "+fault" else "")
                      (Option.value profile ~default:"reliable")
                      seed,
                    {
                      default with
                      bench = "litmus:test=" ^ test.name;
                      config_name;
                      nodes = Pcc_workload.Litmus.nodes test;
                      seed;
                      fault;
                      chaos = Option.map chaos profile;
                    } ))
                seeds)
            profiles)
        machines)
    tests

let desc_to_json d =
  let int n = Jsonl.Int n and optional f = Option.fold ~none:Jsonl.Null ~some:f in
  let chaos c =
    Jsonl.Obj
      [
        ("profile", Jsonl.String c.profile);
        ( "crash",
          match c.crash with Seeded n -> int n | Victims v -> Jsonl.List (List.map int v) );
        ("restart_after", int c.restart_after);
        ("txn_timeout", int c.txn_timeout);
        ("fallback_threshold", int c.fallback_threshold);
      ]
  in
  Jsonl.Obj
    [
      ("bench", Jsonl.String d.bench);
      ("config", Jsonl.String d.config_name);
      ("protocol", optional (fun p -> Jsonl.String (Protocol.to_string p)) d.protocol);
      ("nodes", int d.nodes);
      ("scale", Jsonl.Float d.scale);
      ("seed", int d.seed);
      ("fault", Jsonl.Bool d.fault);
      ("max_events", int d.max_events);
      ("chaos", optional chaos d.chaos);
    ]

exception Ill_typed of string

let desc_of_json json =
  let field get obj name =
    match Option.bind (Jsonl.member name obj) get with
    | Some v -> v
    | None -> raise (Ill_typed name)
  in
  let str = field Jsonl.get_string and int = field Jsonl.get_int in
  let crash = function
    | Jsonl.Int n -> Some (Seeded n)
    | Jsonl.List l when List.for_all (fun v -> Jsonl.get_int v <> None) l ->
        Some (Victims (List.filter_map Jsonl.get_int l))
    | _ -> None
  in
  let chaos c =
    {
      profile = str c "profile";
      crash = field crash c "crash";
      restart_after = int c "restart_after";
      txn_timeout = int c "txn_timeout";
      fallback_threshold = int c "fallback_threshold";
    }
  in
  let protocol v =
    Option.bind (Jsonl.get_string v) (fun name ->
        Result.to_option (Protocol.of_string name))
  in
  let optional get name =
    if Jsonl.member name json = Some Jsonl.Null then None else Some (field get json name)
  in
  match
    {
      bench = str json "bench";
      config_name = str json "config";
      protocol = optional protocol "protocol";
      nodes = int json "nodes";
      scale = field Jsonl.get_float json "scale";
      seed = int json "seed";
      fault = field Jsonl.get_bool json "fault";
      chaos = optional (fun c -> Some (chaos c)) "chaos";
      max_events = int json "max_events";
    }
  with
  | exception Ill_typed name ->
      Error (Printf.sprintf "run descriptor: missing or ill-typed %S" name)
  | desc ->
      let ( let* ) = Result.bind in
      let* _ = machine desc in
      let { nodes; scale; seed; bench; _ } = desc in
      let* _ = Pcc_workload.Workload.of_spec ~nodes ~scale ~seed bench in
      Ok desc

let read_desc ~path =
  match Flight_ring.read_dump path with
  | Ok { Flight_ring.d_run = Some run; _ } -> desc_of_json run
  | Ok { Flight_ring.d_run = None; _ } ->
      Error
        (path ^ ": a machine's own flight dump names no run (decode it with pcc_trace --flight)")
  | Error message -> (
      (* not a dump: perhaps a bare descriptor, as desc_to_json writes it *)
      match Jsonl.of_string (In_channel.with_open_bin path In_channel.input_all) with
      | Ok json when Jsonl.member "bench" json <> None -> desc_of_json json
      | Ok _ | Error _ | (exception Sys_error _) -> Error message)
