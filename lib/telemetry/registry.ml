module Jsonl = Pcc_stats.Jsonl
module Histogram = Pcc_stats.Histogram
module Counter_tbl = Pcc_stats.Counter
module Run_stats = Pcc_core.Run_stats
module System = Pcc_core.System
module Types = Pcc_core.Types
module Simulator = Pcc_engine.Simulator

type summary = {
  s_count : int;
  s_sum : int;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

type value = Counter of int | Gauge of int | Summary of summary

type t = {
  tbl : (string * (string * string) list, value) Hashtbl.t;
  (* One metric type per name, across all label sets — OpenMetrics
     families require it and it catches bridge typos early. *)
  types : (string, string) Hashtbl.t;
}

let create () = { tbl = Hashtbl.create 64; types = Hashtbl.create 16 }

let type_tag = function Counter _ -> "counter" | Gauge _ -> "gauge" | Summary _ -> "summary"

let check_type t name v =
  let tag = type_tag v in
  match Hashtbl.find_opt t.types name with
  | None -> Hashtbl.replace t.types name tag
  | Some prior when prior = tag -> ()
  | Some prior ->
      invalid_arg
        (Printf.sprintf "Registry: %s registered as %s and %s" name prior tag)

let key name labels = (name, List.sort compare labels)

let counter t ?(labels = []) name v =
  check_type t name (Counter 0);
  let k = key name labels in
  let prior = match Hashtbl.find_opt t.tbl k with Some (Counter n) -> n | _ -> 0 in
  Hashtbl.replace t.tbl k (Counter (prior + v))

let gauge t ?(labels = []) name v =
  check_type t name (Gauge 0);
  Hashtbl.replace t.tbl (key name labels) (Gauge v)

let summary_of_hist h =
  {
    s_count = Histogram.count h;
    s_sum = Histogram.sum h;
    s_p50 = Histogram.p50 h;
    s_p95 = Histogram.p95 h;
    s_p99 = Histogram.p99 h;
  }

let summary t ?(labels = []) name h =
  let s = summary_of_hist h in
  check_type t name (Summary s);
  Hashtbl.replace t.tbl (key name labels) (Summary s)

let items t =
  Hashtbl.fold (fun (name, labels) v acc -> (name, labels, v) :: acc) t.tbl []
  |> List.sort (fun (n1, l1, _) (n2, l2, _) -> compare (n1, l1) (n2, l2))

(* {2 Bridges} *)

let add_run_stats ?(summaries = true) t (s : Run_stats.t) =
  let c name v = counter t name v in
  c "pcc_loads" s.loads;
  c "pcc_stores" s.stores;
  c "pcc_l2_hits" s.l2_hits;
  c "pcc_rac_hits" s.rac_hits;
  c "pcc_local_mem_misses" s.local_mem_misses;
  c "pcc_remote_2hop" s.remote_2hop;
  c "pcc_remote_3hop" s.remote_3hop;
  c "pcc_nacks_received" s.nacks_received;
  c "pcc_retries" s.retries;
  c "pcc_delegations" s.delegations;
  c "pcc_undelegations" s.undelegations;
  c "pcc_delegation_refusals" s.delegation_refusals;
  c "pcc_updates_sent" s.updates_sent;
  c "pcc_updates_as_reply" s.updates_as_reply;
  c "pcc_invals_sent" s.invals_sent;
  c "pcc_interventions_sent" s.interventions_sent;
  c "pcc_dir_cache_hits" s.dir_cache_hits;
  c "pcc_dir_cache_misses" s.dir_cache_misses;
  c "pcc_writebacks" s.writebacks;
  c "pcc_retransmits" s.retransmits;
  c "pcc_dup_dropped" s.dup_dropped;
  c "pcc_txn_timeouts" s.txn_timeouts;
  c "pcc_fallbacks" s.fallbacks;
  c "pcc_crashes" s.crashes;
  c "pcc_restarts" s.restarts;
  c "pcc_crash_revoked" s.crash_revoked;
  c "pcc_crash_pruned" s.crash_pruned;
  c "pcc_crash_rescued" s.crash_rescued;
  List.iter
    (fun (cls, n) -> counter t ~labels:[ ("class", cls) ] "pcc_messages" n)
    (Counter_tbl.to_alist s.message_classes);
  if summaries then begin
    List.iter
      (fun mc ->
        summary t
          ~labels:[ ("class", Types.miss_class_name mc) ]
          "pcc_miss_latency"
          (Run_stats.latency_hist s mc))
      Types.miss_classes;
    summary t "pcc_consumers_per_epoch" s.consumer_hist
  end

let add_result ?summaries t (r : System.result) =
  add_run_stats ?summaries t r.stats;
  counter t "pcc_cycles" r.cycles;
  counter t "pcc_network_messages" r.network_messages;
  counter t "pcc_network_bytes" r.network_bytes;
  counter t "pcc_violations" r.violations;
  counter t "pcc_invariant_errors" (List.length r.invariant_errors);
  counter t "pcc_updates_consumed" r.updates_consumed;
  counter t "pcc_updates_wasted" r.updates_wasted;
  counter t "pcc_rac_pressure" r.rac_pressure;
  counter t "pcc_deledc_pressure" r.deledc_pressure;
  counter t "pcc_stalled_runs" (match r.stall with Some _ -> 1 | None -> 0)

let add_system t sys =
  let g name v = gauge t name v in
  g "pcc_in_flight_txns" (System.in_flight_txns sys);
  g "pcc_delegated_lines" (System.delegated_lines sys);
  g "pcc_rac_occupancy" (System.rac_occupancy sys);
  g "pcc_rac_capacity" (System.rac_capacity sys);
  g "pcc_link_in_flight" (System.link_in_flight sys);
  g "pcc_network_in_flight" (System.network_in_flight sys);
  g "pcc_event_queue_depth" (System.event_queue_depth sys);
  g "pcc_sim_events_executed" (Simulator.events_executed (System.sim sys));
  g "pcc_sim_peak_pending" (Simulator.peak_pending (System.sim sys));
  List.iter
    (fun (src, dst, n) ->
      counter t
        ~labels:[ ("src", string_of_int src); ("dst", string_of_int dst) ]
        "pcc_link_retransmits" n)
    (System.retransmits_by_link sys)

let add_pool t =
  let s = Pcc_parallel.Pool.stats () in
  counter t "pcc_pool_jobs_completed" s.completed;
  counter t "pcc_pool_jobs_failed" s.failed;
  (* every job runs once *)
  counter t "pcc_pool_job_attempts" (s.completed + s.failed)

(* {2 Exports} *)

let labels_json labels = Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.String v)) labels)

let value_json = function
  | Counter n | Gauge n -> Jsonl.Int n
  | Summary s ->
      Jsonl.Obj
        [
          ("count", Jsonl.Int s.s_count);
          ("sum", Jsonl.Int s.s_sum);
          ("p50", Jsonl.Float s.s_p50);
          ("p95", Jsonl.Float s.s_p95);
          ("p99", Jsonl.Float s.s_p99);
        ]

let to_json t =
  let metrics =
    List.map
      (fun (name, labels, v) ->
        Jsonl.Obj
          [
            ("name", Jsonl.String name);
            ("type", Jsonl.String (type_tag v));
            ("labels", labels_json labels);
            ("value", value_json v);
          ])
      (items t)
  in
  Jsonl.Obj
    [
      ("kind", Jsonl.String "pcc-metrics");
      ("version", Jsonl.Int 1);
      ("metrics", Jsonl.List metrics);
    ]

(* OpenMetrics escaping for label values: backslash, quote, newline. *)
let escape_label v =
  let buf = Buffer.create (String.length v) in
  String.iter
    (function
      | '\\' -> Buffer.add_string buf {|\\|}
      | '"' -> Buffer.add_string buf {|\"|}
      | '\n' -> Buffer.add_string buf {|\n|}
      | ch -> Buffer.add_char buf ch)
    v;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

let om_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let to_openmetrics t =
  let buf = Buffer.create 4096 in
  let typed = Hashtbl.create 16 in
  List.iter
    (fun (name, labels, v) ->
      if not (Hashtbl.mem typed name) then begin
        Hashtbl.replace typed name ();
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name (type_tag v))
      end;
      match v with
      | Counter n ->
          Buffer.add_string buf
            (Printf.sprintf "%s_total%s %d\n" name (render_labels labels) n)
      | Gauge n ->
          Buffer.add_string buf
            (Printf.sprintf "%s%s %d\n" name (render_labels labels) n)
      | Summary s ->
          List.iter
            (fun (q, value) ->
              Buffer.add_string buf
                (Printf.sprintf "%s%s %s\n" name
                   (render_labels (labels @ [ ("quantile", q) ]))
                   (om_float value)))
            [ ("0.5", s.s_p50); ("0.95", s.s_p95); ("0.99", s.s_p99) ];
          Buffer.add_string buf
            (Printf.sprintf "%s_count%s %d\n" name (render_labels labels) s.s_count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %d\n" name (render_labels labels) s.s_sum))
    (items t);
  Buffer.add_string buf "# EOF\n";
  Buffer.contents buf

let write t ~path =
  if Filename.check_suffix path ".json" then
    Pcc_stats.Atomic_file.write_string ~path (Jsonl.to_string (to_json t) ^ "\n")
  else Pcc_stats.Atomic_file.write_string ~path (to_openmetrics t)
