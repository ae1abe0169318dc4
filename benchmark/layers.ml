(* Per-layer numbers from one traced run of a workload.

   The traced child runs the workload once with observer hooks attached
   and captures, up to [cap] each, the coherence messages the nodes send
   and the operations they issue.  It then replays those inputs through
   fresh instances of single layers, timing each from outside through
   its public functions: the event queue (a hold model at the run's
   mean queue depth), the network, the reliable hub link, the L2, the
   workload feed, the binary trace reader and the flight ring.

   Every call into a layer is wrapped in a span (name, layer, start,
   end, parent, counts).  Spans stay in memory and travel back to the
   parent with the numbers, which writes them once at the end.

   A workload that bypasses a layer still reports that layer's unit
   costs (metrics in ns, s or 1/s), measured on a reference input: the
   smoke em3d-full run for the simulator layers, the smoke checker model
   for the checker.  Its counts and ratios for that layer read 0. *)

open Pcc
module Jsonl = Pcc_stats.Jsonl
module Network = Pcc_interconnect.Network
module Topology = Pcc_interconnect.Topology
module L2 = Pcc_core.L2
module Flight_ring = Pcc_core.Flight_ring

let now = Suite.wall_ns

(* {1 Metric table} *)

type metric = { name : string; unit_ : string; better : string; moves : string }

let metrics =
  let m better name unit_ moves = { name; unit_; better; moves } in
  let lo = m "lower" and hi = m "higher" in
  let engine = "ops_per_s on pubsub-msi"
  and interconnect = "ops_per_s, minor_words_per_op on em3d-hardened"
  and protocol = "sim_cycles, sim_msgs_per_op on em3d-full and pubsub-msi"
  and memory = "ops_per_s on kv-full; sim_cycles on em3d-full"
  and feed = "ops_per_s on kv-full"
  and setup = "setup_s, peak_rss_mb on em3d-full"
  and observe = "ops_per_s on pubsub-msi"
  and mcheck = "ops_per_s on mcheck-adaptive"
  and gc = "ops_per_s, peak_rss_mb on em3d-hardened" in
  let classes = List.map Types.miss_class_name Types.miss_classes in
  [
    lo "engine.events_per_op" "count" engine;
    hi "engine.events_per_s" "1/s" engine;
    lo "engine.peak_queue_depth" "count" engine;
    lo "engine.hold_ns_per_event" "ns" engine;
    lo "interconnect.bytes_per_op" "bytes" interconnect;
    lo "interconnect.retransmits_per_op" "count" interconnect;
    lo "interconnect.dup_dropped_per_op" "count" interconnect;
    lo "interconnect.ns_per_msg" "ns" interconnect;
    lo "hub_link.ns_per_frame" "ns" interconnect;
    lo "hub_link.minor_words_per_frame" "words" interconnect;
    hi "protocol.l2_hit_ratio" "ratio" protocol;
    hi "protocol.rac_hits_per_kop" "1/kop" protocol;
    lo "protocol.local_mem_per_kop" "1/kop" protocol;
    lo "protocol.remote_2hop_per_kop" "1/kop" protocol;
    lo "protocol.remote_3hop_per_kop" "1/kop" protocol;
    hi "protocol.delegations_per_kop" "1/kop" protocol;
    lo "protocol.undelegations_per_kop" "1/kop" protocol;
    lo "protocol.nacks_per_kop" "1/kop" protocol;
    lo "protocol.retries_per_kop" "1/kop" protocol;
    hi "protocol.update_useful_ratio" "ratio" protocol;
    hi "protocol.dir_cache_hit_ratio" "ratio" protocol;
  ]
  @ List.concat_map
      (fun c ->
        [
          lo ("protocol.miss_lat_p50." ^ c) "cycles" protocol;
          lo ("protocol.miss_lat_p99." ^ c) "cycles" protocol;
        ])
      classes
  @ [
      lo "protocol.host_self_s" "s" protocol;
      lo "memory.l2_ns_per_probe" "ns" memory;
      hi "memory.l2_replay_hit_ratio" "ratio" memory;
      lo "memory.rac_pressure" "count" memory;
      lo "memory.deledc_pressure" "count" memory;
      lo "feed.ns_per_pull" "ns" feed;
      lo "feed.minor_words_per_pull" "words" feed;
      lo "feed.inrun_ns_per_pull" "ns" feed;
      lo "feed.btrace_ns_per_pull" "ns" feed;
      lo "setup.materialize_s" "s" setup;
      lo "setup.create_s" "s" setup;
      lo "observe.flight_records_per_op" "count" observe;
      lo "observe.flight_ns_per_record" "ns" observe;
      lo "observe.trace_overhead" "ratio" observe;
      lo "mcheck.states" "count" mcheck;
      lo "mcheck.transitions_per_state" "count" mcheck;
      lo "mcheck.successors_share" "ratio" mcheck;
      lo "mcheck.encode_share" "ratio" mcheck;
      lo "mcheck.ns_per_successors" "ns" mcheck;
      lo "mcheck.ns_per_encode" "ns" mcheck;
      lo "gc.minor_words_per_event" "words" gc;
      lo "gc.promoted_words_per_op" "words" gc;
      lo "gc.major_collections" "count" gc;
    ]

let is_unit_cost m = List.mem m.unit_ [ "ns"; "s"; "1/s" ]

let prefixed p m = String.starts_with ~prefix:p m.name

(* {1 Spans} *)

type span = {
  id : int;
  parent : int;
  sname : string;
  layer : string;
  start : int;
  mutable stop : int;
  mutable counts : (string * float) list;
}

let spans = ref []

let open_spans = ref []

(* Run [f] inside a span; returns its result and duration in seconds. *)
let span ~layer sname f =
  let s =
    {
      id = List.length !spans;
      parent = (match !open_spans with p :: _ -> p.id | [] -> -1);
      sname;
      layer;
      start = now ();
      stop = 0;
      counts = [];
    }
  in
  spans := s :: !spans;
  open_spans := s :: !open_spans;
  let result =
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        open_spans := List.tl !open_spans)
      (fun () -> f s)
  in
  (result, float_of_int (s.stop - s.start) *. 1e-9)

let count s key v = s.counts <- (key, v) :: s.counts

let spans_json ~workload =
  let all = List.rev !spans in
  List.map
    (fun s ->
      let dur = s.stop - s.start in
      let children =
        List.fold_left (fun acc c -> if c.parent = s.id then acc + (c.stop - c.start) else acc) 0 all
      in
      Jsonl.Obj
        [
          ("workload", Jsonl.String workload);
          ("id", Jsonl.Int s.id);
          ("parent", Jsonl.Int s.parent);
          ("name", Jsonl.String s.sname);
          ("layer", Jsonl.String s.layer);
          ("start_ns", Jsonl.Int s.start);
          ("dur_ns", Jsonl.Int dur);
          ("self_ns", Jsonl.Int (dur - children));
          ("counts", Jsonl.Obj (List.rev_map (fun (k, v) -> (k, Jsonl.Float v)) s.counts));
        ])
    all

(* {1 Capture} *)

(* Inputs captured per layer: at most [cap] messages and [cap] issues. *)
let cap = 1_000_000

module Vec = struct
  type t = { mutable data : int array; mutable len : int }

  let create () = { data = Array.make 4096 0; len = 0 }

  let push v x =
    if v.len = Array.length v.data then begin
      let bigger = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 bigger 0 v.len;
      v.data <- bigger
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1
end

type capture = {
  sends : Vec.t;  (** time, src, dst, wire bytes per message *)
  issues : Vec.t;  (** node, kind (0 load / 1 store), line per operation *)
  mutable sent : int;  (** all sends, captured or not *)
  mutable issued : int;
  mutable depth_sum : int;  (** event-queue length after each event *)
  mutable depth_samples : int;
}

let per x n = x /. float_of_int (max 1 n)

let ns_per t0 n = per (float_of_int (now () - t0)) n

(* {1 Isolated replays} *)

(* The hold model: keep [depth] events queued; each executed event
   schedules its successor, with delays cycling through the protocol's
   typical 16 (hub), 100 (network hop) and 200 (DRAM) cycles. *)
let hold_replay ~depth ~events =
  let sim = Simulator.create () in
  let delays = [| 16; 100; 200 |] in
  let fired = ref 0 in
  let rec fire () =
    incr fired;
    if !fired <= events then Simulator.schedule sim ~delay:delays.(!fired mod 3) fire
  in
  for i = 1 to depth do
    Simulator.schedule sim ~delay:delays.(i mod 3) fire
  done;
  let t0 = now () in
  ignore (Simulator.run sim);
  ns_per t0 (Simulator.events_executed sim)

(* Drive captured sends into [send] at their captured cycles, from one
   self-rescheduling walker event. *)
let replay_sends sim (c : capture) send =
  let d = c.sends.Vec.data and n = c.sends.Vec.len / 4 in
  let i = ref 0 in
  let rec walk () =
    while !i < n && d.(4 * !i) <= Simulator.now sim do
      let k = 4 * !i in
      send ~src:d.(k + 1) ~dst:d.(k + 2) ~bytes:d.(k + 3);
      incr i
    done;
    if !i < n then Simulator.schedule_at sim ~time:d.(4 * !i) walk
  in
  if n > 0 then Simulator.schedule_at sim ~time:d.(0) walk;
  n

let network_replay (config : Config.t) c =
  let sim = Simulator.create () in
  let topology = Topology.fat_tree ~nodes:config.Config.nodes ~radix:8 in
  let net = Network.create ?faults:config.Config.net_faults sim topology config.Config.network in
  for node = 0 to config.Config.nodes - 1 do
    Network.set_receiver net ~node (fun ~src:_ () -> ())
  done;
  let n = replay_sends sim c (fun ~src ~dst ~bytes -> Network.send net ~src ~dst ~bytes ()) in
  let t0 = now () in
  ignore (Simulator.run sim);
  (ns_per t0 n, n)

(* The reliable link over the workload's fault profile: sequencing,
   acknowledgements, retransmission and reassembly per frame. *)
let hub_link_replay (config : Config.t) c =
  let sim = Simulator.create () in
  let nodes = config.Config.nodes in
  let topology = Topology.fat_tree ~nodes ~radix:8 in
  let net = Network.create ?faults:config.Config.net_faults sim topology config.Config.network in
  let links =
    Array.init nodes (fun id ->
        Hub_link.create ~sim ~network:net ~id ~nodes ~reliable:true ~rto:config.Config.link_rto
          ~rto_cap:config.Config.link_rto_cap ~ack_bytes:Message.header_bytes
          ~on_retransmit:(fun ~dst:_ -> ())
          ~on_duplicate:(fun () -> ())
          ~deliver:(fun ~src:_ () -> ()))
  in
  ignore (replay_sends sim c (fun ~src ~dst ~bytes -> Hub_link.send links.(src) ~dst ~bytes ()));
  let minor0 = Gc.minor_words () in
  let t0 = now () in
  ignore (Simulator.run sim);
  let elapsed = now () - t0 in
  let frames = Network.messages_sent net in
  (per (float_of_int elapsed) frames, per (Gc.minor_words () -. minor0) frames, frames)

(* Each node's issued operations through a fresh L2 of the config's
   geometry: the cache's own cost and hit ratio, without coherence. *)
let l2_replay ~seed (config : Config.t) c =
  let rng = Rng.create ~seed in
  let caches =
    Array.init config.Config.nodes (fun _ ->
        L2.create ~rng ~lines:(Config.l2_lines config) ~ways:config.Config.l2_ways ())
  in
  let shared = { L2.state = L2.Shared; value = 0; dirty = false }
  and exclusive = { L2.state = L2.Exclusive; value = 0; dirty = true } in
  let d = c.issues.Vec.data and n = c.issues.Vec.len / 3 in
  let hits = ref 0 in
  let t0 = now () in
  for i = 0 to n - 1 do
    let l2 = caches.(d.(3 * i)) and line = d.((3 * i) + 2) in
    match L2.lookup l2 line with
    | Some _ -> incr hits
    | None -> ignore (L2.fill l2 line (if d.((3 * i) + 1) = 1 then exclusive else shared))
  done;
  (ns_per t0 n, per (float_of_int !hits) n, n)

(* Pull every node's ops round-robin until each has ended; returns the
   number of pulls (end-of-stream pulls included). *)
let drain ?(emit = fun ~node:_ _ -> ()) (feed : Op_stream.t) =
  let nodes = feed.Op_stream.nodes in
  let ended = Array.make nodes false in
  let live = ref nodes and pulls = ref 0 in
  while !live > 0 do
    for node = 0 to nodes - 1 do
      if not ended.(node) then begin
        let op = feed.Op_stream.next node in
        incr pulls;
        if op = Op_stream.end_of_stream then begin
          ended.(node) <- true;
          decr live
        end
        else emit ~node op
      end
    done
  done;
  !pulls

let feed_replay workload =
  let feed = Workload.stream workload in
  let minor0 = Gc.minor_words () in
  let t0 = now () in
  let pulls = drain feed in
  let ns = ns_per t0 pulls in
  (ns, per (Gc.minor_words () -. minor0) pulls, pulls)

(* Record the workload to a binary trace in the working directory, then
   time a streaming pass over it. *)
let btrace_replay workload =
  let path = Printf.sprintf ".benchmark-%d.pcct" (Unix.getpid ()) in
  let feed = Workload.stream workload in
  let writer = Btrace.Writer.create ~path ~nodes:feed.Op_stream.nodes () in
  ignore (drain ~emit:(fun ~node op -> Btrace.Writer.add writer ~node op) feed);
  Btrace.Writer.close writer;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      match Btrace.open_file path with
      | Error message -> failwith message
      | Ok reader ->
          let t0 = now () in
          let pulls = drain (Btrace.stream reader) in
          (ns_per t0 pulls, pulls))

let flight_replay () =
  let ring = Flight_ring.create () in
  let n = 1_000_000 in
  let t0 = now () in
  for i = 1 to n do
    Flight_ring.record ring ~time:i ~kind:Flight_ring.k_send ~detail:(i land 7) ~src:(i land 15)
      ~dst:((i lsr 4) land 15) ~line:i ~arg:0
  done;
  (ns_per t0 n, n)

(* Mean cost of one back-to-back pair of clock reads, which every
   bracketed call below also pays. *)
let clock_pair_ns () =
  let n = 100_000 and acc = ref 0 in
  for _ = 1 to n do
    let t0 = now () in
    acc := !acc + (now () - t0)
  done;
  per (float_of_int !acc) n

(* {1 Traced runs} *)

type traced = {
  failures : string list;
  run_s : float;
  values : (string * float) list;
}

let gc_delta (g0 : Gc.stat) (g1 : Gc.stat) =
  ( g1.Gc.minor_words -. g0.Gc.minor_words,
    g1.Gc.promoted_words -. g0.Gc.promoted_words,
    g1.Gc.major_collections - g0.Gc.major_collections )

let traced_sim ~seed (sim : Suite.sim) =
  let config = sim.Suite.config in
  let (workload, accesses, feed), materialize_s =
    span ~layer:"feed" "setup.materialize" (fun _ -> Suite.materialize ~seed sim)
  in
  let system, create_s =
    span ~layer:"system" "setup.create" (fun _ -> System.create ~config ())
  in
  let engine = System.sim system in
  let c =
    {
      sends = Vec.create ();
      issues = Vec.create ();
      sent = 0;
      issued = 0;
      depth_sum = 0;
      depth_samples = 0;
    }
  in
  let line_bytes = config.Config.line_bytes in
  System.on_message system (fun ~time ~src ~dst msg ->
      c.sent <- c.sent + 1;
      if c.sent <= cap then begin
        Vec.push c.sends time;
        Vec.push c.sends src;
        Vec.push c.sends dst;
        Vec.push c.sends (Message.wire_bytes ~line_bytes msg)
      end);
  System.on_issue system (fun ~time:_ ~node ~kind ~line ->
      c.issued <- c.issued + 1;
      if c.issued <= cap then begin
        Vec.push c.issues node;
        Vec.push c.issues (match kind with Types.Load -> 0 | Types.Store -> 1);
        Vec.push c.issues line
      end);
  System.on_post_event system (fun () ->
      c.depth_sum <- c.depth_sum + Simulator.pending_events engine;
      c.depth_samples <- c.depth_samples + 1);
  let pull_ns = ref 0 and pulls = ref 0 in
  let timed_feed =
    {
      feed with
      Op_stream.next =
        (fun node ->
          let t0 = now () in
          let op = feed.Op_stream.next node in
          pull_ns := !pull_ns + (now () - t0);
          incr pulls;
          op);
    }
  in
  let g0 = Gc.quick_stat () in
  let result, run_s =
    span ~layer:"system" "run" (fun s ->
        let r = System.run_stream system timed_feed in
        count s "ops" (float_of_int (Suite.commits r));
        count s "events" (float_of_int (Simulator.events_executed engine));
        count s "sends" (float_of_int c.sent);
        count s "issues" (float_of_int c.issued);
        r)
  in
  let minor, promoted, majors = gc_delta g0 (Gc.quick_stat ()) in
  let ops = Suite.commits result in
  let events = Simulator.events_executed engine in
  let stats = result.System.stats in
  let replay ~layer name f =
    fst
      (span ~layer name (fun s ->
           let ((_, units) as r) = f () in
           count s "units" (float_of_int units);
           r))
  in
  let depth = max 1 (c.depth_sum / max 1 c.depth_samples) in
  let hold_events = min cap events in
  let hold_ns, _ =
    replay ~layer:"engine" "replay.engine" (fun () ->
        (hold_replay ~depth ~events:hold_events, hold_events))
  in
  let net_ns, _ = replay ~layer:"interconnect" "replay.network" (fun () -> network_replay config c) in
  let (hub_ns, hub_words), _ =
    replay ~layer:"interconnect" "replay.hub_link" (fun () ->
        let ns, words, frames = hub_link_replay config c in
        ((ns, words), frames))
  in
  let (l2_ns, l2_hit), _ =
    replay ~layer:"memory" "replay.l2" (fun () ->
        let ns, hit, n = l2_replay ~seed config c in
        ((ns, hit), n))
  in
  let (feed_ns, feed_words), _ =
    replay ~layer:"feed" "replay.feed" (fun () ->
        let ns, words, pulls = feed_replay workload in
        ((ns, words), pulls))
  in
  let btrace_ns, _ = replay ~layer:"feed" "replay.btrace" (fun () -> btrace_replay workload) in
  let flight_ns, _ = replay ~layer:"observe" "replay.flight" flight_replay in
  let flight_records = Flight_ring.total (System.flight system) in
  (* host time the replayed layers account for, scaled to the run's
     counts; the rest is the protocol handlers, hub links and hooks *)
  let replayed_s =
    1e-9
    *. ((hold_ns *. float_of_int events)
       +. (net_ns *. float_of_int c.sent)
       +. (l2_ns *. float_of_int c.issued)
       +. (feed_ns *. float_of_int !pulls)
       +. (flight_ns *. float_of_int flight_records))
  in
  let kop x = 1000.0 *. per (float_of_int x) ops in
  let ratio a b = if a + b = 0 then 0.0 else float_of_int a /. float_of_int (a + b) in
  let latency =
    List.concat_map
      (fun cls ->
        let h = Run_stats.latency_hist stats cls and name = Types.miss_class_name cls in
        [
          ("protocol.miss_lat_p50." ^ name, Histogram.p50 h);
          ("protocol.miss_lat_p99." ^ name, Histogram.p99 h);
        ])
      Types.miss_classes
  in
  let values =
    [
      ("engine.events_per_op", per (float_of_int events) ops);
      ("engine.events_per_s", float_of_int events /. run_s);
      ("engine.peak_queue_depth", float_of_int (Simulator.peak_pending engine));
      ("engine.hold_ns_per_event", hold_ns);
      ("interconnect.bytes_per_op", per (float_of_int result.System.network_bytes) ops);
      ("interconnect.retransmits_per_op", per (float_of_int stats.Run_stats.retransmits) ops);
      ("interconnect.dup_dropped_per_op", per (float_of_int stats.Run_stats.dup_dropped) ops);
      ("interconnect.ns_per_msg", net_ns);
      ("hub_link.ns_per_frame", hub_ns);
      ("hub_link.minor_words_per_frame", hub_words);
      ("protocol.l2_hit_ratio", per (float_of_int stats.Run_stats.l2_hits) ops);
      ("protocol.rac_hits_per_kop", kop stats.Run_stats.rac_hits);
      ("protocol.local_mem_per_kop", kop stats.Run_stats.local_mem_misses);
      ("protocol.remote_2hop_per_kop", kop stats.Run_stats.remote_2hop);
      ("protocol.remote_3hop_per_kop", kop stats.Run_stats.remote_3hop);
      ("protocol.delegations_per_kop", kop stats.Run_stats.delegations);
      ("protocol.undelegations_per_kop", kop stats.Run_stats.undelegations);
      ("protocol.nacks_per_kop", kop stats.Run_stats.nacks_received);
      ("protocol.retries_per_kop", kop stats.Run_stats.retries);
      ( "protocol.update_useful_ratio",
        ratio result.System.updates_consumed result.System.updates_wasted );
      ( "protocol.dir_cache_hit_ratio",
        ratio stats.Run_stats.dir_cache_hits stats.Run_stats.dir_cache_misses );
    ]
    @ latency
    @ [
        ("protocol.host_self_s", run_s -. replayed_s);
        ("memory.l2_ns_per_probe", l2_ns);
        ("memory.l2_replay_hit_ratio", l2_hit);
        ("memory.rac_pressure", float_of_int result.System.rac_pressure);
        ("memory.deledc_pressure", float_of_int result.System.deledc_pressure);
        ("feed.ns_per_pull", feed_ns);
        ("feed.minor_words_per_pull", feed_words);
        ("feed.inrun_ns_per_pull", per (float_of_int !pull_ns) !pulls -. clock_pair_ns ());
        ("feed.btrace_ns_per_pull", btrace_ns);
        ("setup.materialize_s", materialize_s);
        ("setup.create_s", create_s);
        ("observe.flight_records_per_op", per (float_of_int flight_records) ops);
        ("observe.flight_ns_per_record", flight_ns);
        ("gc.minor_words_per_event", per minor events);
        ("gc.promoted_words_per_op", per promoted ops);
        ("gc.major_collections", float_of_int majors);
      ]
  in
  { failures = Suite.sim_failures ~accesses result; run_s; values }

(* The checker with [successors] and [encode] bracketed by the clock. *)
let traced_mcheck (m : Suite.mcheck) =
  let model, _ =
    span ~layer:"mcheck" "mcheck.setup" (fun _ -> Protocol_model.make m.Suite.params)
  in
  let (module M) = model in
  let succ_ns = ref 0 and succ_calls = ref 0 and enc_ns = ref 0 and enc_calls = ref 0 in
  let timed total calls f x =
    let t0 = now () in
    let r = f x in
    total := !total + (now () - t0);
    incr calls;
    r
  in
  let module T = struct
    include M

    let successors s = timed succ_ns succ_calls M.successors s

    let por = Option.map (fun f s -> timed succ_ns succ_calls f s) M.por

    let encode s = timed enc_ns enc_calls M.encode s
  end in
  let g0 = Gc.quick_stat () in
  let (failures, stats), run_s =
    span ~layer:"mcheck" "mcheck.run" (fun s ->
        let outcome = Checker.run (module T) ~max_states:m.Suite.max_states ~jobs:1 () in
        let stats = Suite.checker_stats outcome in
        count s "states" (float_of_int stats.Checker.states_explored);
        count s "transitions" (float_of_int stats.Checker.transitions);
        count s "successors_calls" (float_of_int !succ_calls);
        count s "encode_calls" (float_of_int !enc_calls);
        (Suite.mcheck_failures m outcome, stats))
  in
  let _, promoted, majors = gc_delta g0 (Gc.quick_stat ()) in
  let states = stats.Checker.states_explored in
  let clock = clock_pair_ns () in
  let share ns = float_of_int ns *. 1e-9 /. run_s in
  {
    failures;
    run_s;
    values =
      [
        ("mcheck.states", float_of_int states);
        ("mcheck.transitions_per_state", per (float_of_int stats.Checker.transitions) states);
        ("mcheck.successors_share", share !succ_ns);
        ("mcheck.encode_share", share !enc_ns);
        ("mcheck.ns_per_successors", per (float_of_int !succ_ns) !succ_calls -. clock);
        ("mcheck.ns_per_encode", per (float_of_int !enc_ns) !enc_calls -. clock);
        ("gc.minor_words_per_event", 0.0);
        ("gc.promoted_words_per_op", per promoted states);
        ("gc.major_collections", float_of_int majors);
      ];
  }

let reference_sim, reference_mcheck =
  let find name = (Option.get (Suite.find Suite.Smoke name)).Suite.kind in
  ( (match find "em3d-full" with Suite.Sim s -> s | Suite.Mcheck _ -> assert false),
    match find "mcheck-adaptive" with Suite.Mcheck m -> m | Suite.Sim _ -> assert false )

(* Values of the layers a workload bypasses: unit costs from the
   reference run, zero for counts and ratios. *)
let bypassed ~layer_of (reference : traced) =
  List.filter_map
    (fun m ->
      if not (layer_of m) then None
      else if is_unit_cost m then Some (m.name, List.assoc m.name reference.values)
      else Some (m.name, 0.0))
    metrics

let traced_child ~seed (w : Suite.t) =
  let t, _ =
    span ~layer:"benchmark" ("traced " ^ w.Suite.name) (fun _ ->
        match w.Suite.kind with
        | Suite.Sim sim ->
            let own = traced_sim ~seed sim in
            let reference, _ =
              span ~layer:"benchmark" "reference mcheck" (fun _ -> traced_mcheck reference_mcheck)
            in
            {
              own with
              failures = own.failures @ reference.failures;
              values = own.values @ bypassed ~layer_of:(prefixed "mcheck.") reference;
            }
        | Suite.Mcheck m ->
            let own = traced_mcheck m in
            let reference, _ =
              span ~layer:"benchmark" "reference sim" (fun _ -> traced_sim ~seed reference_sim)
            in
            let sim_layer m =
              not (prefixed "mcheck." m || prefixed "gc." m || m.name = "observe.trace_overhead")
            in
            {
              own with
              failures = own.failures @ reference.failures;
              values = own.values @ bypassed ~layer_of:sim_layer reference;
            })
  in
  ( t.failures,
    Jsonl.Obj
      [
        ("run_s", Jsonl.Float t.run_s);
        ("layers", Jsonl.Obj (List.map (fun (k, v) -> (k, Jsonl.Float v)) t.values));
        ("spans", Jsonl.List (spans_json ~workload:w.Suite.name));
      ] )
