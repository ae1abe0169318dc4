module Sim = Pcc_engine.Simulator
module Network = Pcc_interconnect.Network
module Topology = Pcc_interconnect.Topology
module Fault = Pcc_interconnect.Fault

(* Barrier arrivals are tracked per node so that fail-stop recovery can
   retract a crashed node's arrival (its stepper re-arrives after the
   restart) and release rounds that were only waiting on a node that will
   never return. *)
type barrier = {
  mutable arrived : Nodeset.t;
  mutable waiters : (Types.node_id * (unit -> unit)) list;
}

type crash_phase = Crash_down | Crash_detected | Crash_restarted

(* The machine's nodes, of whichever protocol [Config.protocol] names:
   every generic operation matches the two cases, and the crash
   machinery and the adaptive-only oracle layers (Audit, Diff) take the
   adaptive nodes. *)
type backend = Adaptive of Node.t array | Snooping of Snoop.t array

type t = {
  config : Config.t;
  sim : Sim.t;
  network : Message.t Network.t;
  backend : backend;
  stats : Run_stats.t;
  alive_view : bool array;  (* shared with every node; flipped by crashes *)
  barriers : (int, barrier) Hashtbl.t;
  barriers_released : (int, unit) Hashtbl.t;
      (* crash mode only: a restarted node re-arriving at a barrier that
         released during its outage must pass, not re-open it *)
  mutable dead_forever : Nodeset.t;  (* crashed with no restart scheduled *)
  mutable crash_hooks :
    (time:int -> node:Types.node_id -> phase:crash_phase -> unit) list;
  mutable last_finish : int;
  mutable crash_progress : int;
      (* crash phases so far: with the checker's commit count, the
         watchdog's progress measure *)
  probe : Probe.t;
      (* event sink: the always-on flight ring and SC checker, then
         subscribers *)
}

let on_crash t f = t.crash_hooks <- t.crash_hooks @ [ f ]

let adaptive_exn t =
  match t.backend with
  | Adaptive nodes -> nodes
  | Snooping _ ->
      invalid_arg
        (Printf.sprintf "System: adaptive backend required (running %s)"
           (Config.describe t.config))

let flight t = Probe.flight t.probe

let checker t = Probe.checker t.probe

let recent t = Flight_ring.recent (flight t) 64

let write_flight_dump ?run ?failures t ~path ~reason =
  Flight_ring.write_dump ?run ?failures (flight t) ~path ~reason ~time:(Sim.now t.sim)
    ~nodes:t.config.nodes ~config:(Config.describe t.config)

let crash_phase_code = function
  | Crash_down -> 0
  | Crash_detected -> 1
  | Crash_restarted -> 2

(* Crash phases are the one event kind System emits itself, so it keeps
   their subscriber list too. *)
let fire_crash_hooks t ~node ~phase =
  let time = Sim.now t.sim in
  let code = crash_phase_code phase in
  Flight_ring.record (flight t) ~time ~kind:Flight_ring.k_crash ~detail:code ~src:node
    ~dst:node ~line:(-1) ~arg:0;
  List.iter (fun f -> f ~time ~node ~phase) t.crash_hooks

(* A barrier releases every processor [barrier_latency] cycles after the
   last arrival, modeling the synchronization round trip without adding
   protocol traffic of its own.  Participation excludes permanently dead
   nodes; a node down-for-restart still counts, so survivors wait out the
   outage as a real barrier would make them. *)

let barrier_participants t = t.config.nodes - Nodeset.cardinal t.dead_forever

let release_barrier_if_full t id b =
  if Nodeset.cardinal b.arrived >= barrier_participants t then begin
    let waiters = b.waiters in
    Hashtbl.remove t.barriers id;
    if Config.crash_capable t.config then Hashtbl.replace t.barriers_released id ();
    List.iter
      (fun (_, waiter) -> Sim.schedule t.sim ~delay:t.config.barrier_latency waiter)
      waiters
  end

let barrier_arrive t node_id id continue =
  if Hashtbl.mem t.barriers_released id then
    Sim.schedule t.sim ~delay:t.config.barrier_latency continue
  else begin
    let b =
      match Hashtbl.find_opt t.barriers id with
      | Some b -> b
      | None ->
          let b = { arrived = Nodeset.empty; waiters = [] } in
          Hashtbl.add t.barriers id b;
          b
    in
    b.arrived <- Nodeset.add b.arrived node_id;
    b.waiters <-
      (node_id, continue) :: List.filter (fun (n, _) -> n <> node_id) b.waiters;
    release_barrier_if_full t id b
  end

(* Crash detection: retract the victim's arrivals (restarted incarnations
   re-arrive; permanent deaths shrink the participant count) and release
   any round that no longer waits on anyone. *)
let barrier_forget t ~dead =
  let pending = Hashtbl.fold (fun id b acc -> (id, b) :: acc) t.barriers [] in
  List.iter
    (fun (id, b) ->
      b.arrived <- Nodeset.remove b.arrived dead;
      b.waiters <- List.filter (fun (n, _) -> n <> dead) b.waiters;
      release_barrier_if_full t id b)
    (List.sort (fun (a, _) (b, _) -> compare (a : int) b) pending)

(* Cycles between a fail-stop crash and machine-wide detection: the
   window in which the victim's in-flight traffic still lands. *)
let crash_detect_delay = 1_500

(* Fail-stop schedule: each crash is three simulator events.  At
   [crash_at] the node dies (volatile state lost, links down).  After the
   detection delay the machine notices: the victim's incarnation epoch is
   bumped — discarding its remaining pre-crash traffic — and the
   machine-wide recovery sweep repairs directories, transactions and the
   value checker.  At the optional restart the node rejoins cold.  Each
   event counts as watchdog progress: a machine busy recovering is not
   livelocked. *)
let schedule_crashes t (crashes : Fault.crash list) =
  let nodes = adaptive_exn t in
  List.iter
    (fun (c : Fault.crash) ->
      let victim = c.victim in
      if victim < 0 || victim >= t.config.nodes then
        invalid_arg "System: crash victim out of range";
      let detect_at = c.crash_at + crash_detect_delay in
      Sim.schedule t.sim ~delay:c.crash_at (fun () ->
          Network.mark_down t.network ~node:victim;
          Node.crash nodes.(victim);
          t.crash_progress <- t.crash_progress + 1;
          fire_crash_hooks t ~node:victim ~phase:Crash_down);
      Sim.schedule t.sim ~delay:detect_at (fun () ->
          let will_restart = c.restart_after <> None in
          Network.bump_epoch t.network ~node:victim;
          Node.recover_after_crash nodes ~dead:victim ~will_restart;
          Sc_check.crash (checker t) ~dead:victim
            ~surviving:(fun line -> Node.surviving_value nodes line);
          if not will_restart then
            t.dead_forever <- Nodeset.add t.dead_forever victim;
          barrier_forget t ~dead:victim;
          t.crash_progress <- t.crash_progress + 1;
          fire_crash_hooks t ~node:victim ~phase:Crash_detected);
      match c.restart_after with
      | None -> ()
      | Some d ->
          (* a node cannot rejoin before its crash was even detected *)
          let restart_at = max (c.crash_at + d) (detect_at + 1) in
          Sim.schedule t.sim ~delay:restart_at (fun () ->
              Network.mark_up t.network ~node:victim;
              Node.restart nodes.(victim);
              t.crash_progress <- t.crash_progress + 1;
              fire_crash_hooks t ~node:victim ~phase:Crash_restarted))
    crashes

(* The progress watchdog samples every [watchdog_interval] events and
   declares a stall (livelock) after [watchdog_checks] samples in a row
   without a commit. *)
let watchdog_interval = 100_000

let watchdog_checks = 10

let create ~(config : Config.t) () =
  let sim = Sim.create () in
  let topology = Topology.fat_tree ~nodes:config.nodes ~radix:8 in
  let network = Network.create ?faults:config.net_faults sim topology config.network in
  let stats = Run_stats.create () in
  let version = ref 0 in
  let next_version () =
    incr version;
    !version
  in
  let rng = Pcc_engine.Rng.create ~seed:config.seed in
  let alive_view = Array.make config.nodes true in
  let probe = Probe.create ~sim ~nodes:config.nodes in
  let backend =
    match config.protocol with
    | Types.Adaptive ->
        Adaptive
          (Array.init config.nodes (fun id ->
               Node.create ~probe ~alive_view ~config ~sim ~network ~id ~stats
                 ~next_version
                 ~rng:(Pcc_engine.Rng.split rng)
                 ()))
    | Types.Msi | Types.Mesi ->
        Snooping
          (Snoop.create_machine ~probe ~config ~sim ~network ~stats ~next_version ~rng ())
  in
  let t =
    {
      config;
      sim;
      network;
      backend;
      stats;
      alive_view;
      barriers = Hashtbl.create 16;
      barriers_released = Hashtbl.create 16;
      dead_forever = Nodeset.empty;
      crash_hooks = [];
      last_finish = 0;
      crash_progress = 0;
      probe;
    }
  in
  (match config.net_faults with
  | Some { Fault.crashes = _ :: _ as crashes; _ } -> schedule_crashes t crashes
  | Some _ | None -> ());
  if Config.hardened config then begin
    (* livelock detection: committed operations are the progress measure —
       under fault injection events keep flowing (retransmissions, retries)
       even when the protocol is stuck *)
    let check = Probe.checker probe in
    Sim.set_watchdog sim ~interval:watchdog_interval ~stall_checks:watchdog_checks
      ~progress:(fun () -> Sc_check.commits check + t.crash_progress)
  end;
  t

let sim t = t.sim

let config t = t.config

let protocol t = t.config.Config.protocol

let node t id = (adaptive_exn t).(id)

let nodes t = adaptive_exn t

let node_alive t id = t.alive_view.(id)

(* Backend-agnostic cache-state inspection (conformance and differential
   tests; side-effect-free). *)

let l2_entry t ~node:id ~line =
  match t.backend with
  | Adaptive nodes -> Node.l2_state nodes.(id) line
  | Snooping nodes -> Snoop.l2_state nodes.(id) line

let iter_l2 t ~node:id f =
  match t.backend with
  | Adaptive nodes -> Node.iter_l2 nodes.(id) f
  | Snooping nodes -> Snoop.iter_l2 nodes.(id) f

let stats t = t.stats

let network_messages t = Network.messages_sent t.network

let network_bytes t = Network.bytes_sent t.network

let fault_stats t = Network.fault_stats t.network

let submit t ~node ~kind ~line ~on_commit =
  match t.backend with
  | Adaptive nodes -> Node.submit nodes.(node) ~kind ~line ~on_commit
  | Snooping nodes -> Snoop.submit nodes.(node) ~kind ~line ~on_commit

let check_invariants t =
  match t.backend with
  | Adaptive nodes -> Node.check_invariants nodes
  | Snooping nodes -> Snoop.check_invariants nodes

(* Observers: post-event callbacks from the simulator, and the
   machine-wide event streams, which subscribe straight into the probe
   every backend emits into. *)

let on_post_event t f = Sim.on_event t.sim f

let on_commit t f = Probe.on_commit t.probe f

let on_message t f = Probe.on_send t.probe f

let on_issue t f = Probe.on_issue t.probe f

let on_recv t f = Probe.on_recv t.probe f

let on_retransmit t f = Probe.on_retransmit t.probe f

(* Live occupancy gauges for telemetry samplers. *)

let sum f nodes = Array.fold_left (fun acc node -> acc + f node) 0 nodes

(* The RAC and delegation gauges: only the adaptive machine has a RAC
   and a delegate cache, so a snooping machine reads 0. *)
let adaptive_sum t f = match t.backend with Adaptive nodes -> sum f nodes | Snooping _ -> 0

let in_flight_txns t =
  let pending pending_op = sum (fun node -> if pending_op node <> None then 1 else 0) in
  match t.backend with
  | Adaptive nodes -> pending Node.pending_op nodes
  | Snooping nodes -> pending Snoop.pending_op nodes

let delegated_lines t = adaptive_sum t Node.delegated_line_count

let rac_occupancy t = adaptive_sum t Node.rac_occupancy

let rac_capacity t = adaptive_sum t Node.rac_capacity

let link_in_flight t =
  match t.backend with
  | Adaptive nodes -> sum Node.hub_in_flight nodes
  | Snooping nodes -> sum Snoop.hub_in_flight nodes

let network_in_flight t = Network.in_flight t.network

let event_queue_depth t = Sim.pending_events t.sim

(* A node's id is its index in the machine's array. *)
let retransmits_by_link t =
  let links retransmits nodes =
    Array.to_list nodes
    |> List.mapi (fun src node ->
           List.map (fun (dst, count) -> (src, dst, count)) (retransmits node))
    |> List.concat
  in
  match t.backend with
  | Adaptive nodes -> links Node.link_retransmits nodes
  | Snooping nodes -> links Snoop.link_retransmits nodes

(* One transaction still outstanding when a run failed to drain. *)
type in_flight = {
  stalled_node : Types.node_id;
  stalled_kind : Types.op_kind;
  stalled_line : Types.line;
  stalled_since : int;
  stalled_timeouts : int;
}

type stall_report = {
  stall_outcome : Sim.outcome;
  stall_unfinished : int;
  stall_in_flight : in_flight list;
  stall_recent : Flight_ring.event list;
}

type result = {
  config : Config.t;
  cycles : int;
  outcome : Sim.outcome;
  stats : Run_stats.t;
  network_messages : int;
  network_bytes : int;
  violations : int;
  invariant_errors : string list;
  updates_consumed : int;
  updates_wasted : int;
  rac_pressure : int;
  deledc_pressure : int;
  hot_lines : (Types.line * Run_stats.line_activity) list;
  stall : stall_report option;
}

let pp_stall_report ppf r =
  Format.fprintf ppf "@[<v>run ended %a with %d processor(s) unfinished"
    Sim.pp_outcome r.stall_outcome r.stall_unfinished;
  List.iter
    (fun f ->
      Format.fprintf ppf "@,  node %d: %s on line %d@@%d in flight since cycle %d (%d timeouts)"
        f.stalled_node
        (match f.stalled_kind with Types.Load -> "load" | Types.Store -> "store")
        (Types.Layout.index_of_line f.stalled_line)
        (Types.Layout.home_of_line f.stalled_line)
        f.stalled_since f.stalled_timeouts)
    r.stall_in_flight;
  (match r.stall_recent with
  | [] -> ()
  | events ->
      Format.fprintf ppf "@,recent events:";
      List.iter (fun e -> Format.fprintf ppf "@,  %a" Flight_ring.pp_event e) events);
  Format.fprintf ppf "@]"

let run_stream ?max_events (t : t) (feed : Op_stream.t) =
  if feed.Op_stream.nodes <> t.config.nodes then
    invalid_arg "System.run_stream: one program per node required";
  let crashable = Config.crash_capable t.config in
  let remaining = ref t.config.nodes in
  let finished = Array.make t.config.nodes false in
  let finish node_id () =
    if not finished.(node_id) then begin
      finished.(node_id) <- true;
      t.last_finish <- max t.last_finish (Sim.now t.sim);
      decr remaining
    end
  in
  (* Crash mode: a dead incarnation must not keep stepping its program.
     Every stepper continuation is guarded by the incarnation epoch it was
     created under — the crash bump silently retires continuations of the
     previous life — and the op in flight at the crash is re-dispatched
     cold when the node restarts.  The feed is pulled exactly once per op;
     the last pulled op is kept in [cur] so a restart can replay it
     without asking the feed to rewind. *)
  let in_flight_op = Array.make t.config.nodes false in
  let cur = Array.make t.config.nodes Op_stream.end_of_stream in
  let redo = Array.make t.config.nodes false in
  let resume_stepper = Array.make t.config.nodes (fun () -> ()) in
  let guard node_id k =
    if not crashable then k
    else begin
      let node = (adaptive_exn t).(node_id) in
      let epoch = Node.node_epoch node in
      fun () -> if Node.alive node && Node.node_epoch node = epoch then k ()
    end
  in
  for node_id = 0 to t.config.nodes - 1 do
    (* one stepper closure per node, pulling one packed op per step: each
       processor has at most one continuation outstanding, so the feed is
       consulted exactly once per op and no per-op closure is built *)
    let rec step () =
      in_flight_op.(node_id) <- false;
      let packed =
        if redo.(node_id) then begin
          redo.(node_id) <- false;
          cur.(node_id)
        end
        else feed.Op_stream.next node_id
      in
      if packed = Op_stream.end_of_stream then finish node_id ()
      else begin
        cur.(node_id) <- packed;
        in_flight_op.(node_id) <- true;
        let payload = packed asr 2 in
        match packed land 3 with
        | 0 (* compute *) ->
            Sim.schedule t.sim ~delay:(max 0 payload) (guard node_id step)
        | 3 (* barrier *) -> barrier_arrive t node_id payload (guard node_id step)
        | tag (* load/store *) ->
            let kind = if tag = 1 then Types.Load else Types.Store in
            submit t ~node:node_id ~kind ~line:payload ~on_commit:resume
      end
    and resume () =
      in_flight_op.(node_id) <- false;
      Sim.schedule t.sim ~delay:1 (guard node_id step)
    in
    if crashable then
      resume_stepper.(node_id) <-
        (fun () ->
          (* the interrupted op never committed: replay it under the new
             incarnation *)
          if in_flight_op.(node_id) then redo.(node_id) <- true;
          Sim.schedule t.sim ~delay:1 (guard node_id step));
    Sim.schedule t.sim ~delay:0 step
  done;
  if crashable then
    on_crash t (fun ~time:_ ~node ~phase ->
        match phase with
        | Crash_down -> ()
        | Crash_detected ->
            (* a victim that never restarts abandons the rest of its
               program; the run can still drain without it *)
            if Nodeset.mem t.dead_forever node then finish node ()
        | Crash_restarted -> resume_stepper.(node) ());
  let outcome = Sim.run ?max_events t.sim in
  let invariant_errors =
    if !remaining = 0 && outcome = Sim.Drained then check_invariants t
    else
      [
        Printf.sprintf "run did not quiesce: %d processors unfinished (outcome %s)"
          !remaining
          (Format.asprintf "%a" Sim.pp_outcome outcome);
      ]
  in
  let stalled pending_info nodes =
    Array.to_list nodes
    |> List.mapi (fun id node ->
           Option.map
             (fun (kind, line, started, timeouts) ->
               {
                 stalled_node = id;
                 stalled_kind = kind;
                 stalled_line = line;
                 stalled_since = started;
                 stalled_timeouts = timeouts;
               })
             (pending_info node))
    |> List.filter_map Fun.id
  in
  let stall =
    if outcome = Sim.Drained && !remaining = 0 then None
    else
      Some
        {
          stall_outcome = outcome;
          stall_unfinished = !remaining;
          stall_in_flight =
            (match t.backend with
            | Adaptive nodes -> stalled Node.pending_info nodes
            | Snooping nodes -> stalled Snoop.pending_info nodes);
          stall_recent = recent t;
        }
  in
  {
    config = t.config;
    cycles = t.last_finish;
    outcome;
    stats = t.stats;
    network_messages = Network.messages_sent t.network;
    network_bytes = Network.bytes_sent t.network;
    violations = Sc_check.violations (checker t);
    invariant_errors;
    updates_consumed = adaptive_sum t Node.rac_updates_consumed;
    updates_wasted = adaptive_sum t Node.rac_updates_wasted;
    rac_pressure = adaptive_sum t Node.rac_pressure;
    deledc_pressure = adaptive_sum t Node.deledc_pressure;
    hot_lines = Run_stats.top_lines t.stats ~n:10;
    stall;
  }

let run_programs ?max_events (t : t) programs =
  if Array.length programs <> t.config.nodes then
    invalid_arg "System.run_programs: one program per node required";
  run_stream ?max_events t (Op_stream.of_programs programs)

let run ?max_events ~config ~programs () =
  let t = create ~config () in
  run_programs ?max_events t programs

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>%s: %d cycles, %d net msgs, %d KB, remote misses %d (%.1f%%), violations %d%s@]"
    (Config.describe r.config) r.cycles r.network_messages (r.network_bytes / 1024)
    (Run_stats.remote_misses r.stats)
    (100.0 *. Run_stats.remote_miss_fraction r.stats)
    r.violations
    (match r.invariant_errors with
    | [] -> ""
    | errs -> Printf.sprintf ", INVARIANT ERRORS: %d" (List.length errs));
  match r.stall with
  | None -> ()
  | Some stall -> Format.fprintf ppf "@\n%a" pp_stall_report stall
