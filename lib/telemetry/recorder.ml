module Sim = Pcc_engine.Simulator
open Pcc_core

type open_span = {
  o_kind : Types.op_kind;
  o_line : Types.line;
  o_start : int;
  mutable o_phase : Span.phase;
  mutable o_phase_start : int;
  mutable o_segments : Span.segment list;  (* newest first *)
  mutable o_retransmits : int;
}

type recovery = {
  r_victim : Types.node_id;
  r_crash_at : int;
  mutable r_detected_at : int option;
  mutable r_restarted_at : int option;
  r_aborted_txn : bool;
}

let outage_cycles r =
  match (r.r_restarted_at, r.r_detected_at) with
  | Some t, _ | None, Some t -> t - r.r_crash_at
  | None, None -> 0

type sample = {
  s_time : int;
  s_in_flight_txns : int;
  s_delegated_lines : int;
  s_rac_occupancy : int;
  s_event_queue_depth : int;
  s_link_in_flight : int;
  s_network_in_flight : int;
  s_retransmits : int;
}

type t = {
  system : System.t;
  open_spans : open_span option array;
  mutable closed : Span.t list;  (* newest first *)
  mutable closed_count : int;
  mutable recoveries : recovery list;  (* newest first *)
  mutable aborted_spans : int;
  mutable samples : sample list;  (* newest first *)
  mutable sample_count : int;
  mutable next_sample_at : int;
  mutable sample_every : int;  (* doubles on decimation *)
  max_samples : int;
}

let spans t = List.rev t.closed

let span_count t = t.closed_count

let recoveries t = List.rev t.recoveries

let aborted_span_count t = t.aborted_spans

let samples t = List.rev t.samples

(* Halve the retained series, keeping the oldest-aligned every-other
   sample, and double the cadence: the series stays a uniform grid over
   the whole run, so unbounded runs keep bounded artifacts while short
   runs keep full resolution.  Deterministic — no clocks, no randomness —
   so instrumented runs stay bit-identical across hosts. *)
let decimate t =
  let kept, _ =
    List.fold_left
      (fun (acc, i) s -> ((if i land 1 = 0 then s :: acc else acc), i + 1))
      ([], 0) (List.rev t.samples)
  in
  t.samples <- kept;
  t.sample_count <- (t.sample_count + 1) / 2;
  t.sample_every <- t.sample_every * 2

let open_span_count t =
  Array.fold_left (fun acc o -> acc + if o <> None then 1 else 0) 0 t.open_spans

(* Close the running segment at [time] and start a [phase] one.  A
   re-assertion of the current phase is a no-op; zero-length segments are
   elided (the next segment starts at the same cycle, so the tiling of
   [start, finish] is preserved). *)
let set_phase o ~time phase =
  if o.o_phase <> phase then begin
    if time > o.o_phase_start then
      o.o_segments <-
        { Span.phase = o.o_phase; seg_start = o.o_phase_start; seg_end = time }
        :: o.o_segments;
    o.o_phase <- phase;
    o.o_phase_start <- time
  end

(* The open span of [node] provided it is on [line] (a node has at most
   one outstanding transaction, so node + line identify it). *)
let matching t node line =
  if node < 0 || node >= Array.length t.open_spans then None
  else
    match t.open_spans.(node) with
    | Some o when o.o_line = line -> Some o
    | Some _ | None -> None

let on_issue t ~time ~node ~kind ~line =
  t.open_spans.(node) <-
    Some
      {
        o_kind = kind;
        o_line = line;
        o_start = time;
        o_phase = Span.Local;
        o_phase_start = time;
        o_segments = [];
        o_retransmits = 0;
      }

(* Send-side transitions: requests leaving the requester, interventions
   and replies leaving their servers. *)
let on_send t ~time ~src ~dst (msg : Message.t) =
  match msg with
  | Get_shared { line; _ } | Get_exclusive { line; _ } -> (
      match matching t src line with
      | Some o -> set_phase o ~time Span.Req_net
      | None -> ())
  | Intervention { line; requester; _ }
  | Transfer { line; requester; _ }
  | Recall { line; requester; _ } -> (
      match matching t requester line with
      | Some o -> set_phase o ~time Span.Intervention
      | None -> ())
  | Data_shared { line; _ } | Data_exclusive { line; _ } | Delegate { line; _ }
  | Nack { line; _ } -> (
      match matching t dst line with
      | Some o -> set_phase o ~time Span.Reply_net
      | None -> ())
  | Update { line; _ } -> (
      (* §2.4.3: an update overtaking an in-flight read serves as its
         reply *)
      match matching t dst line with
      | Some o when o.o_kind = Types.Load -> set_phase o ~time Span.Reply_net
      | Some _ | None -> ())
  | Inval { line; requester } -> (
      (* local-upgrade path: the writer itself fans out invalidations and
         immediately starts collecting acks *)
      match matching t requester line with
      | Some o when requester = src && o.o_kind = Types.Store ->
          set_phase o ~time Span.Ack_collect
      | Some _ | None -> ())
  | Bus_rd { line; _ } | Bus_rdx { line; _ } | Bus_upgr { line; _ } -> (
      (* bus command leaving the arbitration winner *)
      match matching t src line with
      | Some o -> set_phase o ~time Span.Req_net
      | None -> ())
  | Bus_flush { line; requester; _ } -> (
      (* cache-to-cache data heading back to the requester *)
      match matching t requester line with
      | Some o -> set_phase o ~time Span.Reply_net
      | None -> ())
  | Fwd_get_shared _ | New_home _ | Writeback _ | Writeback_ack _ | Inv_ack _
  | Shared_writeback _ | Transfer_ack _ | Recall_nack _ | Undelegate _
  | Update_flush _ | Update_flush_ack _ | Snoop_resp _ | Bus_wb _ | Bus_wb_ack _ ->
      ()

(* Receive-side transitions: the request reaching its server, the reply
   (or NACK) reaching the requester. *)
let on_recv t ~time ~src ~dst (msg : Message.t) =
  match msg with
  | Get_shared { line; _ } | Get_exclusive { line; _ } -> (
      match matching t src line with
      | Some o -> set_phase o ~time Span.Dir_service
      | None -> ())
  | Fwd_get_shared { line; requester; _ } -> (
      match matching t requester line with
      | Some o -> set_phase o ~time Span.Dir_service
      | None -> ())
  | Nack { line; _ } -> (
      match matching t dst line with
      | Some o -> set_phase o ~time Span.Backoff
      | None -> ())
  | Data_exclusive { line; _ } | Delegate { line; _ } | Inv_ack { line } -> (
      match matching t dst line with
      | Some o when o.o_kind = Types.Store -> set_phase o ~time Span.Ack_collect
      | Some _ | None -> ())
  (* a Data_shared/Update reply commits its load within the same event:
     Reply_net runs to the commit *)
  | Bus_rd { line; _ } | Bus_rdx { line; _ } | Bus_upgr { line; _ } -> (
      (* the command reaching a snooper: servicing has begun *)
      match matching t src line with
      | Some o -> set_phase o ~time Span.Dir_service
      | None -> ())
  | Snoop_resp { line; _ } -> (
      match matching t dst line with
      | Some o -> set_phase o ~time Span.Ack_collect
      | None -> ())
  | Data_shared _ | Update _ | Intervention _ | Transfer _ | Inval _ | New_home _
  | Writeback _ | Writeback_ack _ | Shared_writeback _ | Transfer_ack _ | Recall _
  | Recall_nack _ | Undelegate _ | Update_flush _ | Update_flush_ack _
  | Bus_flush _ | Bus_wb _ | Bus_wb_ack _ ->
      ()

let on_retransmit t ~time:_ ~src ~dst:_ =
  match t.open_spans.(src) with
  | Some o -> o.o_retransmits <- o.o_retransmits + 1
  | None -> ()

let on_commit t (e : Probe.commit_event) =
  match t.open_spans.(e.c_node) with
  | Some o when o.o_line = e.c_line && o.o_kind = e.c_kind ->
      t.open_spans.(e.c_node) <- None;
      let segments =
        if e.c_time > o.o_phase_start then
          { Span.phase = o.o_phase; seg_start = o.o_phase_start; seg_end = e.c_time }
          :: o.o_segments
        else o.o_segments
      in
      let span =
        {
          Span.node = e.c_node;
          kind = e.c_kind;
          line = e.c_line;
          start = o.o_start;
          finish = e.c_time;
          l2_hit = e.c_miss = None;
          miss = e.c_miss;
          segments = List.rev segments;
          retransmits = o.o_retransmits;
        }
      in
      t.closed <- span :: t.closed;
      t.closed_count <- t.closed_count + 1
  | Some _ | None -> () (* attached mid-run; no span was opened *)

(* Fail-stop crash life cycle.  The victim's open span (if any) can
   never commit — its pending state died with the node — so it is
   aborted rather than left dangling; the post-restart re-submission
   opens a fresh span.  Each crash yields one recovery record whose
   detection/restart marks are filled in as the later phases fire. *)
let on_crash_event t ~time ~node ~phase =
  match (phase : System.crash_phase) with
  | System.Crash_down ->
      let aborted = t.open_spans.(node) <> None in
      if aborted then begin
        t.open_spans.(node) <- None;
        t.aborted_spans <- t.aborted_spans + 1
      end;
      t.recoveries <-
        {
          r_victim = node;
          r_crash_at = time;
          r_detected_at = None;
          r_restarted_at = None;
          r_aborted_txn = aborted;
        }
        :: t.recoveries
  | System.Crash_detected -> (
      match
        List.find_opt
          (fun r -> r.r_victim = node && r.r_detected_at = None)
          t.recoveries
      with
      | Some r -> r.r_detected_at <- Some time
      | None -> ())
  | System.Crash_restarted -> (
      match
        List.find_opt
          (fun r -> r.r_victim = node && r.r_restarted_at = None)
          t.recoveries
      with
      | Some r -> r.r_restarted_at <- Some time
      | None -> ())

let take_sample t =
  let sys = t.system in
  {
    s_time = Sim.now (System.sim sys);
    s_in_flight_txns = System.in_flight_txns sys;
    s_delegated_lines = System.delegated_lines sys;
    s_rac_occupancy = System.rac_occupancy sys;
    s_event_queue_depth = System.event_queue_depth sys;
    s_link_in_flight = System.link_in_flight sys;
    s_network_in_flight = System.network_in_flight sys;
    s_retransmits = (System.stats sys).Run_stats.retransmits;
  }

let attach ?(sample_every = 0) ?(max_samples = 4096) system =
  let t =
    {
      system;
      open_spans = Array.make (System.config system).Config.nodes None;
      closed = [];
      closed_count = 0;
      recoveries = [];
      aborted_spans = 0;
      samples = [];
      sample_count = 0;
      next_sample_at = 0;
      sample_every;
      max_samples = max 2 max_samples;
    }
  in
  System.on_issue system (fun ~time ~node ~kind ~line ->
      on_issue t ~time ~node ~kind ~line);
  System.on_message system (fun ~time ~src ~dst msg -> on_send t ~time ~src ~dst msg);
  System.on_recv system (fun ~time ~src ~dst msg -> on_recv t ~time ~src ~dst msg);
  System.on_retransmit system (fun ~time ~src ~dst -> on_retransmit t ~time ~src ~dst);
  System.on_commit system (fun e -> on_commit t e);
  System.on_crash system (fun ~time ~node ~phase -> on_crash_event t ~time ~node ~phase);
  if sample_every > 0 then begin
    (* A self-rescheduling sampler event would keep the queue from ever
       draining, so sampling piggybacks on executed events instead: the
       first event at or past the deadline takes the sample.  Pure
       observation — the event schedule is untouched. *)
    let sim = System.sim system in
    System.on_post_event system (fun () ->
        let now = Sim.now sim in
        if now >= t.next_sample_at then begin
          t.samples <- take_sample t :: t.samples;
          t.sample_count <- t.sample_count + 1;
          if t.sample_count >= t.max_samples then decimate t;
          t.next_sample_at <- now + t.sample_every
        end)
  end;
  t

let retransmits_by_link t = System.retransmits_by_link t.system
