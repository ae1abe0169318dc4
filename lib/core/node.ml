module Sim = Pcc_engine.Simulator
module Producer = Delegate_cache.Producer
module Consumer = Delegate_cache.Consumer

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

type deferred =
  | D_intervention of Types.node_id * int  (* requester, tid *)
  | D_transfer of Types.node_id * int

(* One outstanding processor transaction.  [target] is where the current
   attempt was sent; [reply_src] who granted it — together they classify
   the miss by network legs.  [deferred] holds interventions that arrived
   between the exclusive grant and the store commit. *)
type pending = {
  kind : Types.op_kind;
  line : Types.line;
  started : int;
  tid : int;  (* MSHR tag echoed by replies; stale replies are dropped *)
  on_commit : unit -> unit;
  mutable timeouts : int;  (* completion-timeout expiries (hardened mode) *)
  mutable target : Types.node_id;
  mutable reply_src : Types.node_id;
  mutable acks_needed : int;
  mutable ack_waiters : Nodeset.t;
      (* crash-capable machines: the exact invalidation debtors behind
         [acks_needed], so recovery can credit a dead debtor's ack and a
         stale ack cannot over-credit *)
  mutable early_acks : Nodeset.t;
      (* crash-capable machines: invalidation acks that beat the grant
         that names their senders as debtors (the home invalidates
         sharers in parallel with granting); counting relies on going
         negative, sets must remember the senders instead *)
  mutable have_data : bool;
  mutable poisoned : bool;
      (* an invalidation overtook this load: commit without caching *)
  mutable miss_override : Types.miss_class option;
  mutable deferred : deferred list;
}

type after_busy =
  | No_recall
  | Undelegate_plain  (* home holds the pending requester (Recall path) *)
  | Undelegate_with of (Types.node_id * Types.op_kind * int)

type prod_state = P_shared | P_excl | P_busy

(* Delegated directory state held in the producer table (the DirEntry of
   Fig. 3 plus the speculative-update bookkeeping of §2.4.2). *)
type prod_entry = {
  mutable pstate : prod_state;
  mutable psharers : Nodeset.t;  (* current sharing vector (includes self) *)
  mutable update_set : Nodeset.t;  (* previous epoch's consumers *)
  mutable last_write : int;
  mutable burst_start : int;  (* first write of the current epoch *)
  mutable burst_span_ewma : int;  (* adaptive-delay estimate of burst length *)
  mutable intervention_scheduled : bool;
  mutable after_busy : after_busy;
  mutable unflushed : Nodeset.t;  (* targets pushed since the last flush *)
  mutable last_push : int;  (* cycle of the most recent push *)
  mutable flush_acks : int;  (* flush round trips outstanding *)
  mutable flush_waiters : Nodeset.t;
      (* the targets of the outstanding flush round: [flush_acks] alone
         cannot identify a dead flush target during crash recovery *)
}

type t = {
  config : Config.t;
  sim : Sim.t;
  probe : Probe.t;  (* the machine's event sink and flight recorder *)
  hub : Message.t Hub_link.t;
  id : Types.node_id;
  stats : Run_stats.t;
  next_version : unit -> int;
  rng : Pcc_engine.Rng.t;
  crashable : bool;  (* the fault profile schedules fail-stop crashes *)
  alive_view : bool array;
      (* machine-wide aliveness, shared by every node (all true without
         crashes); flips at crash/restart time, not detection time *)
  l2 : L2.t;
  rac : Rac.t option;
  dir : Directory.t;
  producer_table : prod_entry Producer.t option;
  consumer_table : Consumer.t option;
  dram : Pcc_memory.Dram.t;
  params : Predictor.params;
  wb_pending : (Types.line, unit) Hashtbl.t;
      (* lines with an unacknowledged writeback in flight *)
  strikes : (Types.line, int) Hashtbl.t;
      (* completion-timeout strikes per line (hardened mode) *)
  fallback_lines : (Types.line, unit) Hashtbl.t;
      (* lines demoted to the base protocol: no delegation, no updates *)
  class_cells : int ref option array;
      (* cached [stats.message_classes] cells, indexed by
         [Message.class_index]; filled lazily so untouched classes never
         appear in reports, then bumped without hashing the class name *)
  mutable deledc_pressure : int;
      (* delegate-cache capacity events (producer victims, locked-set
         refusals, consumer-hint evictions): zero means a larger delegate
         cache would have run identically (bench dedup) *)
  mutable next_tid : int;
  mutable pending : pending option;
  mutable alive : bool;
  mutable node_epoch : int;  (* incarnation count, mirrors the network's *)
}

let id t = t.id

let busy t = t.pending <> None

(* Protocol decision points, recorded straight into the flight ring. *)
let note t ~code ~line ~arg = Probe.note t.probe ~node:t.id ~code ~line ~arg

let directory t = t.dir

let home_of line = Types.Layout.home_of_line line

(* Every home-directory state change funnels through here so the flight
   recorder sees line state transitions. *)
let set_dstate t line (entry : Directory.entry) st =
  entry.state <- st;
  note t ~code:Flight_ring.n_dir_state ~line ~arg:(Flight_ring.dstate_code st)

let find_producer t line =
  match t.producer_table with Some table -> Producer.find table line | None -> None

(* Undelegation skips its update-flush round when the last push is
   older than this many cycles: a safe shortcut on an interconnect with
   bounded delivery latency (set very conservatively; the model checker
   verifies the unconditional-flush protocol). *)
let flush_window = 2000

(* Undelegation must be fenced while pushed updates may still be in
   flight (a stale straggler could outlive the next writer's
   invalidations).  Pushes older than the flush window have certainly
   been delivered on this bounded-latency interconnect, so their targets
   age out without a flush round. *)
let fence_needed t entry =
  (* the aging shortcut is sound only on a reliable, bounded-latency
     interconnect; under fault injection delivery latency is unbounded,
     so every undelegation takes the full flush round *)
  if
    (not (Config.hardened t.config))
    && (not (Nodeset.is_empty entry.unflushed))
    && Sim.now t.sim - entry.last_push > flush_window
  then entry.unflushed <- Nodeset.empty;
  (not (Nodeset.is_empty entry.unflushed)) || entry.flush_acks > 0

(* A producer entry may not be evicted (capacity-undelegated) while it is
   mid-transaction or while an undelegation fence is pending. *)
let refresh_entry_lock t line entry =
  match t.producer_table with
  | None -> ()
  | Some table ->
      if entry.pstate = P_busy || fence_needed t entry then Producer.lock table line
      else Producer.unlock table line


(* Adaptive intervention (§5 future work): downgrade shortly after the
   line's typical write-burst span instead of a fixed delay. *)
let effective_intervention_delay t entry =
  if t.config.adaptive_intervention then
    max 10 (min 2000 (entry.burst_span_ewma + 25))
  else t.config.intervention_delay

(* ------------------------------------------------------------------ *)
(* Messaging and timing helpers                                        *)
(* ------------------------------------------------------------------ *)

let send t ~dst msg =
  Probe.send t.probe ~src:t.id ~dst msg;
  if dst <> t.id then begin
    let idx = Message.class_index msg in
    let cell =
      match Array.unsafe_get t.class_cells idx with
      | Some cell -> cell
      | None ->
          let cell =
            Pcc_stats.Counter.cell t.stats.message_classes (Message.class_name msg)
          in
          t.class_cells.(idx) <- Some cell;
          cell
    in
    cell := !cell + 1
  end;
  Hub_link.send t.hub ~dst
    ~bytes:(Message.wire_bytes ~line_bytes:t.config.line_bytes msg)
    msg

let peer_alive t node = Array.get t.alive_view node

(* Every protocol timer and delayed send goes through [sched]: on a
   crash-capable machine a closure armed by a previous incarnation of
   this node (or while it was up, for a node now down) must not fire —
   it would resurrect pre-crash transactions or commit zombie operations.
   Without crashes this is exactly [Sim.schedule]. *)
let sched t ~delay f =
  if not t.crashable then Sim.schedule t.sim ~delay f
  else begin
    let epoch = t.node_epoch in
    Sim.schedule t.sim ~delay (fun () -> if t.alive && t.node_epoch = epoch then f ())
  end

let send_after t ~delay ~dst msg =
  if delay <= 0 then send t ~dst msg
  else sched t ~delay (fun () -> send t ~dst msg)
let dir_access t line =
  let access = Directory.access t.dir line in
  if access.dir_cache_hit then t.stats.dir_cache_hits <- t.stats.dir_cache_hits + 1
  else t.stats.dir_cache_misses <- t.stats.dir_cache_misses + 1;
  access

let dram_delay t =
  let now = Sim.now t.sim in
  Pcc_memory.Dram.access t.dram ~now - now

(* ------------------------------------------------------------------ *)
(* L2 fills and evictions                                              *)
(* ------------------------------------------------------------------ *)

let handle_victim t = function
  | None -> ()
  | Some L2.{ victim_line = line; victim_entry = entry } -> (
      match entry.state with
      | L2.Exclusive -> (
          match (find_producer t line, t.rac) with
          | Some _, Some rac ->
              (* delegated line: the pinned RAC entry is its local memory *)
              if not (Rac.write rac line ~value:entry.value) then
                ignore (Rac.fill rac line ~value:entry.value ~origin:Rac.Delegated)
          | Some _, None -> assert false (* delegation requires a RAC *)
          | None, _ ->
              t.stats.writebacks <- t.stats.writebacks + 1;
              Hashtbl.replace t.wb_pending line ();
              send t ~dst:(home_of line) (Writeback { line; value = entry.value }))
      | L2.Shared -> (
          match t.rac with
          | Some rac when home_of line <> t.id ->
              ignore (Rac.fill rac line ~value:entry.value ~origin:Rac.Victim)
          | Some _ | None -> ()))

let fill_l2 t line entry = handle_victim t (L2.fill t.l2 line entry)

(* ------------------------------------------------------------------ *)
(* Speculative updates: downgrade + push (§2.4)                        *)
(* ------------------------------------------------------------------ *)

(* Downgrade the producer's exclusive copy into the RAC and push the new
   data to the previous epoch's consumers.  [exclude] is a consumer being
   served an ordinary data reply right now. *)
let downgrade_and_push t line entry ~exclude =
  (match L2.peek t.l2 line with
  | Some L2.{ state = Exclusive; value; _ } -> (
      L2.set t.l2 line L2.{ state = Shared; value; dirty = false };
      match t.rac with
      | Some rac ->
          if not (Rac.write rac line ~value) then
            ignore (Rac.fill rac line ~value ~origin:Rac.Delegated)
      | None -> assert false)
  | Some L2.{ state = Shared; _ } | None -> () (* data already in the RAC *));
  entry.pstate <- P_shared;
  (* Crash-capable machines: the delegated value escapes to home memory
     at every downgrade, so a later producer crash cannot lose a value
     survivors already observed (the home's Dele entry applies it
     monotonically). *)
  (if t.crashable then
     match t.rac with
     | Some rac -> (
         match Rac.peek rac line with
         | Some value ->
             send t ~dst:(home_of line)
               (Shared_writeback { line; value; new_sharer = t.id })
         | None -> ())
     | None -> ());
  if t.config.speculative_updates && not (Hashtbl.mem t.fallback_lines line) then begin
    let value =
      match t.rac with
      | Some rac -> ( match Rac.peek rac line with Some v -> v | None -> assert false)
      | None -> assert false
    in
    let targets = Nodeset.remove entry.update_set t.id in
    let targets =
      match exclude with Some node -> Nodeset.remove targets node | None -> targets
    in
    Nodeset.iter
      (fun consumer ->
        t.stats.updates_sent <- t.stats.updates_sent + 1;
        send t ~dst:consumer (Update { line; value }))
      targets;
    (* pushed nodes hold fresh copies again: they rejoin the sharing
       vector so the next write invalidates their RACs *)
    (match t.config.inject_fault with
    | Some Config.Stale_update_no_resharing -> ()
    | Some Config.Snoop_upgr_skips_invals | None ->
        entry.psharers <- Nodeset.union entry.psharers targets);
    if not (Nodeset.is_empty targets) then begin
      entry.unflushed <- Nodeset.union entry.unflushed targets;
      entry.last_push <- Sim.now t.sim
    end;
    refresh_entry_lock t line entry
  end;
  let span = max 0 (entry.last_write - entry.burst_start) in
  entry.burst_span_ewma <- ((3 * entry.burst_span_ewma) + span) / 4;
  match exclude with
  | Some node -> entry.psharers <- Nodeset.add entry.psharers node
  | None -> ()

let rec schedule_intervention t line entry =
  if
    t.config.speculative_updates && (not entry.intervention_scheduled)
    && t.config.intervention_delay < max_int / 2
  then begin
    entry.intervention_scheduled <- true;
    sched t
      ~delay:(effective_intervention_delay t entry)
      (fun () -> intervention_fires t line)
  end

and intervention_fires t line =
  match find_producer t line with
  | None -> () (* undelegated meanwhile *)
  | Some entry ->
      entry.intervention_scheduled <- false;
      if entry.pstate = P_excl then begin
        let delay = effective_intervention_delay t entry in
        let idle = Sim.now t.sim - entry.last_write in
        if idle < delay then begin
          (* the write burst is still running; wait for it to go quiet *)
          entry.intervention_scheduled <- true;
          sched t ~delay:(delay - idle) (fun () -> intervention_fires t line)
        end
        else downgrade_and_push t line entry ~exclude:None
      end

(* ------------------------------------------------------------------ *)
(* Undelegation (§2.3.3)                                               *)
(* ------------------------------------------------------------------ *)

(* Give the line back to its home: downgrade local copies, ship the
   current contents and sharing vector.  The producer-table entry must
   already be detached by the caller. *)
let undelegate_common t line entry ~pending =
  let l2_state = L2.peek t.l2 line in
  let value =
    match l2_state with
    | Some L2.{ state = Exclusive; value; _ } ->
        L2.set t.l2 line L2.{ state = Shared; value; dirty = false };
        value
    | Some L2.{ value; _ } -> value
    | None -> (
        match t.rac with
        | Some rac -> ( match Rac.peek rac line with Some v -> v | None -> assert false)
        | None -> assert false)
  in
  (match t.rac with
  | Some rac ->
      (* the pinned backing copy is stale while the producer held the line
         exclusively: refresh it before it becomes an ordinary victim copy *)
      ignore (Rac.write rac line ~value);
      Rac.unpin rac line
  | None -> ());
  let self_copy = l2_state <> None || (match t.rac with Some r -> Rac.contains r line | None -> false) in
  let sharers =
    if self_copy then Nodeset.add entry.psharers t.id
    else Nodeset.remove entry.psharers t.id
  in
  t.stats.undelegations <- t.stats.undelegations + 1;
  Run_stats.note_churn t.stats ~line;
  note t ~code:Flight_ring.n_undelegate ~line ~arg:0;
  send t ~dst:(home_of line)
    (Undelegate { line; sharers; owner = None; value = Some value; pending })

let do_undelegate t line entry ~pending =
  (match t.producer_table with
  | Some table -> ignore (Producer.remove table line)
  | None -> assert false);
  undelegate_common t line entry ~pending

(* Victim already evicted from the producer table by an insert. *)
let undelegate_victim t line entry = undelegate_common t line entry ~pending:None

(* Begin (or continue) the flush round: a marker chases the pushed
   updates down their FIFO channels; acks mean they all landed.  On a
   crash-capable machine only live targets are waited for (a flush
   toward a node already known dead would never be acknowledged), and
   the debtor set is recorded so recovery can credit a target that dies
   mid-round. *)
let rec start_flush t line entry =
  if entry.flush_acks = 0 && not (Nodeset.is_empty entry.unflushed) then begin
    let targets =
      if t.crashable then Nodeset.filter (fun c -> peer_alive t c) entry.unflushed
      else entry.unflushed
    in
    entry.unflushed <- Nodeset.empty;
    entry.flush_acks <- Nodeset.cardinal targets;
    entry.flush_waiters <- targets;
    Nodeset.iter (fun c -> send t ~dst:c (Update_flush { line })) targets;
    refresh_entry_lock t line entry;
    (* every target may already be dead: the round completes on the spot *)
    if entry.flush_acks = 0 then flush_round_done t line entry
  end

and flush_round_done t line entry =
  if entry.pstate <> P_busy then
    if fence_needed t entry then
      (* more updates were pushed while flushing: chase them too *)
      start_flush t line entry
    else
      match entry.after_busy with
      | No_recall -> ()
      | Undelegate_plain ->
          entry.after_busy <- No_recall;
          do_undelegate t line entry ~pending:None
      | Undelegate_with request ->
          entry.after_busy <- No_recall;
          do_undelegate t line entry ~pending:(Some request)

and flush_ack_credit t line entry =
  if entry.flush_acks > 0 then begin
    entry.flush_acks <- entry.flush_acks - 1;
    refresh_entry_lock t line entry;
    if entry.flush_acks = 0 then flush_round_done t line entry
  end

(* ------------------------------------------------------------------ *)
(* Graceful degradation (hardened mode)                                *)
(* ------------------------------------------------------------------ *)

(* A completion timeout records a strike against the line.  Past the
   configured threshold the node stops trusting the optimized path for
   it: the consumer hint is dropped, future delegation offers are
   refused, speculative updates stop, and — if this node is the line's
   delegated home — the line is given back, falling back to the
   verified base 3-hop protocol. *)
let force_fallback t line =
  if not (Hashtbl.mem t.fallback_lines line) then begin
    Hashtbl.replace t.fallback_lines line ();
    t.stats.fallbacks <- t.stats.fallbacks + 1;
    note t ~code:Flight_ring.n_fallback ~line ~arg:0;
    (match t.consumer_table with
    | Some table -> Consumer.remove table line
    | None -> ());
    match find_producer t line with
    | None -> ()
    | Some entry ->
        if entry.pstate = P_busy || fence_needed t entry then begin
          (match entry.after_busy with
          | No_recall -> entry.after_busy <- Undelegate_plain
          | Undelegate_plain | Undelegate_with _ -> ());
          if entry.pstate <> P_busy then start_flush t line entry
        end
        else do_undelegate t line entry ~pending:None
  end

let note_strike t line =
  let strikes =
    (match Hashtbl.find_opt t.strikes line with Some n -> n | None -> 0) + 1
  in
  Hashtbl.replace t.strikes line strikes;
  if strikes >= t.config.fallback_threshold then force_fallback t line

(* ------------------------------------------------------------------ *)
(* Miss classification                                                 *)
(* ------------------------------------------------------------------ *)

let classify_legs t ~target ~reply_src =
  let legs =
    (if target <> t.id then 1 else 0)
    + (if reply_src <> target then 1 else 0)
    + (if reply_src <> t.id then 1 else 0)
  in
  if legs = 0 then Types.Local_mem
  else if legs <= 2 then Types.Remote_2hop
  else Types.Remote_3hop

(* A write that triggered invalidations completes only after acks arrive
   from the sharers: requester -> home -> sharers -> requester is the
   3-hop pattern of Fig. 1 (2-hop when the home is local). *)
let ack_collection_class t p ~acks_expected =
  if acks_expected > 0 && p.miss_override = None then
    p.miss_override <-
      Some (if p.target = t.id then Types.Remote_2hop else Types.Remote_3hop)

(* ------------------------------------------------------------------ *)
(* Transaction commit                                                  *)
(* ------------------------------------------------------------------ *)

let commit_load t p ~value ~miss =
  let now = Sim.now t.sim in
  if not p.poisoned then
    fill_l2 t p.line L2.{ state = Shared; value; dirty = false };
  Run_stats.record_miss t.stats miss ~line:p.line ~latency:(now - p.started);
  t.pending <- None;
  Probe.commit t.probe ~node:t.id ~kind:Types.Load ~line:p.line ~value
    ~started:p.started ~miss:(Some miss);
  p.on_commit ()

(* Producer bookkeeping common to store commits and exclusive store hits:
   re-arm the delayed intervention and run any postponed undelegation. *)
let note_producer_write t line =
  match find_producer t line with
  | None -> ()
  | Some entry -> (
      if entry.pstate = P_busy then entry.burst_start <- Sim.now t.sim;
      entry.pstate <- P_excl;
      refresh_entry_lock t line entry;
      entry.last_write <- Sim.now t.sim;
      schedule_intervention t line entry;
      (* a postponed undelegation runs only once the update flush has
         completed (see Update_flush) *)
      if entry.after_busy <> No_recall then flush_round_done t line entry)

let rec commit_store t p =
  let now = Sim.now t.sim in
  let version = t.next_version () in
  (* gaining exclusivity invalidates any stale private RAC copy; a
     delegated line instead keeps its pinned RAC backing entry *)
  (match (t.rac, find_producer t p.line) with
  | Some rac, None -> Rac.invalidate rac p.line
  | Some _, Some _ | None, _ -> ());
  fill_l2 t p.line L2.{ state = Exclusive; value = version; dirty = true };
  let miss =
    match p.miss_override with
    | Some m -> m
    | None -> classify_legs t ~target:p.target ~reply_src:p.reply_src
  in
  Run_stats.record_miss t.stats miss ~line:p.line ~latency:(now - p.started);
  t.pending <- None;
  Probe.commit t.probe ~node:t.id ~kind:Types.Store ~line:p.line ~value:version
    ~started:p.started ~miss:(Some miss);
  note_producer_write t p.line;
  List.iter
    (fun d ->
      match d with
      | D_intervention (requester, tid) ->
          handle_intervention_now t p.line ~requester ~tid
      | D_transfer (requester, tid) -> handle_transfer_now t p.line ~requester ~tid)
    (List.rev p.deferred);
  p.on_commit ()

and try_complete_store t p =
  if p.have_data && p.acks_needed <= 0 then commit_store t p

(* ------------------------------------------------------------------ *)
(* Owner-side interventions                                            *)
(* ------------------------------------------------------------------ *)

and handle_intervention_now t line ~requester ~tid =
  match L2.peek t.l2 line with
  | Some L2.{ state = Exclusive; value; _ } ->
      L2.set t.l2 line L2.{ state = Shared; value; dirty = false };
      send t ~dst:requester (Data_shared { line; value; source_is_home = false; tid });
      send t ~dst:(home_of line)
        (Shared_writeback { line; value; new_sharer = requester })
  | Some L2.{ state = Shared; value; _ } ->
      send t ~dst:requester (Data_shared { line; value; source_is_home = false; tid });
      send t ~dst:(home_of line)
        (Shared_writeback { line; value; new_sharer = requester })
  | None -> () (* our writeback is in flight; the home resolves the race *)

and handle_transfer_now t line ~requester ~tid =
  match L2.invalidate t.l2 line with
  | Some L2.{ value; _ } ->
      (match t.rac with Some rac -> Rac.invalidate rac line | None -> ());
      send t ~dst:requester
        (Data_exclusive
           { line; value; acks_expected = 0; sharers = Nodeset.empty; tid });
      (* crash-capable machines: the value rides the ack so home memory
         can catch up — the new owner may die before writing back *)
      send t ~dst:(home_of line)
        (Transfer_ack
           {
             line;
             new_owner = requester;
             value = (if t.crashable then Some value else None);
           })
  | None -> () (* writeback race; the home resolves it *)

(* ------------------------------------------------------------------ *)
(* Requester side: attempts and retries                                *)
(* ------------------------------------------------------------------ *)

(* Register invalidation debt for a store grant.  Crash-capable machines
   track the precise debtor set: sharers already known dead are not
   waited for, and an acknowledgement later counts only if its sender is
   still owed — a dead consumer's in-flight ack must not complete the
   store while a live consumer still holds a stale copy. *)
let add_ack_debt t p ~sharers ~acks_expected =
  if not t.crashable then p.acks_needed <- p.acks_needed + acks_expected
  else begin
    let live = Nodeset.filter (fun node -> peer_alive t node) sharers in
    let owed = Nodeset.diff live p.early_acks in
    p.early_acks <- Nodeset.empty;
    p.ack_waiters <- Nodeset.union p.ack_waiters owed;
    p.acks_needed <- p.acks_needed + Nodeset.cardinal owed
  end

let rec start_attempt t p =
  let line = p.line in
  match p.kind with
  | Types.Load -> (
      let rac_value =
        match t.rac with Some rac -> Rac.lookup rac line | None -> None
      in
      match rac_value with
      | Some value ->
          sched t ~delay:t.config.rac_hit_latency (fun () ->
              match t.pending with
              | Some q when q == p -> commit_load t q ~value ~miss:Types.Rac_hit
              | _ -> ())
      | None ->
          let target = resolve_target t line in
          p.target <- target;
          send t ~dst:target (Get_shared { line; tid = p.tid }))
  | Types.Store -> (
      match find_producer t line with
      | Some entry -> start_local_upgrade t p entry
      | None ->
          let target = resolve_target t line in
          p.target <- target;
          send t ~dst:target (Get_exclusive { line; tid = p.tid }))

and resolve_target t line =
  let home = home_of line in
  if home = t.id then home
  else
    match t.consumer_table with
    | Some table -> (
        match Consumer.find table line with Some node -> node | None -> home)
    | None -> home

(* The producer writing a line it is the delegated home of: the whole
   directory transaction is local; only invalidations and their acks
   cross the network (the "2-hop write" of §2.3). *)
and start_local_upgrade t p entry =
  let line = p.line in
  match entry.pstate with
  | P_busy -> assert false (* the blocking processor is the only writer *)
  | P_excl ->
      (* exclusivity already held (L2 copy was evicted; data is in the
         pinned RAC entry) *)
      p.have_data <- true;
      p.acks_needed <- 0;
      p.miss_override <- Some Types.Rac_hit;
      sched t ~delay:t.config.rac_hit_latency (fun () ->
          match t.pending with Some q when q == p -> try_complete_store t q | _ -> ())
  | P_shared ->
      let consumers = Nodeset.remove entry.psharers t.id in
      let n = Nodeset.cardinal consumers in
      if n > 0 then Pcc_stats.Histogram.observe t.stats.consumer_hist n;
      entry.update_set <- consumers;
      entry.psharers <- Nodeset.singleton t.id;
      entry.pstate <- P_busy;
      (match t.producer_table with
      | Some table -> Producer.lock table line
      | None -> assert false);
      p.have_data <- true;
      add_ack_debt t p ~sharers:consumers ~acks_expected:n;
      p.miss_override <- Some (if n = 0 then Types.Rac_hit else Types.Remote_2hop);
      if p.acks_needed = 0 then
        (* every consumer may already be dead (crash mode): complete
           after the local-upgrade latency, with no acks to collect *)
        sched t ~delay:t.config.hub_latency (fun () ->
            match t.pending with
            | Some q when q == p -> try_complete_store t q
            | _ -> ())
      else
        Nodeset.iter
          (fun consumer ->
            t.stats.invals_sent <- t.stats.invals_sent + 1;
            Run_stats.note_inval t.stats ~line;
            send_after t ~delay:t.config.hub_latency ~dst:consumer
              (Inval { line; requester = t.id }))
          consumers

and schedule_retry t p =
  t.stats.retries <- t.stats.retries + 1;
  let jitter = Pcc_engine.Rng.int t.rng ~bound:16 in
  sched t ~delay:(t.config.nack_retry_delay + jitter) (fun () ->
      match t.pending with
      | Some q when q == p && not q.have_data -> start_attempt t q
      | _ -> () (* committed, superseded, or granted while the retry waited *))

(* ------------------------------------------------------------------ *)
(* Home-side request handling                                          *)
(* ------------------------------------------------------------------ *)

(* Is the requester recorded in a Busy entry still the incarnation that
   issued the request?  A requester that crashed — even if it restarted
   since, with a bumped epoch — must not be granted: the grant would
   name an owner that no longer holds (or expects) the line. *)
let requester_current t (entry : Directory.entry) =
  (not t.crashable)
  || ((not (Hub_link.peer_down t.hub ~peer:entry.requester))
     && Hub_link.peer_epoch t.hub ~peer:entry.requester = entry.requester_epoch)

(* Stamp the requester's incarnation into a freshly set Busy state. *)
let stamp_requester t (entry : Directory.entry) =
  if t.crashable then
    entry.requester_epoch <- Hub_link.peer_epoch t.hub ~peer:entry.requester

let rec home_get_shared t ~src ~tid line =
  let access = dir_access t line in
  let entry = Directory.entry t.dir line in
  match entry.state with
  | Directory.Unowned | Directory.Shared_s ->
      let unique = not (Nodeset.mem entry.sharers src) in
      Predictor.record_read t.params access.predictor ~reader:src ~unique;
      set_dstate t line entry Directory.Shared_s;
      entry.sharers <- Nodeset.add entry.sharers src;
      send_after t
        ~delay:(access.latency + dram_delay t)
        ~dst:src
        (Data_shared { line; value = entry.mem_value; source_is_home = true; tid })
  | Directory.Excl ->
      if entry.owner = src then
        (* the owner's writeback is in flight; retry until it lands *)
        send_after t ~delay:access.latency ~dst:src
          (Nack { line; reason = Message.Pending; tid })
      else begin
        Predictor.record_read t.params access.predictor ~reader:src ~unique:true;
        set_dstate t line entry Directory.Busy_shared;
        entry.requester <- src;
        entry.requester_op <- Types.Load;
        entry.requester_tid <- tid;
        stamp_requester t entry;
        t.stats.interventions_sent <- t.stats.interventions_sent + 1;
        send_after t ~delay:access.latency ~dst:entry.owner
          (Intervention { line; requester = src; tid })
      end
  | Directory.Busy_shared | Directory.Busy_excl ->
      send_after t ~delay:access.latency ~dst:src
        (Nack { line; reason = Message.Busy; tid })
  | Directory.Dele ->
      if entry.owner = src then
        send_after t ~delay:access.latency ~dst:src
          (Nack { line; reason = Message.Busy; tid })
      else begin
        (* Fig. 4b: forward to the delegated home and teach the requester *)
        send_after t ~delay:access.latency ~dst:entry.owner
          (Fwd_get_shared { line; requester = src; tid });
        send_after t ~delay:access.latency ~dst:src
          (New_home { line; home = entry.owner })
      end

and home_get_exclusive t ~src ~tid line =
  let access = dir_access t line in
  let entry = Directory.entry t.dir line in
  match entry.state with
  | Directory.Unowned ->
      Predictor.record_write t.params access.predictor ~writer:src;
      set_dstate t line entry Directory.Excl;
      entry.owner <- src;
      entry.sharers <- Nodeset.empty;
      send_after t
        ~delay:(access.latency + dram_delay t)
        ~dst:src
        (Data_exclusive
           {
             line;
             value = entry.mem_value;
             acks_expected = 0;
             sharers = Nodeset.empty;
             tid;
           })
  | Directory.Shared_s ->
      Predictor.record_write t.params access.predictor ~writer:src;
      let is_pc = Predictor.is_producer_consumer t.params access.predictor in
      let consumers = Nodeset.remove entry.sharers src in
      let n = Nodeset.cardinal consumers in
      (* Table 3 statistic: consumers per epoch of a detected
         producer-consumer line *)
      if is_pc && n > 0 then Pcc_stats.Histogram.observe t.stats.consumer_hist n;
      Nodeset.iter
        (fun node ->
          t.stats.invals_sent <- t.stats.invals_sent + 1;
          Run_stats.note_inval t.stats ~line;
          send_after t ~delay:access.latency ~dst:node (Inval { line; requester = src }))
        consumers;
      (* Delegation to the home's own producer-table entry ("self
         delegation") costs no messages and enables speculative updates
         for first-touch data homed at its producer. *)
      let delegate =
        t.config.delegation_enabled && is_pc
        && Predictor.producer access.predictor = Some src
        (* a crash-revoked line stays on the base protocol *)
        && not (Hashtbl.mem t.fallback_lines line)
      in
      note t ~code:Flight_ring.n_predictor ~line ~arg:(if is_pc then 1 else 0);
      entry.owner <- src;
      entry.sharers <- Nodeset.empty;
      if delegate then begin
        t.stats.delegations <- t.stats.delegations + 1;
        Run_stats.note_churn t.stats ~line;
        note t ~code:Flight_ring.n_delegate ~line ~arg:n;
        set_dstate t line entry Directory.Dele;
        send_after t
          ~delay:(access.latency + dram_delay t)
          ~dst:src
          (Delegate
             { line; sharers = consumers; value = entry.mem_value; acks_expected = n; tid })
      end
      else begin
        set_dstate t line entry Directory.Excl;
        send_after t
          ~delay:(access.latency + dram_delay t)
          ~dst:src
          (Data_exclusive
             {
               line;
               value = entry.mem_value;
               acks_expected = n;
               sharers = consumers;
               tid;
             })
      end
  | Directory.Excl ->
      if entry.owner = src then
        send_after t ~delay:access.latency ~dst:src
          (Nack { line; reason = Message.Pending; tid })
      else begin
        Predictor.record_write t.params access.predictor ~writer:src;
        set_dstate t line entry Directory.Busy_excl;
        entry.requester <- src;
        entry.requester_op <- Types.Store;
        entry.requester_tid <- tid;
        stamp_requester t entry;
        send_after t ~delay:access.latency ~dst:entry.owner
          (Transfer { line; requester = src; tid })
      end
  | Directory.Busy_shared | Directory.Busy_excl ->
      send_after t ~delay:access.latency ~dst:src
        (Nack { line; reason = Message.Busy; tid })
  | Directory.Dele ->
      if entry.owner = src then
        send_after t ~delay:access.latency ~dst:src
          (Nack { line; reason = Message.Busy; tid })
      else begin
        (* undelegation reason 3 (§2.3.3): another node wants exclusivity *)
        Predictor.record_write t.params access.predictor ~writer:src;
        set_dstate t line entry Directory.Busy_excl;
        entry.requester <- src;
        entry.requester_op <- Types.Store;
        entry.requester_tid <- tid;
        stamp_requester t entry;
        send_after t ~delay:access.latency ~dst:entry.owner
          (Recall { line; requester = src; kind = Types.Store })
      end

and home_service_request t (node, kind, tid) line =
  (* a request stored on behalf of a node that has died is dropped: its
     transaction died with it *)
  if t.crashable && not (peer_alive t node) then ()
  else
    match (kind : Types.op_kind) with
    | Types.Load -> home_get_shared t ~src:node ~tid line
    | Types.Store -> home_get_exclusive t ~src:node ~tid line

(* ------------------------------------------------------------------ *)
(* Home-side replies and races                                         *)
(* ------------------------------------------------------------------ *)

let on_writeback t ~src line ~value =
  let access = dir_access t line in
  let entry = Directory.entry t.dir line in
  send_after t ~delay:access.latency ~dst:src (Writeback_ack { line });
  match entry.state with
  | Directory.Excl when entry.owner = src ->
      entry.mem_value <- value;
      set_dstate t line entry Directory.Unowned;
      entry.owner <- -1
  | Directory.Busy_shared when entry.owner = src ->
      (* the intervention crossed the writeback: serve the waiting reader
         from home memory (unless that reader has died meanwhile) *)
      entry.mem_value <- value;
      if requester_current t entry then begin
        set_dstate t line entry Directory.Shared_s;
        entry.sharers <- Nodeset.singleton entry.requester;
        send_after t
          ~delay:(access.latency + dram_delay t)
          ~dst:entry.requester
          (Data_shared { line; value; source_is_home = true; tid = entry.requester_tid })
      end
      else begin
        set_dstate t line entry Directory.Unowned;
        entry.owner <- -1;
        entry.sharers <- Nodeset.empty
      end
  | Directory.Busy_excl when entry.owner = src ->
      (* the transfer crossed the writeback: grant the waiting writer *)
      entry.mem_value <- value;
      set_dstate t line entry Directory.Unowned;
      entry.owner <- -1;
      if requester_current t entry then
        home_service_request t
          (entry.requester, entry.requester_op, entry.requester_tid)
          line
  | Directory.Busy_excl when entry.requester = src ->
      (* the new owner wrote back before its Transfer_ack arrived: the
         transfer evidently completed, so the transaction ends here *)
      entry.mem_value <- value;
      set_dstate t line entry Directory.Unowned;
      entry.owner <- -1
  | Directory.Unowned | Directory.Shared_s | Directory.Excl | Directory.Busy_shared
  | Directory.Busy_excl | Directory.Dele ->
      () (* stale writeback *)

let on_shared_writeback t ~src line ~value ~new_sharer =
  let entry = Directory.entry t.dir line in
  match entry.state with
  | Directory.Busy_shared when entry.owner = src ->
      entry.mem_value <- value;
      set_dstate t line entry Directory.Shared_s;
      (* the served reader joins the sharing vector only if it is still
         the incarnation that asked (its cache died with it otherwise) *)
      entry.sharers <-
        (if requester_current t entry then
           Nodeset.add (Nodeset.singleton src) new_sharer
         else Nodeset.singleton src);
      entry.owner <- -1
  | Directory.Dele when entry.owner = src ->
      (* crash-capable machines: the delegated producer checkpoints its
         freshest value at every downgrade so a later crash cannot lose
         a value survivors already observed; versions are monotone *)
      if value > entry.mem_value then entry.mem_value <- value
  | _ -> ()

let on_transfer_ack t ~src line ~new_owner ~value =
  let entry = Directory.entry t.dir line in
  match entry.state with
  | Directory.Busy_excl when entry.owner = src ->
      (* crash mode: the old owner's final value rides the ack so home
         memory catches up (the new owner may die before writing back) *)
      (match value with
      | Some v -> if v > entry.mem_value then entry.mem_value <- v
      | None -> ());
      if requester_current t entry then begin
        set_dstate t line entry Directory.Excl;
        entry.owner <- new_owner;
        entry.sharers <- Nodeset.empty
      end
      else begin
        (* the new owner died (or restarted cold) before taking the
           grant: ownership reverts to home memory *)
        set_dstate t line entry Directory.Unowned;
        entry.owner <- -1;
        entry.sharers <- Nodeset.empty
      end
  | _ -> ()

let on_undelegate t ~src line ~sharers ~owner ~value ~pending =
  let entry = Directory.entry t.dir line in
  match entry.state with
  | (Directory.Dele | Directory.Busy_excl) when entry.owner = src ->
      let stored_pending =
        if entry.state = Directory.Busy_excl && requester_current t entry then
          Some (entry.requester, entry.requester_op, entry.requester_tid)
        else None
      in
      (match value with Some v -> entry.mem_value <- v | None -> ());
      Directory.reset_predictor t.dir line;
      (match owner with
      | Some node ->
          set_dstate t line entry Directory.Excl;
          entry.owner <- node;
          entry.sharers <- Nodeset.empty
      | None ->
          entry.owner <- -1;
          if Nodeset.is_empty sharers then begin
            set_dstate t line entry Directory.Unowned;
            entry.sharers <- Nodeset.empty
          end
          else begin
            set_dstate t line entry Directory.Shared_s;
            entry.sharers <- sharers
          end);
      (match pending with
      | Some request -> home_service_request t request line
      | None -> ());
      (match stored_pending with
      | Some request -> home_service_request t request line
      | None -> ())
  | _ -> () (* stale *)

let on_recall_nack t ~src line =
  let entry = Directory.entry t.dir line in
  match entry.state with
  | Directory.Busy_excl when entry.owner = src ->
      (* the producer has not seen the Delegate yet: retry the recall *)
      send_after t ~delay:t.config.nack_retry_delay ~dst:entry.owner
        (Recall { line; requester = entry.requester; kind = entry.requester_op })
  | _ -> () (* resolved meanwhile (the Undelegate arrived) *)

(* ------------------------------------------------------------------ *)
(* Delegated-home (producer) request handling                          *)
(* ------------------------------------------------------------------ *)

let prod_get_shared t line ~requester ~tid =
  if t.crashable && not (peer_alive t requester) then ()
  else
  match find_producer t line with
  | None -> send t ~dst:requester (Nack { line; reason = Message.Not_home; tid })
  | Some entry -> (
      match entry.pstate with
      | P_busy -> send t ~dst:requester (Nack { line; reason = Message.Busy; tid })
      | P_excl | P_shared ->
          if entry.pstate = P_excl then
            (* serve the read by downgrading early; the remaining
               consumers get their speculative updates now *)
            downgrade_and_push t line entry ~exclude:(Some requester)
          else entry.psharers <- Nodeset.add entry.psharers requester;
          let value =
            match t.rac with
            | Some rac -> (
                match Rac.peek rac line with Some v -> v | None -> assert false)
            | None -> assert false
          in
          send_after t ~delay:t.config.dir_hit_latency ~dst:requester
            (Data_shared { line; value; source_is_home = false; tid }))

let prod_get_exclusive t line ~requester ~tid =
  match find_producer t line with
  | None -> send t ~dst:requester (Nack { line; reason = Message.Not_home; tid })
  | Some entry ->
      if entry.pstate = P_busy || fence_needed t entry then begin
        (match entry.after_busy with
        | No_recall -> entry.after_busy <- Undelegate_with (requester, Types.Store, tid)
        | Undelegate_plain | Undelegate_with _ ->
            send t ~dst:requester (Nack { line; reason = Message.Busy; tid }));
        if entry.pstate <> P_busy then start_flush t line entry
      end
      else do_undelegate t line entry ~pending:(Some (requester, Types.Store, tid))

let on_recall t line =
  match find_producer t line with
  | None ->
      (* either already undelegated (the in-flight Undelegate resolves
         it), or the recall overtook the Delegate still being sent; NACK
         so the home retries until one of the two arrives *)
      send t ~dst:(home_of line) (Recall_nack { line })
  | Some entry ->
      if entry.pstate = P_busy || fence_needed t entry then begin
        (match entry.after_busy with
        | No_recall -> entry.after_busy <- Undelegate_plain
        | Undelegate_plain | Undelegate_with _ -> ());
        if entry.pstate <> P_busy then start_flush t line entry
      end
      else do_undelegate t line entry ~pending:None

let on_delegate t ~src line ~sharers ~value ~acks_expected ~tid =
  match t.pending with
  | Some p when p.line = line && p.kind = Types.Store && p.tid = tid -> (
      let accept_grant () =
        p.have_data <- true;
        p.reply_src <- src;
        add_ack_debt t p ~sharers ~acks_expected;
        ack_collection_class t p ~acks_expected;
        try_complete_store t p
      in
      ignore tid;
      let refuse () =
        t.stats.delegation_refusals <- t.stats.delegation_refusals + 1;
        Run_stats.note_churn t.stats ~line;
        note t ~code:Flight_ring.n_delegation_refused ~line ~arg:0;
        send t ~dst:src
          (Undelegate
             { line; sharers = Nodeset.empty; owner = Some t.id; value = None; pending = None });
        accept_grant ()
      in
      match (t.producer_table, t.rac) with
      | _ when Hashtbl.mem t.fallback_lines line ->
          (* this line repeatedly timed out on the optimized path: stay
             on the verified base protocol *)
          refuse ()
      | Some table, Some rac ->
          (* fence locks age out with the flush window; refresh them so a
             stale lock cannot spuriously refuse this delegation *)
          Producer.iter (fun l e -> refresh_entry_lock t l e) table;
          if not (Rac.fill rac line ~value ~origin:Rac.Delegated) then refuse ()
          else begin
            let entry =
              {
                pstate = P_busy;
                psharers = Nodeset.singleton t.id;
                update_set = sharers;
                last_write = Sim.now t.sim;
                burst_start = Sim.now t.sim;
                burst_span_ewma = 0;
                intervention_scheduled = false;
                after_busy = No_recall;
                unflushed = Nodeset.empty;
                last_push = 0;
                flush_acks = 0;
                flush_waiters = Nodeset.empty;
              }
            in
            match Producer.insert table line entry with
            | Producer.Set_locked ->
                t.deledc_pressure <- t.deledc_pressure + 1;
                Rac.invalidate rac line;
                refuse ()
            | Producer.Inserted victim ->
                (match victim with
                | Some (victim_line, victim_entry) ->
                    t.deledc_pressure <- t.deledc_pressure + 1;
                    undelegate_victim t victim_line victim_entry
                | None -> ());
                Producer.lock table line;
                accept_grant ()
          end
      | _ -> refuse ())
  | _ ->
      (* no matching transaction (defensive): return the delegation *)
      send t ~dst:src
        (Undelegate { line; sharers; owner = None; value = Some value; pending = None })

(* ------------------------------------------------------------------ *)
(* Requester-side replies                                              *)
(* ------------------------------------------------------------------ *)

let on_data_shared t ~src line ~value ~tid =
  match t.pending with
  | Some p when p.line = line && p.kind = Types.Load && p.tid = tid ->
      p.reply_src <- src;
      commit_load t p ~value ~miss:(classify_legs t ~target:p.target ~reply_src:src)
  | _ -> () (* stale reply for a transaction satisfied another way: drop *)

let on_data_exclusive t ~src line ~value ~acks_expected ~sharers ~tid =
  ignore value;
  match t.pending with
  | Some p when p.line = line && p.kind = Types.Store && p.tid = tid ->
      p.have_data <- true;
      p.reply_src <- src;
      add_ack_debt t p ~sharers ~acks_expected;
      ack_collection_class t p ~acks_expected;
      try_complete_store t p
  | _ -> ()

let on_inv_ack t ~src line =
  match t.pending with
  | Some p when p.line = line && p.kind = Types.Store ->
      if not t.crashable then begin
        p.acks_needed <- p.acks_needed - 1;
        try_complete_store t p
      end
      else if Nodeset.mem p.ack_waiters src then begin
        (* only known debtors are credited: recovery may already have
           credited a dead consumer whose ack was still in flight, and
           timeout-driven re-invalidations can elicit duplicate acks *)
        p.ack_waiters <- Nodeset.remove p.ack_waiters src;
        p.acks_needed <- p.acks_needed - 1;
        try_complete_store t p
      end
      else if not p.have_data then
        (* the ack beat the grant that will name its sender as a debtor *)
        p.early_acks <- Nodeset.add p.early_acks src
  | _ -> ()

let on_nack t line ~reason ~tid =
  match t.pending with
  (* [not p.have_data]: a timeout re-attempt can elicit a NACK for a
     transaction the original request already granted (impossible on a
     reliable network, where each tid sees exactly one reply); retrying a
     granted store would re-enter the upgrade path mid-flight *)
  | Some p when p.line = line && p.tid = tid && not p.have_data ->
      t.stats.nacks_received <- t.stats.nacks_received + 1;
      (match (reason, t.consumer_table) with
      | Message.Not_home, Some table -> Consumer.remove table line
      | (Message.Not_home | Message.Busy | Message.Pending), _ -> ());
      schedule_retry t p
  | _ -> ()

let on_new_home t line ~new_home =
  match t.consumer_table with
  | Some table when new_home <> t.id ->
      if Consumer.insert table line new_home then
        t.deledc_pressure <- t.deledc_pressure + 1
  | Some _ | None -> ()

let on_inval t line ~requester =
  ignore (L2.invalidate t.l2 line);
  (match t.rac with Some rac -> Rac.invalidate rac line | None -> ());
  (match t.pending with
  | Some p when p.line = line && p.kind = Types.Load -> p.poisoned <- true
  | _ -> ());
  send t ~dst:requester (Inv_ack { line })

(* An upgrade in flight on the same line means the intervention targets
   the exclusive copy this node is about to gain — servicing it from the
   stale shared copy would let the directory go Shared while the upgrade
   commits Exclusive (a race found by the model checker).  Defer until
   the store commits. *)
let upgrade_in_flight t line =
  match t.pending with
  | Some p when p.line = line && p.kind = Types.Store -> Some p
  | _ -> None

let on_intervention t line ~requester ~tid =
  if Hashtbl.mem t.wb_pending line then
    (* the intervention belongs to the epoch our in-flight writeback
       ends; the home resolves the race when the writeback lands *)
    ()
  else
    match (L2.peek t.l2 line, upgrade_in_flight t line) with
    | (Some L2.{ state = Shared; _ } | None), Some p ->
        p.deferred <- D_intervention (requester, tid) :: p.deferred
    | Some _, _ -> handle_intervention_now t line ~requester ~tid
    | None, None -> () (* writeback race *)

let on_transfer t line ~requester ~tid =
  if Hashtbl.mem t.wb_pending line then ()
  else
    match (L2.peek t.l2 line, upgrade_in_flight t line) with
    | (Some L2.{ state = Shared; _ } | None), Some p ->
        p.deferred <- D_transfer (requester, tid) :: p.deferred
    | Some _, _ -> handle_transfer_now t line ~requester ~tid
    | None, None -> ()

let on_update t ~src line ~value =
  ignore src;
  match t.pending with
  | Some p when p.line = line && p.kind = Types.Load ->
      (* §2.4.3: "If the consumer processor has already requested the
         data, the update message is treated as the response."  The
         superseded data reply still in flight carries this transaction's
         tid and is dropped on arrival — without tids it could satisfy a
         later load with stale data (a race found by the model checker). *)
      t.stats.updates_as_reply <- t.stats.updates_as_reply + 1;
      (* the pushed value is the freshest: safe to cache even if an
         invalidation poisoned the pending read (producer->consumer
         channels are FIFO, so a later invalidation cleans it up) *)
      p.poisoned <- false;
      commit_load t p ~value ~miss:Types.Remote_2hop
  | _ -> (
      match t.rac with
      | Some rac -> ignore (Rac.fill rac line ~value ~origin:Rac.Pushed_update)
      | None -> ())

let on_update_flush_ack t ~src line =
  match find_producer t line with
  | None -> () (* stale ack; the line was already undelegated *)
  | Some entry ->
      if not t.crashable then flush_ack_credit t line entry
      else if Nodeset.mem entry.flush_waiters src then begin
        (* only known debtors are credited: recovery may already have
           credited a dead flush target whose ack was still in flight *)
        entry.flush_waiters <- Nodeset.remove entry.flush_waiters src;
        flush_ack_credit t line entry
      end

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let handle_message t ~src (msg : Message.t) =
  Probe.recv t.probe ~src ~dst:t.id msg;
  match msg with
  | Get_shared { line; tid } ->
      if home_of line = t.id then home_get_shared t ~src ~tid line
      else prod_get_shared t line ~requester:src ~tid
  | Fwd_get_shared { line; requester; tid } -> prod_get_shared t line ~requester ~tid
  | Get_exclusive { line; tid } ->
      if home_of line = t.id then home_get_exclusive t ~src ~tid line
      else prod_get_exclusive t line ~requester:src ~tid
  | Writeback { line; value } -> on_writeback t ~src line ~value
  | Writeback_ack { line } -> Hashtbl.remove t.wb_pending line
  | Inval { line; requester } -> on_inval t line ~requester
  | Intervention { line; requester; tid } -> on_intervention t line ~requester ~tid
  | Transfer { line; requester; tid } -> on_transfer t line ~requester ~tid
  | Transfer_ack { line; new_owner; value } ->
      on_transfer_ack t ~src line ~new_owner ~value
  | Data_shared { line; value; source_is_home = _; tid } ->
      on_data_shared t ~src line ~value ~tid
  | Data_exclusive { line; value; acks_expected; sharers; tid } ->
      on_data_exclusive t ~src line ~value ~acks_expected ~sharers ~tid
  | Inv_ack { line } -> on_inv_ack t ~src line
  | Shared_writeback { line; value; new_sharer } ->
      on_shared_writeback t ~src line ~value ~new_sharer
  | Nack { line; reason; tid } -> on_nack t line ~reason ~tid
  | Delegate { line; sharers; value; acks_expected; tid } ->
      on_delegate t ~src line ~sharers ~value ~acks_expected ~tid
  | New_home { line; home } -> on_new_home t line ~new_home:home
  | Recall { line; requester = _; kind = _ } -> on_recall t line
  | Recall_nack { line } -> on_recall_nack t ~src line
  | Undelegate { line; sharers; owner; value; pending } ->
      on_undelegate t ~src line ~sharers ~owner ~value ~pending
  | Update { line; value } -> on_update t ~src line ~value
  | Update_flush { line } -> send t ~dst:src (Update_flush_ack { line })
  | Update_flush_ack { line } -> on_update_flush_ack t ~src line
  | Bus_rd _ | Bus_rdx _ | Bus_upgr _ | Bus_flush _ | Snoop_resp _ | Bus_wb _
  | Bus_wb_ack _ ->
      (* snooping-backend traffic; never addressed to an adaptive node *)
      invalid_arg "Node.handle: bus-snoop message on the adaptive backend"

(* ------------------------------------------------------------------ *)
(* Processor interface                                                 *)
(* ------------------------------------------------------------------ *)

(* Second-line defense (the hub link already guarantees delivery): a
   transaction that sits unfinished for the timeout re-attempts — unless
   it already holds data and is merely collecting acks, which duplicate
   requests could corrupt — and records a strike that may demote the line
   to the base protocol.  The timer re-arms with exponential backoff so a
   genuinely slow transaction is not hammered. *)
let rec arm_txn_timeout t p ~delay =
  sched t ~delay (fun () ->
      match t.pending with
      | Some q when q == p ->
          t.stats.txn_timeouts <- t.stats.txn_timeouts + 1;
          p.timeouts <- p.timeouts + 1;
          note t ~code:Flight_ring.n_timeout ~line:p.line ~arg:p.timeouts;
          note_strike t p.line;
          (if not p.have_data then start_attempt t p
           else if t.crashable && p.kind = Types.Store && p.acks_needed > 0 then
             (* a consumer that crashed and restarted lost the original
                invalidation with its cache: re-invalidate the remaining
                live debtors (idempotent — the debtor-set accounting
                ignores acks from nodes no longer owed) *)
             Nodeset.iter
               (fun dst ->
                 if peer_alive t dst then
                   send t ~dst (Inval { line = p.line; requester = t.id }))
               p.ack_waiters);
          arm_txn_timeout t p
            ~delay:
              (min t.config.txn_timeout_cap
                 (t.config.txn_timeout lsl min p.timeouts 10))
      | _ -> () (* committed; let the timer die *))

let start_miss t ~kind ~line ~on_commit =
  t.next_tid <- t.next_tid + 1;
  let p =
    {
      kind;
      line;
      started = Sim.now t.sim;
      tid = t.next_tid;
      on_commit;
      timeouts = 0;
      target = t.id;
      reply_src = t.id;
      acks_needed = 0;
      ack_waiters = Nodeset.empty;
      early_acks = Nodeset.empty;
      have_data = false;
      poisoned = false;
      miss_override = None;
      deferred = [];
    }
  in
  t.pending <- Some p;
  start_attempt t p;
  if Config.hardened t.config && t.config.txn_timeout > 0 then
    arm_txn_timeout t p ~delay:t.config.txn_timeout

let submit t ~kind ~line ~on_commit =
  if t.pending <> None then invalid_arg "Node.submit: operation already pending";
  let started = Sim.now t.sim in
  Probe.issue t.probe ~node:t.id ~kind ~line;
  (match kind with
  | Types.Load -> t.stats.loads <- t.stats.loads + 1
  | Types.Store -> t.stats.stores <- t.stats.stores + 1);
  match (L2.lookup t.l2 line, kind) with
  | Some entry, Types.Load ->
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      sched t ~delay:t.config.l2_hit_latency (fun () ->
          Probe.commit t.probe ~node:t.id ~kind:Types.Load ~line ~value:entry.value
            ~started ~miss:None;
          on_commit ())
  | Some L2.{ state = Exclusive; _ }, Types.Store ->
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      sched t ~delay:t.config.l2_hit_latency (fun () ->
          match L2.peek t.l2 line with
          | Some L2.{ state = Exclusive; _ } ->
              let version = t.next_version () in
              L2.set t.l2 line L2.{ state = Exclusive; value = version; dirty = true };
              (match find_producer t line with
              | Some entry ->
                  entry.last_write <- Sim.now t.sim;
                  schedule_intervention t line entry
              | None -> ());
              Probe.commit t.probe ~node:t.id ~kind:Types.Store ~line ~value:version
                ~started ~miss:None;
              on_commit ()
          | Some L2.{ state = Shared; _ } | None ->
              (* lost exclusivity in the hit window: the miss path counts
                 this access, so it was no hit *)
              t.stats.l2_hits <- t.stats.l2_hits - 1;
              start_miss t ~kind ~line ~on_commit)
  | Some L2.{ state = Shared; _ }, Types.Store | None, (Types.Load | Types.Store) ->
      start_miss t ~kind ~line ~on_commit

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create ~probe ~alive_view ~config ~sim ~network ~id ~stats ~next_version ~rng () =
  let open Config in
  if config.speculative_updates && not config.rac_enabled then
    invalid_arg "Node.create: speculative updates require a RAC";
  if config.delegation_enabled && not config.rac_enabled then
    invalid_arg "Node.create: delegation requires a RAC";
  let l2 =
    L2.create ~rng:(Pcc_engine.Rng.split rng) ~lines:(Config.l2_lines config)
      ~ways:config.l2_ways ()
  in
  let rac =
    if config.rac_enabled then
      Some
        (Rac.create ~rng:(Pcc_engine.Rng.split rng) ~lines:(Config.rac_lines config)
           ~ways:config.rac_ways ())
    else None
  in
  let dir = Directory.create ~config ~rng:(Pcc_engine.Rng.split rng) ~home:id in
  let producer_table =
    if config.delegation_enabled then
      Some
        (Producer.create ~rng:(Pcc_engine.Rng.split rng) ~entries:config.delegate_entries
           ~ways:config.delegate_ways ())
    else None
  in
  let consumer_table =
    if config.delegation_enabled then
      Some
        (Consumer.create ~rng:(Pcc_engine.Rng.split rng) ~entries:config.delegate_entries
           ~ways:config.delegate_ways ())
    else None
  in
  (* The hub link needs the node's message handler while the node needs
     the hub to send: tie the knot through a forward reference. *)
  let handler = ref (fun ~src:_ (_ : Message.t) -> assert false) in
  let hub =
    Hub_link.create ~sim ~network ~id ~nodes:config.nodes
      ~reliable:(Config.hardened config) ~rto:config.link_rto
      ~rto_cap:config.link_rto_cap ~ack_bytes:Message.header_bytes
      ~on_retransmit:(fun ~dst ->
        stats.Run_stats.retransmits <- stats.Run_stats.retransmits + 1;
        Probe.retransmit probe ~src:id ~dst)
      ~on_duplicate:(fun () ->
        stats.Run_stats.dup_dropped <- stats.Run_stats.dup_dropped + 1)
      ~deliver:(fun ~src msg -> !handler ~src msg)
  in
  let t =
    {
      config;
      sim;
      probe;
      hub;
      id;
      stats;
      next_version;
      rng;
      crashable = Config.crash_capable config;
      alive_view;
      l2;
      rac;
      dir;
      producer_table;
      consumer_table;
      dram = Pcc_memory.Dram.create ~latency:config.dram_latency ();
      params = Predictor.params_of_config config;
      wb_pending = Hashtbl.create 16;
      strikes = Hashtbl.create 16;
      fallback_lines = Hashtbl.create 16;
      class_cells = Array.make Message.class_count None;
      deledc_pressure = 0;
      next_tid = 0;
      pending = None;
      alive = true;
      node_epoch = 0;
    }
  in
  handler := (fun ~src msg -> handle_message t ~src msg);
  t

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let l2_state t line = L2.peek t.l2 line

let rac_value t line =
  match t.rac with Some rac -> Rac.peek rac line | None -> None

let rac_updates_consumed t =
  match t.rac with Some rac -> Rac.updates_consumed rac | None -> 0

let rac_updates_wasted t =
  match t.rac with Some rac -> Rac.updates_wasted rac | None -> 0

let rac_pressure t = match t.rac with Some rac -> Rac.pressure rac | None -> 0

let deledc_pressure t = t.deledc_pressure

let is_delegated_producer t line = find_producer t line <> None

let consumer_hint t line =
  match t.consumer_table with Some table -> Consumer.find table line | None -> None

let delegated_line_count t =
  match t.producer_table with Some table -> Producer.size table | None -> 0

let iter_l2 t f = L2.iter f t.l2

let pending_op t =
  match t.pending with Some p -> Some (p.kind, p.line) | None -> None

let pending_info t =
  match t.pending with
  | Some p -> Some (p.kind, p.line, p.started, p.timeouts)
  | None -> None

let rac_occupancy t = match t.rac with Some rac -> Rac.size rac | None -> 0

let rac_capacity t = match t.rac with Some rac -> Rac.capacity rac | None -> 0

let hub_in_flight t = Hub_link.in_flight t.hub

let link_retransmits t = Hub_link.retransmits_by_link t.hub

(* ------------------------------------------------------------------ *)
(* Machine-wide invariants (§2.5)                                      *)
(* ------------------------------------------------------------------ *)

(* Reads only through [peek]-style accessors: touching LRU recency or
   consuming pushed updates would perturb the run under audit. *)
let line_view nodes line (v : Dir_invariants.view) =
  v.nodes <- Array.length nodes;
  (match Directory.find nodes.(home_of line).dir line with
  | Some e ->
      v.dir <- e.state;
      v.owner <- e.owner;
      v.requester <- e.requester;
      v.sharers <- e.sharers;
      v.mem <- e.mem_value
  | None ->
      v.dir <- Unowned;
      v.owner <- -1;
      v.requester <- -1;
      v.sharers <- Nodeset.empty;
      v.mem <- 0);
  for n = 0 to Array.length nodes - 1 do
    let node = nodes.(n) in
    (match L2.peek node.l2 line with
    | Some { state; value; _ } ->
        v.l2.(n) <- (if state = L2.Shared then Shared_copy else Exclusive_copy);
        v.l2_value.(n) <- value
    | None -> v.l2.(n) <- No_copy);
    (match rac_value node line with
    | Some value ->
        v.rac.(n) <- true;
        v.rac_value.(n) <- value
    | None -> v.rac.(n) <- false);
    match (match node.producer_table with Some t -> Producer.peek t line | None -> None) with
    | Some p ->
        v.phase.(n) <-
          (match p.pstate with P_busy -> Busy | P_excl -> Exclusive | P_shared -> Shared);
        v.vector.(n) <- p.psharers
    | None -> v.phase.(n) <- No_entry
  done

let iter_lines nodes f =
  let lines = Hashtbl.create 1024 in
  let mark line _ = Hashtbl.replace lines line () in
  Array.iter
    (fun node ->
      L2.iter mark node.l2;
      (match node.rac with Some rac -> Rac.iter mark rac | None -> ());
      Directory.iter mark node.dir)
    nodes;
  Hashtbl.iter (fun line () -> f line) lines

let check_invariants nodes =
  let errors = ref [] in
  Array.iter
    (fun node ->
      if node.pending <> None then
        errors := Printf.sprintf "node %d: stuck transaction at quiescence" node.id :: !errors)
    nodes;
  let view = Dir_invariants.create (Array.length nodes) in
  iter_lines nodes (fun line ->
      line_view nodes line view;
      if Dir_invariants.violations Dir_invariants.Quiescent view <> [] then
        List.iter
          (fun (_, detail) ->
            errors := Printf.sprintf "line %s: %s" (Flight_ring.line_name line) detail :: !errors)
          (Dir_invariants.explain Dir_invariants.Quiescent view));
  List.rev !errors

(* ------------------------------------------------------------------ *)
(* Fail-stop crashes and directory recovery                            *)
(* ------------------------------------------------------------------ *)

let alive t = t.alive

let node_epoch t = t.node_epoch

(* The freshest value for [line] still materialized somewhere that
   survives: home memory plus every live cached copy.  Store versions
   are globally monotone, so the maximum is the newest.  By the
   crash-mode value-escape rules (Transfer_ack and downgrade
   writebacks carry values home), any value a survivor ever observed is
   either in a live cache or already in home memory — recovering to
   this value never rolls a survivor back. *)
let surviving_value nodes line =
  let home = nodes.(Types.Layout.home_of_line line) in
  let best = ref (Directory.entry home.dir line).mem_value in
  Array.iter
    (fun node ->
      if node.alive then begin
        (match L2.peek node.l2 line with
        | Some L2.{ value; _ } -> if value > !best then best := value
        | None -> ());
        match node.rac with
        | Some rac -> (
            match Rac.peek rac line with
            | Some v -> if v > !best then best := v
            | None -> ())
        | None -> ()
      end)
    nodes;
  !best

(* Drop a (stale) cached copy during recovery: like [on_inval] but with
   no requester to acknowledge.  A pending load on the line commits
   without caching, exactly as if an invalidation had overtaken it. *)
let recovery_invalidate t line =
  ignore (L2.invalidate t.l2 line);
  (match t.rac with Some rac -> Rac.invalidate rac line | None -> ());
  match t.pending with
  | Some p when p.line = line && p.kind = Types.Load -> p.poisoned <- true
  | _ -> ()

(* Rebuild [entry] into a stable Shared_s/Unowned state from surviving
   caches: recover the newest surviving value into home memory, keep the
   copies that match it as sharers, and drop the rest.  The Shared_s
   invariant promises every covered copy equals home memory, so stale
   survivors (pre-escape values) are invalidated. *)
let rebuild_stable_from_survivors t nodes line (entry : Directory.entry) =
  let v_rec = surviving_value nodes line in
  entry.mem_value <- v_rec;
  let holders = ref Nodeset.empty in
  Array.iter
    (fun node ->
      if node.alive then begin
        let l2_v =
          match L2.peek node.l2 line with
          | Some L2.{ value; _ } -> Some value
          | None -> None
        in
        let rac_v =
          match node.rac with Some rac -> Rac.peek rac line | None -> None
        in
        if l2_v <> None || rac_v <> None then begin
          if
            (l2_v = None || l2_v = Some v_rec)
            && (rac_v = None || rac_v = Some v_rec)
          then holders := Nodeset.add !holders node.id
          else recovery_invalidate node line
        end
      end)
    nodes;
  entry.owner <- -1;
  entry.sharers <- !holders;
  set_dstate t line entry
    (if Nodeset.is_empty !holders then Directory.Unowned else Directory.Shared_s)

(* The line's registered owner (exclusive holder or delegated home)
   died.  Rebuild the entry at [t] (the line's home) from surviving
   state.  The dead node's unacknowledged stores are legitimately lost —
   fail-stop semantics — but everything a survivor observed is recovered
   via [surviving_value]. *)
let rebuild_dead_owner t nodes line (entry : Directory.entry) =
  let was = entry.state in
  (* a live node already holding the line exclusively means ownership
     had de-facto transferred before the crash (the dead owner's grant
     landed, the directory ack did not): keep it as the owner *)
  let excl_holder = ref None in
  Array.iter
    (fun node ->
      if node.alive then
        match L2.peek node.l2 line with
        | Some L2.{ state = L2.Exclusive; value; _ } ->
            excl_holder := Some (node.id, value)
        | Some _ | None -> ())
    nodes;
  (match !excl_holder with
  | Some (owner, value) ->
      set_dstate t line entry Directory.Excl;
      entry.owner <- owner;
      entry.sharers <- Nodeset.empty;
      if value > entry.mem_value then entry.mem_value <- value;
      Array.iter
        (fun node ->
          if node.alive && node.id <> owner then recovery_invalidate node line)
        nodes
  | None -> rebuild_stable_from_survivors t nodes line entry);
  (match was with
  | Directory.Dele ->
      (* delegation revoked: demote the line to the verified base
         protocol and make the predictor re-earn any future delegation *)
      Directory.reset_predictor t.dir line;
      force_fallback t line;
      t.stats.crash_revoked <- t.stats.crash_revoked + 1;
      note t ~code:Flight_ring.n_revoke ~line ~arg:0
  | _ -> t.stats.crash_pruned <- t.stats.crash_pruned + 1);
  (* a Busy entry whose requester is still current gets re-served from
     the rebuilt state: the dead owner can no longer answer for it *)
  match was with
  | Directory.Busy_shared | Directory.Busy_excl ->
      if requester_current t entry then
        home_service_request t
          (entry.requester, entry.requester_op, entry.requester_tid)
          line
  | _ -> ()

(* Is a directory-resolving reply for [line] still in flight from a
   survivor to the dead home?  Survivors' unacked frames are requeued at
   detection and re-deliver after restart, so such a frame — a
   writeback, ownership-transfer ack, or delegation hand-back — will
   resolve the entry on its own; touching the entry before it lands
   would race the authoritative update.  Only a writeback resolves an
   Excl entry (the other handlers ignore one), so a shared writeback
   still unacked — the home may have taken it before the crash, with
   only its ack lost — must not hold that entry's repair back. *)
let resolution_in_flight nodes ~dead ~state line =
  Array.exists
    (fun node ->
      node.id <> dead && node.alive
      && Hub_link.exists_unacked node.hub ~peer:dead ~f:(fun msg ->
             Message.line_of msg = line
             &&
             match (msg : Message.t) with
             | Message.Writeback _ -> true
             | Message.Shared_writeback _ | Message.Transfer_ack _
             | Message.Recall_nack _ | Message.Undelegate _ ->
                 state <> Directory.Excl
             | _ -> false))
    nodes

(* [t] itself died but its directory and memory survive; repair the
   entries whose in-flight resolutions died in [t]'s own hub.

   A Busy entry whose live owner still holds the line exclusively means
   the intervention/transfer was lost with the crash: restore Excl so
   the owner is reachable again (the requester's transaction timeout
   re-issues its request).

   An Excl entry whose registered owner neither holds the line nor is
   mid-commit records a grant that died unacknowledged in [t]'s hub: the
   requester was already rescued (its retry would otherwise be NACKed
   "owner pending" forever), so rebuild the entry from survivors.  The
   same applies to a Busy entry whose transfer can no longer resolve.
   In both cases, if a survivor still carries a resolution frame for the
   line (requeued at detection, delivered after restart), leave the
   entry alone — that frame is the authoritative fix. *)
let normalize_dead_home t nodes line (entry : Directory.entry) =
  let owner = entry.owner in
  let owner_live = owner >= 0 && owner < Array.length nodes && nodes.(owner).alive in
  let owner_holds_excl =
    owner_live
    &&
    match L2.peek nodes.(owner).l2 line with
    | Some L2.{ state = L2.Exclusive; _ } -> true
    | Some _ | None -> false
  in
  match entry.state with
  | Directory.Busy_shared | Directory.Busy_excl ->
      if owner_holds_excl then begin
        set_dstate t line entry Directory.Excl;
        entry.sharers <- Nodeset.empty;
        t.stats.crash_pruned <- t.stats.crash_pruned + 1
      end
      else if not (resolution_in_flight nodes ~dead:t.id ~state:entry.state line)
      then begin
        rebuild_stable_from_survivors t nodes line entry;
        t.stats.crash_pruned <- t.stats.crash_pruned + 1
      end
  | Directory.Excl ->
      (* mid-commit: the grant landed and the new owner is collecting
         invalidation acks — its L2 shows Exclusive only at commit *)
      let owner_committing =
        owner_live
        &&
        match nodes.(owner).pending with
        | Some p -> p.line = line && p.have_data
        | None -> false
      in
      if
        (not owner_holds_excl) && (not owner_committing)
        && not (resolution_in_flight nodes ~dead:t.id ~state:entry.state line)
      then begin
        rebuild_stable_from_survivors t nodes line entry;
        t.stats.crash_pruned <- t.stats.crash_pruned + 1
      end
  | Directory.Unowned | Directory.Shared_s | Directory.Dele -> ()

(* Fail-stop crash: every volatile structure on the node dies.  The
   directory and home memory live on the battery-backed memory
   controller and survive (the recovery sweep repairs them).  Timers
   armed by this incarnation are neutralized by the [sched] epoch
   guard. *)
let crash t =
  if not t.crashable then invalid_arg "Node.crash: machine has no crash schedule";
  t.alive <- false;
  t.alive_view.(t.id) <- false;
  t.stats.crashes <- t.stats.crashes + 1;
  L2.clear t.l2;
  (match t.rac with Some rac -> Rac.clear rac | None -> ());
  (match t.producer_table with Some table -> Producer.clear table | None -> ());
  (match t.consumer_table with Some table -> Consumer.clear table | None -> ());
  Hashtbl.reset t.wb_pending;
  Hashtbl.reset t.strikes;
  Hashtbl.reset t.fallback_lines;
  (* the interrupted op dies unsubmitted: un-count it so the machine-wide
     access counters keep matching committed operations (the restarted
     incarnation re-submits it from scratch) *)
  (match t.pending with
  | Some p -> (
      match p.kind with
      | Types.Load -> t.stats.loads <- t.stats.loads - 1
      | Types.Store -> t.stats.stores <- t.stats.stores - 1)
  | None -> ());
  t.pending <- None;
  Hub_link.reset_all t.hub

(* Re-admission after a crash: cold caches, fresh incarnation.  The
   epoch was already bumped at detection time (recover_after_crash), so
   frames stamped after detection — including survivors' requeued
   frames — deliver to the new incarnation. *)
let restart t =
  t.alive <- true;
  t.alive_view.(t.id) <- true;
  t.stats.restarts <- t.stats.restarts + 1

(* Machine-wide recovery sweep, run once per crash when the failure is
   detected (after {!Pcc_interconnect.Network.bump_epoch} for the
   victim).  Order matters: link surgery and transaction rescue first,
   so directory repair sees post-rescue cache states. *)
let recover_after_crash nodes ~dead ~will_restart =
  let victim = nodes.(dead) in
  victim.node_epoch <- victim.node_epoch + 1;
  let stats = victim.stats in
  (* 1. Per-survivor surgery: links, routing hints, producer
     bookkeeping, wedged transactions. *)
  Array.iter
    (fun node ->
      if node.id <> dead then begin
        (* updates are fire-and-forget, and the producer bookkeeping below
           forgets the victim: a requeued update would install a copy no
           later invalidation reaches *)
        if will_restart then
          Hub_link.requeue_peer node.hub ~peer:dead ~droppable:(function
            | Message.Update _ -> true
            | _ -> false)
        else Hub_link.drop_peer node.hub ~peer:dead;
        (match node.consumer_table with
        | Some table -> Consumer.drop_target table dead
        | None -> ());
        (match node.producer_table with
        | Some table ->
            let flushes = ref [] in
            Producer.iter
              (fun line entry ->
                entry.psharers <- Nodeset.remove entry.psharers dead;
                entry.update_set <- Nodeset.remove entry.update_set dead;
                entry.unflushed <- Nodeset.remove entry.unflushed dead;
                (match entry.after_busy with
                | Undelegate_with (r, _, _) when r = dead ->
                    (* still give the line back, just not to the dead
                       requester *)
                    entry.after_busy <- Undelegate_plain
                | No_recall | Undelegate_plain | Undelegate_with _ -> ());
                if Nodeset.mem entry.flush_waiters dead then begin
                  entry.flush_waiters <- Nodeset.remove entry.flush_waiters dead;
                  flushes := (line, entry) :: !flushes
                end)
              table;
            (* credited outside the iteration: completing a flush round
               can undelegate, which mutates the table being iterated *)
            List.iter (fun (line, entry) -> flush_ack_credit node line entry)
              (List.rev !flushes)
        | None -> ());
        (match node.pending with
        | Some p when p.kind = Types.Store && Nodeset.mem p.ack_waiters dead ->
            (* the dead node can no longer acknowledge — and its copy
               died with it, which is all the invalidation wanted *)
            p.ack_waiters <- Nodeset.remove p.ack_waiters dead;
            p.acks_needed <- p.acks_needed - 1;
            stats.crash_rescued <- stats.crash_rescued + 1;
            try_complete_store node p
        | Some _ | None -> ());
        match node.pending with
        | Some p when p.target = dead && not p.have_data ->
            (* the request went to the dead node (home or delegated
               home): drop the stale routing hint and re-issue *)
            (match node.consumer_table with
            | Some table -> Consumer.remove table p.line
            | None -> ());
            stats.crash_rescued <- stats.crash_rescued + 1;
            schedule_retry node p
        | Some _ | None -> ()
      end)
    nodes;
  (* 2. Directory repair on every directory in the machine (the dead
     node's own directory survives with its memory). *)
  Array.iter
    (fun home ->
      let rebuilds = ref [] in
      Directory.iter
        (fun line entry ->
          if Nodeset.mem entry.sharers dead then begin
            entry.sharers <- Nodeset.remove entry.sharers dead;
            stats.crash_pruned <- stats.crash_pruned + 1;
            if entry.state = Directory.Shared_s && Nodeset.is_empty entry.sharers
            then set_dstate home line entry Directory.Unowned
          end;
          if entry.owner = dead then (
            match entry.state with
            | Directory.Excl | Directory.Dele | Directory.Busy_shared
            | Directory.Busy_excl ->
                rebuilds := (line, entry) :: !rebuilds
            | Directory.Unowned | Directory.Shared_s -> entry.owner <- -1)
          else if home.id = dead then normalize_dead_home home nodes line entry)
        home.dir;
      (* rebuilt outside the iteration (re-serving a parked requester
         sends messages and touches the directory cache), in line order
         for determinism *)
      List.sort (fun (a, _) (b, _) -> compare (a : Types.line) b) !rebuilds
      |> List.iter (fun (line, entry) -> rebuild_dead_owner home nodes line entry))
    nodes
