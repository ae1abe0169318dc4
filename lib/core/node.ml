module Sim = Pcc_engine.Simulator
module Producer = Delegate_cache.Producer
module Consumer = Delegate_cache.Consumer

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

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
  mutable ack_waiters : Nodeset.t;
      (* a store's invalidation debtors: it commits once the set is empty.
         Only a debtor's ack is credited, so recovery can credit a dead
         debtor and a stale or duplicate ack cannot over-credit *)
  mutable early_acks : Nodeset.t;
      (* invalidation acks that beat the grant naming their senders as
         debtors (the home invalidates sharers in parallel with
         granting) *)
  mutable have_data : bool;
  mutable poisoned : bool;
      (* an invalidation overtook this load: commit without caching *)
  mutable miss_override : Types.miss_class option;
  mutable deferred : L2.deferred list;
}

(* Delegated directory state held in the producer table (the DirEntry of
   Fig. 3 plus the speculative-update bookkeeping of §2.4.2).  Its phase
   and slot are [Delegate_cache]'s, which decides every event at it. *)
type prod_entry = {
  mutable phase : Delegate_cache.phase;  (* Busy, Exclusive or Shared *)
  mutable psharers : Nodeset.t;  (* current sharing vector (includes self) *)
  mutable update_set : Nodeset.t;  (* previous epoch's consumers *)
  mutable last_write : int;
  mutable burst_start : int;  (* first write of the current epoch *)
  mutable burst_span_ewma : int;  (* adaptive-delay estimate of burst length *)
  mutable intervention_scheduled : bool;
  mutable slot : Delegate_cache.slot;  (* what the entry owes its home *)
  mutable unflushed : Nodeset.t;  (* targets pushed since the last flush *)
  mutable last_push : int;  (* cycle of the most recent push *)
  mutable flush_waiters : Nodeset.t;
      (* the targets of the outstanding flush round still owing an ack:
         the round ends when the set is empty *)
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
  mutable timeout : Sim.handle;  (* the pending transaction's completion timeout *)
  mutable hit_held : bool;  (* an L2 hit waits out its latency *)
  mutable rac_hit_value : int;  (* the value a RAC-hit load commits *)
  mutable ob_dst : int array;
      (* the outbox: messages waiting out a [send_after] delay, in the
         slots their timers name; ob_free.(0 .. ob_free_top-1) are
         unused *)
  mutable ob_msg : Message.t array;
  mutable ob_free : int array;
  mutable ob_free_top : int;
  mutable on_timer : int -> unit;  (* runs every node timer; see [run_timer] *)
  mutable alive : bool;
  mutable node_epoch : int;  (* incarnation count, mirrors the network's *)
}

let busy t = t.pending <> None || t.hit_held

(* Protocol decision points, recorded straight into the flight ring. *)
let note t ~code ~line ~arg = Probe.note t.probe ~node:t.id ~code ~line ~arg

let directory t = t.dir

let home_of line = Types.Layout.home_of_line line

(* Every home-directory state change funnels through here so the flight
   recorder sees line state transitions. *)
let set_dstate t line (entry : Directory.entry) st =
  entry.state <- st;
  note t ~code:Flight_ring.n_dir_state ~line ~arg:(Directory.state_code st)

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
  not (Nodeset.is_empty entry.unflushed && Nodeset.is_empty entry.flush_waiters)

(* [Delegate_cache.producer_step] makes every delegated-home decision.
   The fence ages out only for the rows that read it: aged before a
   read's or a burst's push, older targets would miss the next flush. *)
let entry_step t entry (event : Delegate_cache.event) =
  let fenced =
    match event with
    | Read | Own_store | Burst_over -> false
    | Write | Recall | Store_done | Flush_done | Evicted -> fence_needed t entry
  in
  Delegate_cache.producer_step entry.phase ~fenced entry.slot event

let producer_step t found event =
  match found with
  | Some entry -> entry_step t entry event
  | None -> Delegate_cache.producer_step No_entry ~fenced:false Free event

(* A producer entry may be evicted (capacity-undelegated) only where the
   table would give it back: not mid-transaction, not fenced. *)
let refresh_entry_lock t line entry =
  match t.producer_table with
  | None -> ()
  | Some table -> (
      match (entry_step t entry Evicted).action with
      | Keep -> Producer.lock table line
      | _ -> Producer.unlock table line)

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

(* The members of [set] that are up: a node known dead owes no ack.  A
   loop rather than [Nodeset.filter] with a closure, so the grant and
   flush paths that call it allocate nothing. *)
let live t set =
  let live = ref set in
  for node = 0 to Array.length t.alive_view - 1 do
    if not (Array.get t.alive_view node) then live := Nodeset.remove !live node
  done;
  !live

(* ------------------------------------------------------------------ *)
(* Node timers                                                         *)
(* ------------------------------------------------------------------ *)

(* Every protocol timer and delayed send is one typed engine event run
   by [t.on_timer], which the node builds once, so arming a timer
   allocates nothing.  Its int argument packs the timer's kind (low
   [kind_bits]), the node's incarnation when it was armed (next
   [epoch_bits]) and a payload naming the timer's state: a tid for the
   transaction timers (tids are unique per node for the whole run), a
   line for the delayed intervention, an outbox slot for a delayed
   send.  An L2 hit's commit is the one closure left (see [submit]).
   The kinds: *)
let timer_rac_load = 0 (* a RAC-hit load commits [rac_hit_value] *)

let timer_store_done = 1 (* a locally served store completes *)

let timer_retry = 2 (* a NACKed request goes out again *)

let timer_intervention = 3 (* the delayed intervention after a write burst (§2.4) *)

let timer_send_out = 4 (* a [send_after] message leaves the outbox *)

let timer_timeout = 5 (* the completion timeout; cancellable *)

let kind_bits = 3

let epoch_bits = 16

(* A timer or closure armed in incarnation [epoch] may still act only
   while the node is up in that incarnation: one armed by an earlier
   incarnation (or while it was up, for a node now down) would resurrect
   pre-crash transactions or commit zombie operations.  Without crashes
   every node stays up in incarnation 0. *)
let current t epoch = t.alive && epoch = t.node_epoch

let timer_arg t kind payload =
  (((payload lsl epoch_bits) lor t.node_epoch) lsl kind_bits) lor kind

let arm t ~delay kind payload =
  Sim.schedule_call t.sim ~delay t.on_timer (timer_arg t kind payload)

(* A slot whose timer ran has its message overwritten with this
   constant, so the outbox never keeps a sent message alive. *)
let outbox_filler : Message.t = Writeback_ack { line = 0 }

(* Double the outbox; every slot is taken when this runs, so the free
   stack becomes exactly the new slots. *)
let grow_outbox t =
  let old = Array.length t.ob_dst in
  let capacity = max 16 (2 * old) in
  let extend a filler =
    let b = Array.make capacity filler in
    Array.blit a 0 b 0 old;
    b
  in
  t.ob_dst <- extend t.ob_dst 0;
  t.ob_msg <- extend t.ob_msg outbox_filler;
  t.ob_free <- Array.init capacity (fun i -> capacity - 1 - i);
  t.ob_free_top <- capacity - old

let send_after t ~delay ~dst msg =
  if delay <= 0 then send t ~dst msg
  else begin
    if t.ob_free_top = 0 then grow_outbox t;
    let top = t.ob_free_top - 1 in
    let slot = t.ob_free.(top) in
    t.ob_free_top <- top;
    t.ob_dst.(slot) <- dst;
    t.ob_msg.(slot) <- msg;
    arm t ~delay timer_send_out slot
  end

(* The outbox slot's timer ran: free the slot (exactly once, whether or
   not the crash guard lets the message go) and send when [current]. *)
let outbox_fires t slot ~current =
  let dst = t.ob_dst.(slot) and msg = t.ob_msg.(slot) in
  t.ob_msg.(slot) <- outbox_filler;
  t.ob_free.(t.ob_free_top) <- slot;
  t.ob_free_top <- t.ob_free_top + 1;
  if current then send t ~dst msg

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

(* The RAC copy that backs every producer entry (Missing_backing). *)
let backing t line =
  match t.rac with
  | Some rac -> ( match Rac.peek rac line with Some v -> v | None -> assert false)
  | None -> assert false

(* Downgrade the producer's exclusive copy into the RAC and push the new
   data to the previous epoch's consumers (the caller applied the step's
   Shared phase).  [exclude] is a consumer served a data reply now. *)
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
    let value = backing t line in
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

let schedule_intervention t line entry =
  if
    t.config.speculative_updates && (not entry.intervention_scheduled)
    && t.config.intervention_delay < max_int / 2
  then begin
    entry.intervention_scheduled <- true;
    arm t ~delay:(effective_intervention_delay t entry) timer_intervention line
  end

let intervention_fires t line =
  match find_producer t line with
  | None -> () (* undelegated meanwhile *)
  | Some entry -> (
      entry.intervention_scheduled <- false;
      let step = entry_step t entry Burst_over in
      match step.action with
      | Downgrade_and_push ->
          let delay = effective_intervention_delay t entry in
          let idle = Sim.now t.sim - entry.last_write in
          if idle < delay then begin
            (* the write burst is still running; wait for it to go quiet *)
            entry.intervention_scheduled <- true;
            arm t ~delay:(delay - idle) timer_intervention line
          end
          else begin
            entry.phase <- step.phase;
            downgrade_and_push t line entry ~exclude:None
          end
      | _ -> () (* no longer exclusive *))

(* ------------------------------------------------------------------ *)
(* Undelegation (§2.3.3)                                               *)
(* ------------------------------------------------------------------ *)

(* Give the line back to its home: detach the entry (a victim an insert
   evicted already is), downgrade local copies, ship the current contents
   and sharing vector. *)
let do_undelegate t line entry ~pending =
  (match t.producer_table with
  | Some table -> ignore (Producer.remove table line)
  | None -> assert false);
  let l2_state = L2.peek t.l2 line in
  let value =
    match l2_state with
    | Some L2.{ state = Exclusive; value; _ } ->
        L2.set t.l2 line L2.{ state = Shared; value; dirty = false };
        value
    | Some L2.{ value; _ } -> value
    | None -> backing t line
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

(* Begin the flush round: a marker chases the pushed updates down their
   FIFO channels; acks mean they all landed.  Only live targets are
   waited for (a flush toward a node already known dead would never be
   acknowledged), and they are recorded so that recovery can credit a
   target that dies mid-round. *)
let rec start_flush t line entry =
  if Nodeset.is_empty entry.flush_waiters && not (Nodeset.is_empty entry.unflushed) then begin
    let targets = live t entry.unflushed in
    entry.unflushed <- Nodeset.empty;
    entry.flush_waiters <- targets;
    Nodeset.iter (fun c -> send t ~dst:c (Update_flush { line })) targets;
    refresh_entry_lock t line entry;
    (* every target may already be dead: the round completes on the spot *)
    if Nodeset.is_empty targets then settle t line entry (entry_step t entry Flush_done)
  end

(* The actions of the events that read only the fence and the slot: a
   recall (or the fallback), the producer's store commit and the end of
   a flush round.  Another round chases updates pushed while flushing. *)
and settle t line entry (step : Delegate_cache.step) =
  entry.phase <- step.phase;
  match step.action with
  | Keep -> ()
  | Mark_recalled -> entry.slot <- Recalled
  | Flush -> start_flush t line entry
  | Mark_recalled_and_flush ->
      entry.slot <- Recalled;
      start_flush t line entry
  | Give_back -> do_undelegate t line entry ~pending:None
  | Give_back_held -> (
      match entry.slot with
      | Held { requester; tid } -> do_undelegate t line entry ~pending:(Some (requester, tid))
      | Free | Recalled -> assert false)
  | _ -> assert false (* requests' and the processor's actions *)

(* Only a target the round still waits for is credited: recovery may
   already have credited a dead target whose ack was still in flight. *)
and flush_ack_credit t line entry ~src =
  if Nodeset.mem entry.flush_waiters src then begin
    entry.flush_waiters <- Nodeset.remove entry.flush_waiters src;
    refresh_entry_lock t line entry;
    if Nodeset.is_empty entry.flush_waiters then
      settle t line entry (entry_step t entry Flush_done)
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
    (* the delegated home gives the line back as if recalled *)
    match find_producer t line with
    | None -> ()
    | Some entry -> settle t line entry (entry_step t entry Recall)
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
(* The requester side (§2.3, §2.4.3)                                   *)
(* ------------------------------------------------------------------ *)

(* [L2.requester_step] makes every requester decision; the handlers
   below interpret its action with the simulator's side of it: latencies,
   miss classes, statistics, invalidation debtor sets and routing.  [txn]
   is the node's transaction on [line] as the table reads it. *)

(* The transaction is over (committed, or died with a crash): its
   completion timeout has nothing left to do, so it leaves the queue. *)
let end_txn t =
  t.pending <- None;
  Sim.cancel t.sim t.timeout;
  t.timeout <- Sim.no_handle

let txn t line : L2.txn =
  match t.pending with
  | Some p when p.line = line -> (
      match p.kind with
      | Types.Load -> Loading
      | Types.Store -> if p.have_data then Granted else Awaiting_grant)
  | Some _ | None -> Idle

let commit_load t p ~value ~miss =
  let now = Sim.now t.sim in
  if not p.poisoned then
    fill_l2 t p.line L2.{ state = Shared; value; dirty = false };
  Run_stats.record_miss t.stats miss ~line:p.line ~latency:(now - p.started);
  end_txn t;
  Probe.commit t.probe ~node:t.id ~kind:Types.Load ~line:p.line ~value
    ~started:p.started ~miss:(Some miss);
  p.on_commit ()

(* The producer's store committed: re-arm the delayed intervention and
   settle a recall or a held request, which wait for the update flush to
   complete (see Update_flush). *)
let note_producer_write t line =
  match find_producer t line with
  | None -> ()
  | Some entry ->
      let step = entry_step t entry Store_done in
      if entry.phase = Busy then entry.burst_start <- Sim.now t.sim;
      entry.phase <- step.phase;
      refresh_entry_lock t line entry;
      entry.last_write <- Sim.now t.sim;
      schedule_intervention t line entry;
      settle t line entry step

(* Drop the line's copies; a waiting load the step poisons commits
   without caching. *)
let invalidate t line (action : L2.action) =
  ignore (L2.invalidate t.l2 line);
  (match t.rac with Some rac -> Rac.invalidate rac line | None -> ());
  match (action, t.pending) with
  | Invalidate_and_poison, Some p -> p.poisoned <- true
  | (Invalidate | Invalidate_and_poison), _ -> ()
  | _ -> assert false (* the Inval rows draw only these *)

(* The step of an event that reads neither a copy nor a writeback. *)
let reply_step t line event ~own =
  L2.requester_step No_copy (txn t line) ~own ~wb:false ~local:false event

(* After the commit, the producer settles first, then the deferred
   forwarded requests run again. *)
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
  end_txn t;
  Probe.commit t.probe ~node:t.id ~kind:Types.Store ~line:p.line ~value:version
    ~started:p.started ~miss:(Some miss);
  note_producer_write t p.line;
  List.iter
    (function
      | L2.Deferred_intervention { requester; tid } ->
          forwarded t p.line L2.Intervention ~requester ~tid
      | L2.Deferred_transfer { requester; tid } -> forwarded t p.line L2.Transfer ~requester ~tid)
    (List.rev p.deferred);
  p.on_commit ()

and try_complete_store t p =
  if p.have_data && Nodeset.is_empty p.ack_waiters then commit_store t p

(* An [Intervention] or [Transfer] reaching the owner, or run again once
   the store it waited for commits. *)
and forwarded t line (event : L2.event) ~requester ~tid =
  let entry = L2.peek t.l2 line in
  let action =
    L2.requester_step (L2.copy_of entry) (txn t line) ~own:false
      ~wb:(Hashtbl.mem t.wb_pending line) ~local:false event
  in
  match (action, entry, t.pending, event) with
  | Defer, _, Some p, Intervention ->
      p.deferred <- Deferred_intervention { requester; tid } :: p.deferred
  | Defer, _, Some p, Transfer -> p.deferred <- Deferred_transfer { requester; tid } :: p.deferred
  | Serve, Some { state; value; _ }, _, Intervention ->
      if state = L2.Exclusive then L2.set t.l2 line L2.{ state = Shared; value; dirty = false };
      send t ~dst:requester (Data_shared { line; value; source_is_home = false; tid });
      send t ~dst:(home_of line) (Shared_writeback { line; value; new_sharer = requester })
  | Serve, Some { value; _ }, _, Transfer ->
      ignore (L2.invalidate t.l2 line);
      (match t.rac with Some rac -> Rac.invalidate rac line | None -> ());
      send t ~dst:requester
        (Data_exclusive { line; value; acks_expected = 0; sharers = Nodeset.empty; tid });
      (* crash-capable machines: the value rides the ack so home memory
         can catch up — the new owner may die before writing back *)
      send t ~dst:(home_of line)
        (Transfer_ack
           { line; new_owner = requester; value = (if t.crashable then Some value else None) })
  | Drop, _, _, _ -> ()
  | _ -> assert false (* forwarded requests draw only these *)

(* Register a store grant's invalidation debt: its live sharers, less
   those whose ack beat the grant.  Sharers already known dead are not
   waited for, and an acknowledgement later counts only if its sender is
   still owed — a dead consumer's in-flight ack must not complete the
   store while a live consumer still holds a stale copy. *)
let add_ack_debt t p ~sharers =
  p.ack_waiters <- Nodeset.union p.ack_waiters (Nodeset.diff (live t sharers) p.early_acks);
  p.early_acks <- Nodeset.empty

let take_grant t p ~src ~sharers ~acks_expected =
  p.have_data <- true;
  p.reply_src <- src;
  add_ack_debt t p ~sharers;
  ack_collection_class t p ~acks_expected;
  try_complete_store t p

let resolve_target t line =
  let home = home_of line in
  if home = t.id then home
  else
    match t.consumer_table with
    | Some table -> (
        match Consumer.find table line with Some node -> node | None -> home)
    | None -> home

let request t p =
  let target = resolve_target t p.line in
  p.target <- target;
  send t ~dst:target
    (match p.kind with
    | Types.Load -> Get_shared { line = p.line; tid = p.tid }
    | Types.Store -> Get_exclusive { line = p.line; tid = p.tid })

(* A miss the node serves itself: a load from its RAC copy, a store from
   its producer entry, where the whole directory transaction is local and
   only invalidations and their acks cross the network (the "2-hop
   write" of §2.3). *)
let serve_locally t p =
  let line = p.line in
  match (p.kind, t.rac) with
  | Types.Load, Some rac ->
      t.rac_hit_value <- (match Rac.lookup rac line with Some v -> v | None -> assert false);
      arm t ~delay:t.config.rac_hit_latency timer_rac_load p.tid
  | Types.Load, None -> assert false (* the issue row saw the RAC copy *)
  | Types.Store, _ -> (
      let entry =
        match find_producer t line with
        | Some e -> e
        | None -> assert false (* the issue row saw the entry *)
      in
      let step = entry_step t entry Own_store in
      match step.action with
      | Regain ->
          (* exclusivity already held (L2 copy was evicted; data is in the
             pinned RAC entry) *)
          p.have_data <- true;
          p.miss_override <- Some Types.Rac_hit;
          arm t ~delay:t.config.rac_hit_latency timer_store_done p.tid
      | Local_upgrade ->
          let consumers = Nodeset.remove entry.psharers t.id in
          let n = Nodeset.cardinal consumers in
          if n > 0 then Pcc_stats.Histogram.observe t.stats.consumer_hist n;
          entry.update_set <- consumers;
          entry.psharers <- Nodeset.singleton t.id;
          entry.phase <- step.phase;
          refresh_entry_lock t line entry;
          p.have_data <- true;
          add_ack_debt t p ~sharers:consumers;
          p.miss_override <- Some (if n = 0 then Types.Rac_hit else Types.Remote_2hop);
          if Nodeset.is_empty p.ack_waiters then
            (* every consumer may already be dead (crash mode): complete
               after the local-upgrade latency, with no acks to collect *)
            arm t ~delay:t.config.hub_latency timer_store_done p.tid
          else
            Nodeset.iter
              (fun consumer ->
                t.stats.invals_sent <- t.stats.invals_sent + 1;
                Run_stats.note_inval t.stats ~line;
                send_after t ~delay:t.config.hub_latency ~dst:consumer
                  (Inval { line; requester = t.id }))
              consumers
      | _ -> assert false (* the blocking processor is the only writer *))

(* A NACKed attempt never holds a RAC copy, a producer entry or an
   exclusive copy, so its issue row would request again: it does. *)
let schedule_retry t p =
  t.stats.retries <- t.stats.retries + 1;
  let jitter = Pcc_engine.Rng.int t.rng ~bound:16 in
  arm t ~delay:(t.config.nack_retry_delay + jitter) timer_retry p.tid

let retry_fires t tid =
  match t.pending with
  | Some p when p.tid = tid && not p.have_data -> request t p
  | _ -> () (* committed, superseded, or granted while the retry waited *)

(* ------------------------------------------------------------------ *)
(* Home directory                                                      *)
(* ------------------------------------------------------------------ *)

(* Is the requester a Busy entry waits for still the incarnation that
   issued the request?  A requester that crashed — even if it restarted
   since, with a bumped epoch — must not be granted: the grant would
   name an owner that no longer holds (or expects) the line.  An entry
   that never waited has no requester to ask about. *)
let requester_current t (entry : Directory.entry) =
  entry.requester < 0
  || ((not (Hub_link.peer_down t.hub ~peer:entry.requester))
     && Hub_link.peer_epoch t.hub ~peer:entry.requester = entry.requester_epoch)

(* [Directory.home_step] makes every home decision; [home_request] and
   [home_answer] interpret its action with the simulator's side of it:
   latencies, the predictor, statistics, flight notes and crash stamps. *)
let home_step t (entry : Directory.entry) input ~src =
  Directory.home_step entry.state input
    (Directory.role ~owner:entry.owner ~requester:entry.requester src)
    ~current:(requester_current t entry)

(* The sender waits in a Busy entry, stamped with its incarnation. *)
let wait t line (entry : Directory.entry) (step : Directory.step) ~src ~op ~tid =
  set_dstate t line entry step.next;
  entry.requester <- src;
  entry.requester_op <- op;
  entry.requester_tid <- tid;
  entry.requester_epoch <- Hub_link.peer_epoch t.hub ~peer:src

(* A checkpointed value only moves memory forward: versions are monotone. *)
let raise_mem (entry : Directory.entry) value =
  if value > entry.mem_value then entry.mem_value <- value

let take_back t line (entry : Directory.entry) (step : Directory.step) =
  set_dstate t line entry step.next;
  entry.owner <- -1;
  entry.sharers <- Nodeset.empty

let rec home_request t ~src ~(op : Types.op_kind) ~tid line =
  let access = dir_access t line in
  let entry = Directory.entry t.dir line in
  let input = match op with Load -> Directory.Get_shared | Store -> Directory.Get_exclusive in
  let step = home_step t entry input ~src in
  match step.action with
  | Serve -> (
      match op with
      | Load ->
          Predictor.record_read t.params access.predictor ~reader:src
            ~unique:(not (Nodeset.mem entry.sharers src));
          set_dstate t line entry step.next;
          entry.sharers <- Nodeset.add entry.sharers src;
          send_after t
            ~delay:(access.latency + dram_delay t)
            ~dst:src
            (Data_shared { line; value = entry.mem_value; source_is_home = true; tid })
      | Store ->
          Predictor.record_write t.params access.predictor ~writer:src;
          set_dstate t line entry step.next;
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
               }))
  | Grant_or_delegate ->
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
        set_dstate t line entry step.next;
        send_after t
          ~delay:(access.latency + dram_delay t)
          ~dst:src
          (Data_exclusive
             { line; value = entry.mem_value; acks_expected = n; sharers = consumers; tid })
      end
  | Nack_busy ->
      send_after t ~delay:access.latency ~dst:src (Nack { line; reason = Message.Busy; tid })
  | Nack_pending ->
      send_after t ~delay:access.latency ~dst:src
        (Nack { line; reason = Message.Pending; tid })
  | Intervene ->
      Predictor.record_read t.params access.predictor ~reader:src ~unique:true;
      wait t line entry step ~src ~op ~tid;
      t.stats.interventions_sent <- t.stats.interventions_sent + 1;
      send_after t ~delay:access.latency ~dst:entry.owner
        (Intervention { line; requester = src; tid })
  | Transfer ->
      Predictor.record_write t.params access.predictor ~writer:src;
      wait t line entry step ~src ~op ~tid;
      send_after t ~delay:access.latency ~dst:entry.owner
        (Transfer { line; requester = src; tid })
  | Recall ->
      Predictor.record_write t.params access.predictor ~writer:src;
      wait t line entry step ~src ~op ~tid;
      send_after t ~delay:access.latency ~dst:entry.owner
        (Recall { line; requester = src; kind = op })
  | Forward ->
      send_after t ~delay:access.latency ~dst:entry.owner
        (Fwd_get_shared { line; requester = src; tid });
      send_after t ~delay:access.latency ~dst:src (New_home { line; home = entry.owner })
  | Retry_recall | Serve_waiting | Rerun_waiting | Share | Share_with_reader
  | Confirm_transfer | Checkpoint | Take_back | Reclaim | Reclaim_and_rerun | Stale ->
      assert false (* answers' actions *)

(* A request the home stored (or a dead owner left parked) runs again;
   one stored for a node that has died since is dropped: its
   transaction died with it. *)
and home_rerun t (node, op, tid) line =
  if peer_alive t node then home_request t ~src:node ~op ~tid line

(* What an owner, an evictor or a delegated home sends the home. *)
let home_answer t ~src line input (msg : Message.t) =
  let entry = Directory.entry t.dir line in
  let latency =
    match msg with
    | Writeback _ ->
        let access = dir_access t line in
        send_after t ~delay:access.latency ~dst:src (Writeback_ack { line });
        access.latency
    | _ -> 0
  in
  let step = home_step t entry input ~src in
  match (step.action, msg) with
  | Take_back, Writeback { value; _ } ->
      entry.mem_value <- value;
      take_back t line entry step
  | Take_back, Transfer_ack { value; _ } ->
      (match value with Some v -> raise_mem entry v | None -> ());
      take_back t line entry step
  | Serve_waiting, Writeback { value; _ } ->
      entry.mem_value <- value;
      set_dstate t line entry step.next;
      entry.owner <- -1;
      entry.sharers <- Nodeset.singleton entry.requester;
      send_after t
        ~delay:(latency + dram_delay t)
        ~dst:entry.requester
        (Data_shared { line; value; source_is_home = true; tid = entry.requester_tid })
  | Rerun_waiting, Writeback { value; _ } ->
      entry.mem_value <- value;
      take_back t line entry step;
      home_rerun t (entry.requester, entry.requester_op, entry.requester_tid) line
  | (Share | Share_with_reader), Shared_writeback { value; new_sharer; _ } ->
      entry.mem_value <- value;
      set_dstate t line entry step.next;
      (* the served reader joins the sharing vector only if it is still
         the incarnation that asked (its cache died with it otherwise) *)
      entry.sharers <-
        (if step.action = Share_with_reader then Nodeset.add (Nodeset.singleton src) new_sharer
         else Nodeset.singleton src);
      entry.owner <- -1
  | Checkpoint, Shared_writeback { value; _ } ->
      (* the delegated producer checkpoints its freshest value at every
         downgrade so a later crash cannot lose a value survivors
         already observed *)
      raise_mem entry value
  | Confirm_transfer, Transfer_ack { new_owner; value; _ } ->
      (* crash mode: the old owner's final value rides the ack so home
         memory catches up (the new owner may die before writing back) *)
      (match value with Some v -> raise_mem entry v | None -> ());
      set_dstate t line entry step.next;
      entry.owner <- new_owner;
      entry.sharers <- Nodeset.empty
  | (Reclaim | Reclaim_and_rerun), Undelegate { sharers; owner; value; pending; _ } ->
      let stored =
        if step.action = Reclaim_and_rerun then
          Some (entry.requester, entry.requester_op, entry.requester_tid)
        else None
      in
      (match value with Some v -> entry.mem_value <- v | None -> ());
      Directory.reset_predictor t.dir line;
      set_dstate t line entry
        (Directory.reclaimed ~kept_owner:(Option.is_some owner)
           ~sharers:(not (Nodeset.is_empty sharers)));
      (match owner with
      | Some node ->
          entry.owner <- node;
          entry.sharers <- Nodeset.empty
      | None ->
          entry.owner <- -1;
          entry.sharers <- sharers);
      (match pending with
      | Some (node, tid) -> home_rerun t (node, Types.Store, tid) line
      | None -> ());
      (match stored with Some request -> home_rerun t request line | None -> ())
  | Retry_recall, _ ->
      send_after t ~delay:t.config.nack_retry_delay ~dst:entry.owner
        (Recall { line; requester = entry.requester; kind = entry.requester_op })
  | Stale, _ -> ()
  | _, _ -> assert false (* each answer's actions come with its input *)

(* ------------------------------------------------------------------ *)
(* Delegated-home (producer) request handling                          *)
(* ------------------------------------------------------------------ *)

(* A read ([event] [Read]) or a Get_exclusive ([Write]) at a delegated
   home, or at a node that no longer is one. *)
let prod_request t line (event : Delegate_cache.event) ~requester ~tid =
  (* a read from a node known dead died with it *)
  if event = Read && not (peer_alive t requester) then ()
  else
    let found = find_producer t line in
    let step = producer_step t found event in
    match (step.action, found) with
    | (Nack_busy | Nack_not_home), _ ->
        let reason = if step.action = Nack_busy then Message.Busy else Message.Not_home in
        send t ~dst:requester (Nack { line; reason; tid })
    | (Serve | Downgrade_and_serve), Some entry ->
        if step.action = Downgrade_and_serve then begin
          (* serve the read by downgrading early; the remaining consumers
             get their speculative updates now *)
          entry.phase <- step.phase;
          downgrade_and_push t line entry ~exclude:(Some requester)
        end
        else entry.psharers <- Nodeset.add entry.psharers requester;
        send_after t ~delay:t.config.dir_hit_latency ~dst:requester
          (Data_shared { line; value = backing t line; source_is_home = false; tid })
    | (Hold | Hold_and_flush), Some entry ->
        (* the request rides the Undelegate once the fence drops *)
        entry.phase <- step.phase;
        entry.slot <- Held { requester; tid };
        if step.action = Hold_and_flush then start_flush t line entry
    | Give_back_with_request, Some entry ->
        do_undelegate t line entry ~pending:(Some (requester, tid))
    | _ -> assert false (* requests draw only these *)

let on_recall t line =
  let found = find_producer t line in
  let step = producer_step t found Recall in
  match (step.action, found) with
  | Recall_nack, _ ->
      (* either already undelegated (the in-flight Undelegate resolves
         it), or the recall overtook the Delegate still being sent; NACK
         so the home retries until one of the two arrives *)
      send t ~dst:(home_of line) (Recall_nack { line })
  | _, Some entry -> settle t line entry step
  | _, None -> assert false (* no entry draws only the NACK *)

(* ------------------------------------------------------------------ *)
(* Requester-side replies                                              *)
(* ------------------------------------------------------------------ *)

(* The delegation doubles as the store's grant (Fig. 4a).  A line that
   repeatedly timed out on the optimized path stays on the verified base
   protocol, and a full RAC or locked producer set cannot take the
   entry: the node keeps exclusivity and hands the directory back. *)
let refuse_delegation t ~src line =
  t.stats.delegation_refusals <- t.stats.delegation_refusals + 1;
  Run_stats.note_churn t.stats ~line;
  note t ~code:Flight_ring.n_delegation_refused ~line ~arg:0;
  send t ~dst:src
    (Undelegate { line; sharers = Nodeset.empty; owner = Some t.id; value = None; pending = None })

let take_delegation t p ~src ~sharers ~value ~acks_expected =
  let line = p.line in
  (match (t.producer_table, t.rac) with
  | _ when Hashtbl.mem t.fallback_lines line -> refuse_delegation t ~src line
  | Some table, Some rac ->
      (* fence locks age out with the flush window; refresh them so a
         stale lock cannot spuriously refuse this delegation *)
      Producer.iter (fun l e -> refresh_entry_lock t l e) table;
      if not (Rac.fill rac line ~value ~origin:Rac.Delegated) then refuse_delegation t ~src line
      else begin
        let entry =
          {
            phase = Busy;
            psharers = Nodeset.singleton t.id;
            update_set = sharers;
            last_write = Sim.now t.sim;
            burst_start = Sim.now t.sim;
            burst_span_ewma = 0;
            intervention_scheduled = false;
            slot = Free;
            unflushed = Nodeset.empty;
            last_push = 0;
            flush_waiters = Nodeset.empty;
          }
        in
        match Producer.insert table line entry with
        | Producer.Set_locked ->
            t.deledc_pressure <- t.deledc_pressure + 1;
            Rac.invalidate rac line;
            refuse_delegation t ~src line
        | Producer.Inserted victim ->
            (match victim with
            | Some (victim_line, victim_entry) ->
                t.deledc_pressure <- t.deledc_pressure + 1;
                do_undelegate t victim_line victim_entry ~pending:None
            | None -> ());
            Producer.lock table line
      end
  | _ -> refuse_delegation t ~src line);
  take_grant t p ~src ~sharers ~acks_expected

let credit_ack t p ~src =
  if Nodeset.mem p.ack_waiters src then begin
    (* only known debtors are credited: recovery may already have
       credited a dead consumer whose ack was still in flight, and
       timeout-driven re-invalidations can elicit duplicate acks *)
    p.ack_waiters <- Nodeset.remove p.ack_waiters src;
    try_complete_store t p
  end
  else if not p.have_data then
    (* the ack beat the grant that will name its sender as a debtor *)
    p.early_acks <- Nodeset.add p.early_acks src

let owns t tid = match t.pending with Some p -> p.tid = tid | None -> false

(* A reply, invalidation or push reaching the requester side.  [own]:
   does the message's tid name the node's transaction (tid carriers
   only)? *)
let requester_event t ~src line (event : L2.event) ~own (msg : Message.t) =
  match (reply_step t line event ~own, t.pending, msg) with
  | Commit_load, Some p, Data_shared { value; _ } ->
      p.reply_src <- src;
      commit_load t p ~value ~miss:(classify_legs t ~target:p.target ~reply_src:src)
  | Take_grant, Some p, Data_exclusive { acks_expected; sharers; _ } ->
      take_grant t p ~src ~sharers ~acks_expected
  | Take_delegation, Some p, Delegate { sharers; value; acks_expected; _ } ->
      take_delegation t p ~src ~sharers ~value ~acks_expected
  | Return_delegation, _, Delegate { sharers; value; _ } ->
      send t ~dst:src
        (Undelegate { line; sharers; owner = None; value = Some value; pending = None })
  | ((Retry | Retry_unhinted) as action), Some p, Nack _ ->
      t.stats.nacks_received <- t.stats.nacks_received + 1;
      (match (action, t.consumer_table) with
      | Retry_unhinted, Some table -> Consumer.remove table line
      | _ -> ());
      schedule_retry t p
  | Credit_ack, Some p, Inv_ack _ -> credit_ack t p ~src
  | ((Invalidate | Invalidate_and_poison) as action), _, Inval { requester; _ } ->
      invalidate t line action;
      send t ~dst:requester (Inv_ack { line })
  | Commit_update, Some p, Update { value; _ } ->
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
  | Fill_rac, _, Update { value; _ } -> (
      match t.rac with
      | Some rac -> ignore (Rac.fill rac line ~value ~origin:Rac.Pushed_update)
      | None -> ())
  | Drop, _, _ -> ()
  | _ -> assert false (* each action comes with its event *)

let on_new_home t line ~new_home =
  match t.consumer_table with
  | Some table when new_home <> t.id ->
      if Consumer.insert table line new_home then
        t.deledc_pressure <- t.deledc_pressure + 1
  | Some _ | None -> ()

let on_update_flush_ack t ~src line =
  match find_producer t line with
  | None -> () (* stale ack; the line was already undelegated *)
  | Some entry -> flush_ack_credit t line entry ~src

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let handle_message t ~src (msg : Message.t) =
  Probe.recv t.probe ~src ~dst:t.id msg;
  match msg with
  | Get_shared { line; tid } ->
      if home_of line = t.id then home_request t ~src ~op:Types.Load ~tid line
      else prod_request t line Read ~requester:src ~tid
  | Fwd_get_shared { line; requester; tid } -> prod_request t line Read ~requester ~tid
  | Get_exclusive { line; tid } ->
      if home_of line = t.id then home_request t ~src ~op:Types.Store ~tid line
      else prod_request t line Write ~requester:src ~tid
  | Writeback { line; _ } -> home_answer t ~src line Directory.Writeback msg
  | Writeback_ack { line } -> Hashtbl.remove t.wb_pending line
  | Inval { line; _ } -> requester_event t ~src line Inval ~own:false msg
  | Intervention { line; requester; tid } -> forwarded t line Intervention ~requester ~tid
  | Transfer { line; requester; tid } -> forwarded t line Transfer ~requester ~tid
  | Transfer_ack { line; _ } -> home_answer t ~src line Directory.Transfer_ack msg
  | Data_shared { line; tid; _ } -> requester_event t ~src line Data_shared ~own:(owns t tid) msg
  | Data_exclusive { line; tid; _ } ->
      requester_event t ~src line Data_exclusive ~own:(owns t tid) msg
  | Inv_ack { line } -> requester_event t ~src line Inv_ack ~own:false msg
  | Shared_writeback { line; _ } -> home_answer t ~src line Directory.Shared_writeback msg
  | Nack { line; reason = Not_home; tid } ->
      requester_event t ~src line Nack_not_home ~own:(owns t tid) msg
  | Nack { line; reason = Busy | Pending; tid } ->
      requester_event t ~src line Nack ~own:(owns t tid) msg
  | Delegate { line; tid; _ } -> requester_event t ~src line Delegate ~own:(owns t tid) msg
  | New_home { line; home } -> on_new_home t line ~new_home:home
  | Recall { line; requester = _; kind = _ } -> on_recall t line
  | Recall_nack { line } -> home_answer t ~src line Directory.Recall_nack msg
  | Undelegate { line; _ } -> home_answer t ~src line Directory.Undelegate msg
  | Update { line; _ } -> requester_event t ~src line Update ~own:false msg
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
   transaction that sits unfinished for the timeout requests again —
   unless it already holds data and is merely collecting acks, which
   duplicate requests could corrupt — and records a strike that may
   demote the line to the base protocol.  The timer re-arms with
   exponential backoff so a genuinely slow transaction is not hammered,
   up to [txn_timeout_cap] cycles.  The timer is cancelled when the
   transaction ends ([end_txn]), so it runs only on a transaction still
   pending. *)
let txn_timeout_cap = 80_000

let arm_txn_timeout t p ~delay =
  t.timeout <- Sim.schedule_timer t.sim ~delay t.on_timer (timer_arg t timer_timeout p.tid)

let txn_timeout_fires t tid =
  match t.pending with
  | Some p when p.tid = tid ->
      t.stats.txn_timeouts <- t.stats.txn_timeouts + 1;
      p.timeouts <- p.timeouts + 1;
      note t ~code:Flight_ring.n_timeout ~line:p.line ~arg:p.timeouts;
      note_strike t p.line;
      (if not p.have_data then request t p
       else if t.crashable then
         (* a consumer that crashed and restarted lost the original
            invalidation with its cache: re-invalidate the remaining
            live debtors (idempotent — the debtor-set accounting ignores
            acks from nodes no longer owed) *)
         Nodeset.iter
           (fun dst ->
             if peer_alive t dst then send t ~dst (Inval { line = p.line; requester = t.id }))
           p.ack_waiters);
      arm_txn_timeout t p
        ~delay:(min txn_timeout_cap (t.config.txn_timeout lsl min p.timeouts 10))
  | _ -> () (* the transaction ended; [end_txn] cancels its timer *)

(* The issue row, for the L2 lookup [entry].  Only a miss reads [local];
   its probes touch no recency. *)
let issue_step t (kind : Types.op_kind) line entry =
  let copy = L2.copy_of entry in
  match kind with
  | Load ->
      L2.requester_step copy Idle ~own:false ~wb:false
        ~local:(match t.rac with Some rac -> Rac.contains rac line | None -> false)
        Issue_load
  | Store ->
      L2.requester_step copy Idle ~own:false ~wb:false
        ~local:
          (match t.producer_table with
          | Some table -> Option.is_some (Producer.peek table line)
          | None -> false)
        Issue_store

let start_miss t ~kind ~line ~on_commit (action : L2.action) =
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
      ack_waiters = Nodeset.empty;
      early_acks = Nodeset.empty;
      have_data = false;
      poisoned = false;
      miss_override = None;
      deferred = [];
    }
  in
  t.pending <- Some p;
  (match action with
  | Local -> serve_locally t p
  | Request -> request t p
  | _ -> assert false (* a miss draws only these *));
  if Config.hardened t.config && t.config.txn_timeout > 0 then
    arm_txn_timeout t p ~delay:t.config.txn_timeout

(* An L2 hit commits after the hit latency, in a closure that carries
   its line, value and continuation; [hit_held] marks it in flight, so
   [submit] refuses a second operation meanwhile.  It stays a closure:
   with the hit's state held in node fields for a typed timer, the
   two-domain crash sweep segfaulted in the OCaml 5.1.1 runtime's major
   GC (ROADMAP, hot-path item), and with the closure it ran clean. *)
let submit t ~kind ~line ~on_commit =
  if busy t then invalid_arg "Node.submit: operation already pending";
  Probe.issue t.probe ~node:t.id ~kind ~line;
  (match kind with
  | Types.Load -> t.stats.loads <- t.stats.loads + 1
  | Types.Store -> t.stats.stores <- t.stats.stores + 1);
  let entry = L2.lookup t.l2 line in
  match (issue_step t kind line entry, kind, entry) with
  | Hit, Types.Load, Some { value; _ } ->
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      t.hit_held <- true;
      let started = Sim.now t.sim and epoch = t.node_epoch in
      Sim.schedule t.sim ~delay:t.config.l2_hit_latency (fun () ->
          if current t epoch then begin
            t.hit_held <- false;
            Probe.commit t.probe ~node:t.id ~kind:Types.Load ~line ~value ~started ~miss:None;
            on_commit ()
          end)
  | Hit, Types.Store, _ ->
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      t.hit_held <- true;
      let started = Sim.now t.sim and epoch = t.node_epoch in
      Sim.schedule t.sim ~delay:t.config.l2_hit_latency (fun () ->
          if current t epoch then begin
            t.hit_held <- false;
            match issue_step t Types.Store line (L2.peek t.l2 line) with
            | Hit ->
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
            | action ->
                (* lost exclusivity in the hit window: the miss path
                   counts this access, so it was no hit *)
                t.stats.l2_hits <- t.stats.l2_hits - 1;
                start_miss t ~kind:Types.Store ~line ~on_commit action
          end)
  | Hit, Types.Load, None -> assert false (* a load hits only a copy *)
  | action, _, _ -> start_miss t ~kind ~line ~on_commit action

(* The one handler of every node timer.  A timer that is not [current]
   does nothing but free its outbox slot. *)
let run_timer t arg =
  let kind = arg land ((1 lsl kind_bits) - 1)
  and epoch = (arg lsr kind_bits) land ((1 lsl epoch_bits) - 1)
  and payload = arg lsr (kind_bits + epoch_bits) in
  let current = current t epoch in
  if kind = timer_send_out then outbox_fires t payload ~current
  else if not current then ()
  else if kind = timer_rac_load then (
    match t.pending with
    | Some p when p.tid = payload -> commit_load t p ~value:t.rac_hit_value ~miss:Types.Rac_hit
    | _ -> ())
  else if kind = timer_store_done then (
    match t.pending with Some p when p.tid = payload -> try_complete_store t p | _ -> ())
  else if kind = timer_retry then retry_fires t payload
  else if kind = timer_intervention then intervention_fires t payload
  else txn_timeout_fires t payload

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
      timeout = Sim.no_handle;
      hit_held = false;
      rac_hit_value = 0;
      ob_dst = [||];
      ob_msg = [||];
      ob_free = [||];
      ob_free_top = 0;
      on_timer = ignore;
      alive = true;
      node_epoch = 0;
    }
  in
  handler := (fun ~src msg -> handle_message t ~src msg);
  t.on_timer <- (fun arg -> run_timer t arg);
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
    let entry = L2.peek node.l2 line in
    v.l2.(n) <- L2.copy_of entry;
    (match entry with Some { value; _ } -> v.l2_value.(n) <- value | None -> ());
    (match rac_value node line with
    | Some value ->
        v.rac.(n) <- true;
        v.rac_value.(n) <- value
    | None -> v.rac.(n) <- false);
    match (match node.producer_table with Some t -> Producer.peek t line | None -> None) with
    | Some p ->
        v.phase.(n) <- p.phase;
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

(* Drop a (stale) cached copy during recovery: an [Inval] with no
   requester to acknowledge.  A pending load on the line commits without
   caching, exactly as if an invalidation had overtaken it. *)
let recovery_invalidate t line = invalidate t line (reply_step t line Inval ~own:false)

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
        home_rerun t (entry.requester, entry.requester_op, entry.requester_tid) line
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
   same applies to a Busy entry whose transfer can no longer resolve,
   and to a Dele entry whose live owner holds no producer entry: [t]
   records Dele before it sends the Delegate, and a Delegate that had
   not landed by detection never will (the victim's old-epoch frames are
   discarded), so the owner would be NACKed Busy as its own home
   forever.  In every case, if a survivor still carries a resolution
   frame for the line (requeued at detection, delivered after restart),
   leave the entry alone — that frame is the authoritative fix. *)
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
  | Directory.Dele ->
      if
        owner_live
        && Option.is_none (find_producer nodes.(owner) line)
        && not (resolution_in_flight nodes ~dead:t.id ~state:entry.state line)
      then begin
        rebuild_stable_from_survivors t nodes line entry;
        t.stats.crash_pruned <- t.stats.crash_pruned + 1
      end
  | Directory.Unowned | Directory.Shared_s -> ()

(* Fail-stop crash: every volatile structure on the node dies.  The
   directory and home memory live on the battery-backed memory
   controller and survive (the recovery sweep repairs them).  The
   interrupted transaction's completion timeout is cancelled and an L2
   hit in flight is dropped; every other timer armed by this incarnation
   is neutralized by [run_timer]'s epoch guard. *)
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
  end_txn t;
  t.hit_held <- false;
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
  (* a timer's argument holds [epoch_bits] of the epoch it was armed in *)
  if victim.node_epoch + 1 >= 1 lsl epoch_bits then
    invalid_arg "Node.recover_after_crash: too many crashes of one node";
  victim.node_epoch <- victim.node_epoch + 1;
  let stats = victim.stats in
  (* 1. Per-survivor surgery: links, routing hints, producer
     bookkeeping, wedged transactions. *)
  Array.iter
    (fun node ->
      if node.id <> dead then begin
        (* updates are fire-and-forget, and the producer bookkeeping below
           forgets the victim: a requeued update would install a copy no
           later invalidation reaches.  A forwarded Intervention or
           Transfer asks the dead incarnation for a copy it no longer
           holds; delivered to the restarted node, it would wait behind
           that node's next store and then give away the fresh copy the
           home still records as the old one.  Recovery rebuilds every
           entry the victim owned and re-serves the waiting requester
           instead (rebuild_dead_owner). *)
        if will_restart then
          Hub_link.requeue_peer node.hub ~peer:dead ~droppable:(function
            | Message.Update _ | Message.Intervention _ | Message.Transfer _ -> true
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
                (match entry.slot with
                | Held { requester; _ } when requester = dead ->
                    (* still give the line back, just not to the dead
                       requester *)
                    entry.slot <- Recalled
                | Free | Recalled | Held _ -> ());
                if Nodeset.mem entry.flush_waiters dead then
                  flushes := (line, entry) :: !flushes)
              table;
            (* credited outside the iteration: completing a flush round
               can undelegate, which mutates the table being iterated *)
            List.iter (fun (line, entry) -> flush_ack_credit node line entry ~src:dead)
              (List.rev !flushes)
        | None -> ());
        (match node.pending with
        | Some p when Nodeset.mem p.ack_waiters dead ->
            (* the dead node can no longer acknowledge — and its copy
               died with it, which is all the invalidation wanted *)
            stats.crash_rescued <- stats.crash_rescued + 1;
            credit_ack node p ~src:dead
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
