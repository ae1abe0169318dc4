module Sim = Pcc_engine.Simulator

(* ------------------------------------------------------------------ *)
(* State                                                               *)
(* ------------------------------------------------------------------ *)

(* One outstanding processor transaction at its requester.  A bus
   transaction completes — and releases the bus — only once every snoop
   response is in, the data source has delivered (cache-to-cache flush
   when an owner exists, the home's memory word otherwise), and every
   write-back it displaced has been acknowledged by home memory. *)
type pending = {
  kind : Types.op_kind;
  line : Types.line;
  started : int;
  tid : int;
  on_commit : unit -> unit;
  mutable granted : bool;
  mutable upgrade : bool;  (* command went out as Bus_upgr: no data leg *)
  mutable resp_needed : int;  (* snoop responses still outstanding *)
  mutable shared_seen : bool;
  mutable owner_seen : bool;
  mutable supplied : int option;  (* cache-to-cache flush value *)
  mutable mem_value : int option;  (* home memory word *)
  mutable wb_expected : int;  (* home acks owed: dirty flushes + victims *)
  mutable wb_received : int;
  mutable filled : bool;  (* the L2 fill (and victim eviction) ran *)
}

type t = {
  config : Config.t;
  sim : Sim.t;
  probe : Probe.t;
  hub : Message.t Hub_link.t;
  id : Types.node_id;
  stats : Run_stats.t;
  next_version : unit -> int;
  table : Mesi.t;
  l2 : L2.t;
  dram : Pcc_memory.Dram.t;
  mem : (Types.line, int) Hashtbl.t;
      (* home memory for this node's slice; absent lines read 0, matching
         the SC checker's before-time initial value *)
  bus : bus;
  class_cells : int ref option array;
  mutable next_tid : int;
  mutable pending : pending option;
}

(* The machine-wide bus: a round-robin arbiter over the nodes.  [rr] is
   where the next grant scan starts, so a node that just transacted goes
   to the back of the queue; the scan order is deterministic, keeping
   runs byte-identical at every --jobs level.  [responses] holds the
   granted transaction's four plain snoop responses (see [on_grant]). *)
and bus = {
  mutable granted_to : Types.node_id option;
  mutable rr : int;
  waiting : bool array;
  mutable members : t array;  (* back-pointers, filled at machine creation *)
  responses : Message.t array;
}

let home_of line = Types.Layout.home_of_line line

let mem_read t line = match Hashtbl.find_opt t.mem line with Some v -> v | None -> 0

let mem_write t line value = Hashtbl.replace t.mem line value

(* ------------------------------------------------------------------ *)
(* Messaging and timing helpers (mirrors the adaptive node's hot path) *)
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

let dram_delay t =
  let now = Sim.now t.sim in
  Pcc_memory.Dram.access t.dram ~now - now

(* a committed store installs a fresh version in the table's state *)
let write_version t line =
  let version = t.next_version () in
  L2.set t.l2 line (Mesi.entry (Mesi.fill t.table Types.Store ~shared:false) version);
  version

(* ------------------------------------------------------------------ *)
(* Bus arbitration                                                     *)
(* ------------------------------------------------------------------ *)

let rec try_grant bus =
  if bus.granted_to = None then begin
    let n = Array.length bus.waiting in
    let granted = ref false in
    let i = ref 0 in
    while (not !granted) && !i < n do
      let candidate = (bus.rr + !i) mod n in
      if bus.waiting.(candidate) then begin
        granted := true;
        bus.waiting.(candidate) <- false;
        bus.rr <- (candidate + 1) mod n;
        bus.granted_to <- Some candidate;
        let node = bus.members.(candidate) in
        (* arbitration costs one hub traversal *)
        Sim.schedule node.sim ~delay:node.config.hub_latency (fun () ->
            on_grant node)
      end;
      incr i
    done
  end

and release_bus t =
  assert (t.bus.granted_to = Some t.id);
  t.bus.granted_to <- None;
  try_grant t.bus

and request_bus t =
  t.bus.waiting.(t.id) <- true;
  try_grant t.bus

(* ------------------------------------------------------------------ *)
(* Requester side: grant, completion, commit                           *)
(* ------------------------------------------------------------------ *)

(* The command is chosen at grant time, not submit time: a store that
   held an S copy when it missed may have lost it to another node's
   Bus_rdx while waiting for the bus, turning its upgrade into a full
   read-exclusive. *)
and on_grant t =
  match t.pending with
  | None ->
      (* the operation vanished (cannot happen without crashes); free the
         bus rather than wedging the machine *)
      release_bus t
  | Some p ->
      p.granted <- true;
      p.resp_needed <- t.config.nodes - 1;
      let line = p.line in
      let tid = p.tid in
      let cmd =
        match Mesi.request (Mesi.state_of (L2.peek t.l2 line)) p.kind with
        | Mesi.Bus Rd -> Message.Bus_rd { line; tid }
        | Mesi.Bus Rdx -> Message.Bus_rdx { line; tid }
        | Mesi.Bus Upgr ->
            p.upgrade <- true;
            Message.Bus_upgr { line; tid }
        | Mesi.Hit -> assert false (* only this node's own fill adds a copy *)
      in
      (* Most snoopers answer with neither a flush nor the memory word:
         those answers are one of four records, built here once and sent
         by every snooper, as [cmd] is by every send.  The bus stays
         granted until the last answer is in, so a snooper always finds
         its transaction's records. *)
      for k = 0 to 3 do
        t.bus.responses.(k) <-
          Message.Snoop_resp
            {
              line;
              tid;
              shared = k land 2 <> 0;
              owner = k land 1 <> 0;
              flushed_home = false;
              mem_value = None;
            }
      done;
      for dst = 0 to t.config.nodes - 1 do
        if dst <> t.id then send t ~dst cmd
      done;
      if home_of line = t.id && not p.upgrade then begin
        (* the local memory read proceeds in parallel with the snoop *)
        let delay = dram_delay t in
        Sim.schedule t.sim ~delay (fun () ->
            match t.pending with
            | Some q when q == p ->
                p.mem_value <- Some (mem_read t line);
                try_complete t p
            | Some _ | None -> ())
      end;
      try_complete t p (* a 1-node machine has no snoopers to wait for *)

(* Victims displaced by the fill: dirty exclusive lines must reach home
   memory before the bus is released (a later Bus_rd would otherwise
   read the stale word); clean lines drop silently. *)
and handle_victim t p = function
  | Some L2.{ victim_line; victim_entry = { value; _ } as victim_entry }
    when Mesi.evict_writes_back (Mesi.state_of_entry victim_entry) ->
      t.stats.writebacks <- t.stats.writebacks + 1;
      if home_of victim_line = t.id then mem_write t victim_line value
      else begin
        p.wb_expected <- p.wb_expected + 1;
        send t ~dst:(home_of victim_line) (Bus_wb { line = victim_line; value })
      end
  | Some _ | None -> ()

(* the owner's cache-to-cache copy, else the home's memory word *)
and received p =
  match (p.owner_seen, p.supplied, p.mem_value) with
  | true, Some v, _ | false, _, Some v -> v
  | _ -> assert false (* guarded by [data_ready] *)

(* a store's M copy holds the old word until the commit writes its
   version; the bus stays held, so nobody sees it *)
and do_fill t p =
  p.filled <- true;
  let st = Mesi.fill t.table p.kind ~shared:(p.shared_seen || p.owner_seen) in
  handle_victim t p (L2.fill t.l2 p.line (Mesi.entry st (received p)))

and try_complete t p =
  if p.granted && p.resp_needed = 0 then begin
    let data_ready =
      p.upgrade
      || (if p.owner_seen then p.supplied <> None else p.mem_value <> None)
    in
    if data_ready then begin
      if (not p.filled) && not p.upgrade then do_fill t p;
      if p.wb_received >= p.wb_expected then commit t p
    end
  end

and commit t p =
  let now = Sim.now t.sim in
  let miss =
    (* the bus is one shared hop: a transaction whose data came from the
       requester's own memory is local, everything else is the 2-hop
       command/response round trip (3-hop forwarding never happens on a
       bus) *)
    if home_of p.line = t.id && not p.owner_seen then Types.Local_mem
    else Types.Remote_2hop
  in
  let value =
    match p.kind with Types.Load -> received p | Types.Store -> write_version t p.line
  in
  Run_stats.record_miss t.stats miss ~line:p.line ~latency:(now - p.started);
  t.pending <- None;
  release_bus t;
  Probe.commit t.probe ~node:t.id ~kind:p.kind ~line:p.line ~value ~started:p.started
    ~miss:(Some miss);
  p.on_commit ()

(* ------------------------------------------------------------------ *)
(* Snooper side                                                        *)
(* ------------------------------------------------------------------ *)

(* The command's row of the table decides the snooper's next state,
   whether it supplies its copy and whether its dirty word goes home;
   this side moves the messages.  A row that kills every copy takes the
   pre-state from the invalidation itself, with no separate probe. *)
let on_bus_cmd t ~requester ~tid (row : Mesi.row) line =
  let entry = if row.kills then L2.invalidate t.l2 line else L2.peek t.l2 line in
  let before = Mesi.state_of entry in
  let r = Mesi.react row before in
  let value = match entry with Some e -> e.value | None -> 0 in
  if r.next <> before && not row.kills then L2.set t.l2 line (Mesi.entry r.next value);
  (* dirty data reaches home memory before the requester releases the
     bus; when home is the requester, the single flush below updates it *)
  let home = home_of line in
  let flushed_home = r.writeback && home <> t.id && home <> requester in
  if r.writeback && home = t.id then mem_write t line value;
  if flushed_home then
    send t ~dst:home (Bus_flush { line; value; tid; requester; dirty = true });
  if r.supply then
    send t ~dst:requester
      (Bus_flush { line; value; tid; requester; dirty = r.writeback && home = requester });
  let shared = r.shared and owner = r.owner in
  (* Every snooper answers; a data command's home answer also carries the
     memory word, read in parallel with the snoop and so a DRAM access
     late.  An upgrade moves no data: even the home answers at once. *)
  if home = t.id && row.cmd <> Upgr then
    Sim.schedule t.sim ~delay:(dram_delay t) (fun () ->
        let mem_value = Some (mem_read t line) in
        send t ~dst:requester
          (Snoop_resp { line; tid; shared; owner; flushed_home; mem_value }))
  else if flushed_home then
    send t ~dst:requester
      (Snoop_resp { line; tid; shared; owner; flushed_home; mem_value = None })
  else
    send t ~dst:requester
      t.bus.responses.((if shared then 2 else 0) + if owner then 1 else 0)

let on_bus_flush t ~line ~value ~tid ~requester ~dirty =
  if dirty && home_of line = t.id then mem_write t line value;
  if requester = t.id then (
    match t.pending with
    | Some p when p.tid = tid && p.line = line ->
        p.supplied <- Some value;
        try_complete t p
    | Some _ | None -> ())
  else if dirty && home_of line = t.id then
    (* route the memory-update confirmation to the bus holder *)
    send t ~dst:requester (Bus_wb_ack { line; tid })

let on_snoop_resp t ~line ~tid ~shared ~owner ~flushed_home ~mem_value =
  match t.pending with
  | Some p when p.tid = tid && p.line = line ->
      p.resp_needed <- p.resp_needed - 1;
      if shared then p.shared_seen <- true;
      if owner then p.owner_seen <- true;
      if flushed_home then p.wb_expected <- p.wb_expected + 1;
      (match mem_value with Some v -> p.mem_value <- Some v | None -> ());
      try_complete t p
  | Some _ | None -> ()

let on_bus_wb t ~src ~line ~value =
  mem_write t line value;
  send t ~dst:src (Bus_wb_ack { line; tid = 0 })

let on_bus_wb_ack t =
  (* credits the bus holder's write-back debt, whichever line it was
     for: at most one transaction is in flight machine-wide *)
  match t.pending with
  | Some p ->
      p.wb_received <- p.wb_received + 1;
      try_complete t p
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Message dispatch                                                    *)
(* ------------------------------------------------------------------ *)

let handle_message t ~src (msg : Message.t) =
  Probe.recv t.probe ~src ~dst:t.id msg;
  match msg with
  | Bus_rd { line; tid } -> on_bus_cmd t ~requester:src ~tid (Mesi.row t.table Rd) line
  | Bus_rdx { line; tid } -> on_bus_cmd t ~requester:src ~tid (Mesi.row t.table Rdx) line
  | Bus_upgr { line; tid } -> on_bus_cmd t ~requester:src ~tid (Mesi.row t.table Upgr) line
  | Bus_flush { line; value; tid; requester; dirty } ->
      on_bus_flush t ~line ~value ~tid ~requester ~dirty
  | Snoop_resp { line; tid; shared; owner; flushed_home; mem_value } ->
      on_snoop_resp t ~line ~tid ~shared ~owner ~flushed_home ~mem_value
  | Bus_wb { line; value } -> on_bus_wb t ~src ~line ~value
  | Bus_wb_ack _ -> on_bus_wb_ack t
  | Get_shared _ | Get_exclusive _ | Writeback _ | Writeback_ack _ | Inval _
  | Intervention _ | Transfer _ | Transfer_ack _ | Data_shared _ | Data_exclusive _
  | Inv_ack _ | Shared_writeback _ | Nack _ | Delegate _ | New_home _
  | Fwd_get_shared _ | Recall _ | Recall_nack _ | Undelegate _ | Update _
  | Update_flush _ | Update_flush_ack _ ->
      invalid_arg "Snoop.handle: directory-protocol message on the snooping backend"

(* ------------------------------------------------------------------ *)
(* Processor interface                                                 *)
(* ------------------------------------------------------------------ *)

let start_miss t ~kind ~line ~on_commit =
  let p =
    {
      kind;
      line;
      started = Sim.now t.sim;
      tid = t.next_tid;
      on_commit;
      granted = false;
      upgrade = false;
      resp_needed = 0;
      shared_seen = false;
      owner_seen = false;
      supplied = None;
      mem_value = None;
      wb_expected = 0;
      wb_received = 0;
      filled = false;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.pending <- Some p;
  request_bus t

let submit t ~kind ~line ~on_commit =
  if t.pending <> None then invalid_arg "Snoop.submit: operation already pending";
  let started = Sim.now t.sim in
  Probe.issue t.probe ~node:t.id ~kind ~line;
  (match kind with
  | Types.Load -> t.stats.loads <- t.stats.loads + 1
  | Types.Store -> t.stats.stores <- t.stats.stores + 1);
  let entry = L2.lookup t.l2 line in
  match (Mesi.request (Mesi.state_of entry) kind, entry) with
  | Mesi.Hit, Some { value; _ } when kind = Types.Load ->
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      Sim.schedule t.sim ~delay:t.config.l2_hit_latency (fun () ->
          Probe.commit t.probe ~node:t.id ~kind:Types.Load ~line ~value ~started
            ~miss:None;
          on_commit ())
  | Mesi.Hit, _ ->
      t.stats.l2_hits <- t.stats.l2_hits + 1;
      Sim.schedule t.sim ~delay:t.config.l2_hit_latency (fun () ->
          match Mesi.request (Mesi.state_of (L2.peek t.l2 line)) Types.Store with
          | Mesi.Hit ->
              (* M hit, or MESI's silent E->M upgrade *)
              let version = write_version t line in
              Probe.commit t.probe ~node:t.id ~kind:Types.Store ~line ~value:version
                ~started ~miss:None;
              on_commit ()
          | Mesi.Bus _ ->
              (* lost exclusivity in the hit window: the miss path counts
                 this access, so it was no hit *)
              t.stats.l2_hits <- t.stats.l2_hits - 1;
              start_miss t ~kind ~line ~on_commit)
  | Mesi.Bus _, _ -> start_miss t ~kind ~line ~on_commit

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)
(* ------------------------------------------------------------------ *)

let create_node ~probe ~config ~sim ~network ~id ~stats ~next_version ~rng ~table ~bus
    () =
  let l2 =
    L2.create ~rng:(Pcc_engine.Rng.split rng) ~lines:(Config.l2_lines config)
      ~ways:config.l2_ways ()
  in
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
      table;
      l2;
      dram = Pcc_memory.Dram.create ~latency:config.dram_latency ();
      mem = Hashtbl.create 64;
      bus;
      class_cells = Array.make Message.class_count None;
      next_tid = 0;
      pending = None;
    }
  in
  handler := (fun ~src msg -> handle_message t ~src msg);
  t

let create_machine ~probe ~(config : Config.t) ~sim ~network ~stats ~next_version ~rng
    () =
  if config.protocol = Types.Adaptive then
    invalid_arg "Snoop.create_machine: adaptive config on the snooping backend";
  if Config.crash_capable config then
    invalid_arg "Snoop.create_machine: fail-stop crashes are not supported";
  let table = Mesi.make config.protocol config.inject_fault in
  let bus =
    {
      granted_to = None;
      rr = 0;
      waiting = Array.make config.nodes false;
      members = [||];
      responses = Array.make 4 (Message.Bus_wb_ack { line = 0; tid = 0 });
          (* placeholders until the first grant *)
    }
  in
  let nodes =
    Array.init config.nodes (fun id ->
        create_node ~probe ~config ~sim ~network ~id ~stats ~next_version
          ~rng:(Pcc_engine.Rng.split rng)
          ~table ~bus ())
  in
  bus.members <- nodes;
  nodes

(* ------------------------------------------------------------------ *)
(* Inspection and invariants                                           *)
(* ------------------------------------------------------------------ *)

let l2_state t line = L2.peek t.l2 line

let iter_l2 t f = L2.iter f t.l2

let pending_op t = match t.pending with Some p -> Some (p.kind, p.line) | None -> None

let pending_info t =
  match t.pending with Some p -> Some (p.kind, p.line, p.started, 0) | None -> None

let hub_in_flight t = Hub_link.in_flight t.hub

let link_retransmits t = Hub_link.retransmits_by_link t.hub

let copy_state (_, e) = Mesi.state_of_entry e

let copy_value (_, (e : L2.entry)) = e.value

let describe_copy (n, e) =
  Printf.sprintf "n%d:%s=%d" n (Mesi.state_name (Mesi.state_of_entry e)) e.L2.value

(* Machine-wide structural invariants over a quiesced system: the bus
   drained, and every line passes the table's per-line invariants. *)
let check_invariants nodes =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  if Array.length nodes > 0 then begin
    let bus = nodes.(0).bus in
    (match bus.granted_to with
    | Some n -> err "bus still granted to node %d after drain" n
    | None -> ());
    Array.iteri
      (fun n w -> if w then err "node %d still waiting for the bus after drain" n)
      bus.waiting
  end;
  Array.iter
    (fun node ->
      if node.pending <> None then
        err "node %d has a pending transaction after drain" node.id)
    nodes;
  (* gather per-line copies across the machine *)
  let lines = Hashtbl.create 64 in
  Array.iter
    (fun node ->
      iter_l2 node (fun line entry ->
          let copies =
            match Hashtbl.find_opt lines line with Some c -> c | None -> []
          in
          Hashtbl.replace lines line ((node.id, entry) :: copies)))
    nodes;
  let sorted_lines =
    Hashtbl.fold (fun line copies acc -> (line, copies) :: acc) lines []
    |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
  in
  List.iter
    (fun (line, copies) ->
      let mem = mem_read nodes.(home_of line) line in
      List.iter
        (fun inv ->
          err "line %d@%d: %s broken by [%s], home memory %d"
            (Types.Layout.index_of_line line)
            (Types.Layout.home_of_line line)
            (Mesi.invariant_name inv)
            (String.concat " " (List.map describe_copy copies))
            mem)
        (Mesi.violations nodes.(0).table ~state:copy_state ~value:copy_value ~mem copies))
    sorted_lines;
  List.rev !errors
