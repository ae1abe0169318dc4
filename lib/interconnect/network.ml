module Simulator = Pcc_engine.Simulator

type latency_mode = Uniform | Proportional

type config = {
  hop_latency : int;
  local_latency : int;
  min_packet_bytes : int;
  port_bytes_per_cycle : int;
  mode : latency_mode;
}

let default_config =
  {
    hop_latency = 100;
    local_latency = 16;
    min_packet_bytes = 32;
    port_bytes_per_cycle = 8;
    mode = Uniform;
  }

(* Fail-stop bookkeeping, allocated only when the fault profile schedules
   crashes.  [epoch] is a per-node incarnation number: every packet
   captures the current (src, dst) epochs when it is scheduled, and a
   delivery whose captured epochs no longer match is stale pre-crash
   traffic and is discarded.  [down] packets are simply lost, as on a
   dead hub. *)
type crash_state = { down : bool array; epoch : int array }

(* In-flight packets live in a slot table: the delivery event is a typed
   engine event whose argument is the packet's slot, so sending a packet
   allocates neither a closure nor a tuple.  Slots are recycled through a
   free stack; a delivered slot's payload is overwritten with [filler]
   (the first payload ever sent) so the table never keeps a dead payload
   alive into the major heap.  [pk_tag] is the sender's int header field
   (0 from [send]).  The epoch columns are used only on crash-capable
   machines. *)
type 'a t = {
  sim : Simulator.t;
  topology : Topology.t;
  config : config;
  faults : Fault.t option;
  crash : crash_state option;
  receivers : (src:int -> tag:int -> 'a -> unit) option array;
  egress_free : int array; (* per-node egress port availability *)
  ingress_free : int array;
  arrivals : int array;  (* Fault.plan's output buffer *)
  mutable pk_src : int array;
  mutable pk_dst : int array;
  mutable pk_tag : int array;
  mutable pk_src_epoch : int array;
  mutable pk_dst_epoch : int array;
  mutable pk_payload : 'a array;  (* [||] until the first packet *)
  mutable filler : 'a option;
  mutable pk_free : int array;  (* pk_free.(0 .. pk_free_top-1): unused slots *)
  mutable pk_free_top : int;
  mutable deliver_slot : int -> unit;  (* the delivery event's handler *)
  mutable messages : int;
  mutable bytes : int;
  mutable hops : int;
}

let initial_packets = 64

let set_tagged_receiver t ~node handler = t.receivers.(node) <- Some handler

let set_receiver t ~node handler =
  set_tagged_receiver t ~node (fun ~src ~tag:_ payload -> handler ~src payload)

let fault_stats t = Option.map Fault.stats t.faults

let extend a capacity filler =
  let b = Array.make capacity filler in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Double the packet table; every slot is taken when this runs, so the
   free stack becomes exactly the new slots. *)
let grow_packets t payload =
  let old = Array.length t.pk_src in
  let capacity = max initial_packets (2 * old) in
  let filler =
    match t.filler with
    | Some filler -> filler
    | None ->
        t.filler <- Some payload;
        payload
  in
  t.pk_src <- extend t.pk_src capacity 0;
  t.pk_dst <- extend t.pk_dst capacity 0;
  t.pk_tag <- extend t.pk_tag capacity 0;
  if t.crash <> None then begin
    t.pk_src_epoch <- extend t.pk_src_epoch capacity 0;
    t.pk_dst_epoch <- extend t.pk_dst_epoch capacity 0
  end;
  t.pk_payload <- extend t.pk_payload capacity filler;
  t.pk_free <- Array.init capacity (fun i -> capacity - 1 - i);
  t.pk_free_top <- capacity - old

(* Deliveries scheduled but not yet executed: the taken slots. *)
let in_flight t = Array.length t.pk_src - t.pk_free_top

(* The one delivery path, for local and remote packets alike.  On a
   crash-capable machine the packet carries the incarnation numbers of
   both endpoints as they were at send time; it lands only if the
   destination is up and neither endpoint has been through a crash
   detection since — in-flight traffic from a dead node keeps arriving
   until the crash is detected (its epoch bumps), then drains away. *)
let deliver t slot =
  let src = t.pk_src.(slot) and dst = t.pk_dst.(slot) and tag = t.pk_tag.(slot) in
  let payload = t.pk_payload.(slot) in
  let live =
    match t.crash with
    | None -> true
    | Some cs ->
        (not cs.down.(dst))
        && cs.epoch.(src) = t.pk_src_epoch.(slot)
        && cs.epoch.(dst) = t.pk_dst_epoch.(slot)
  in
  (match t.filler with Some filler -> t.pk_payload.(slot) <- filler | None -> ());
  t.pk_free.(t.pk_free_top) <- slot;
  t.pk_free_top <- t.pk_free_top + 1;
  if live then
    match t.receivers.(dst) with
    | Some handler -> handler ~src ~tag payload
    | None ->
        failwith
          (Printf.sprintf
             "Network.deliver: node %d has no receiver for the packet from node %d" dst
             src)

let schedule_delivery t ~time ~src ~dst ~tag payload =
  if t.pk_free_top = 0 then grow_packets t payload;
  let top = t.pk_free_top - 1 in
  let slot = t.pk_free.(top) in
  t.pk_free_top <- top;
  t.pk_src.(slot) <- src;
  t.pk_dst.(slot) <- dst;
  t.pk_tag.(slot) <- tag;
  t.pk_payload.(slot) <- payload;
  (match t.crash with
  | None -> ()
  | Some cs ->
      t.pk_src_epoch.(slot) <- cs.epoch.(src);
      t.pk_dst_epoch.(slot) <- cs.epoch.(dst));
  Simulator.schedule_call_at t.sim ~time t.deliver_slot slot

let create ?faults sim topology config =
  let n = Topology.nodes topology in
  let crash =
    match faults with
    | Some p when p.Fault.crashes <> [] ->
        Some { down = Array.make n false; epoch = Array.make n 0 }
    | Some _ | None -> None
  in
  let t =
    {
      sim;
      topology;
      config;
      faults = Option.map (Fault.create ~nodes:n) faults;
      crash;
      receivers = Array.make n None;
      egress_free = Array.make n 0;
      ingress_free = Array.make n 0;
      arrivals = Array.make Fault.max_copies 0;
      pk_src = [||];
      pk_dst = [||];
      pk_tag = [||];
      pk_src_epoch = [||];
      pk_dst_epoch = [||];
      pk_payload = [||];
      filler = None;
      pk_free = [||];
      pk_free_top = 0;
      deliver_slot = ignore;
      messages = 0;
      bytes = 0;
      hops = 0;
    }
  in
  t.deliver_slot <- (fun slot -> deliver t slot);
  t

(* Misrouted or premature traffic must fail loudly at the send, not as a
   bare [Invalid_argument] (or a silent misroute) deep inside a scheduled
   delivery event where the caller is long gone. *)
let check_route t ~src ~dst =
  let n = Array.length t.receivers in
  if src < 0 || src >= n then
    invalid_arg
      (Printf.sprintf "Network.send: source node %d outside the %d-node machine" src n);
  if dst < 0 || dst >= n then
    invalid_arg
      (Printf.sprintf
         "Network.send: destination node %d outside the %d-node machine (packet from \
          node %d)"
         dst n src);
  match t.receivers.(dst) with
  | Some _ -> ()
  | None ->
      failwith
        (Printf.sprintf
           "Network.send: no receiver installed for destination node %d (packet from \
            node %d); call set_receiver for every node before sending traffic"
           dst src)

(* Reserve a port: the packet occupies it for [occupancy] cycles starting
   no earlier than [earliest]; returns when the packet clears the port. *)
let reserve port ~node ~earliest ~occupancy =
  let start = max earliest port.(node) in
  port.(node) <- start + occupancy;
  start + occupancy

let send_tagged t ~src ~dst ~bytes ~tag payload =
  check_route t ~src ~dst;
  let now = Simulator.now t.sim in
  let zombie_send =
    (* a closure armed before its node crashed must not emit traffic on
       behalf of the dead incarnation *)
    match t.crash with Some cs -> cs.down.(src) | None -> false
  in
  if zombie_send then ()
  else if src = dst then
    schedule_delivery t ~time:(now + t.config.local_latency) ~src ~dst ~tag payload
  else begin
    let wire_bytes = max bytes t.config.min_packet_bytes in
    let occupancy = (wire_bytes + t.config.port_bytes_per_cycle - 1) / t.config.port_bytes_per_cycle in
    let router_hops = Topology.router_hops t.topology ~src ~dst in
    let leg_latency =
      match t.config.mode with
      | Uniform -> t.config.hop_latency
      | Proportional -> t.config.hop_latency * router_hops / 2
    in
    let out_clear = reserve t.egress_free ~node:src ~earliest:now ~occupancy in
    let arrival = out_clear + leg_latency in
    let in_clear = reserve t.ingress_free ~node:dst ~earliest:arrival ~occupancy in
    t.messages <- t.messages + 1;
    t.bytes <- t.bytes + wire_bytes;
    t.hops <- t.hops + router_hops;
    match t.faults with
    | None -> schedule_delivery t ~time:in_clear ~src ~dst ~tag payload
    | Some chaos ->
        (* traffic counters above describe what was {e sent}; the fault
           layer only decides what arrives, and when *)
        let copies = Fault.plan chaos ~src ~dst ~now t.arrivals in
        for i = 0 to copies - 1 do
          schedule_delivery t ~time:(in_clear + t.arrivals.(i)) ~src ~dst ~tag payload
        done
  end

let send t ~src ~dst ~bytes payload = send_tagged t ~src ~dst ~bytes ~tag:0 payload

let crash_state t =
  match t.crash with
  | Some cs -> cs
  | None ->
      invalid_arg
        "Network: no fail-stop state (the fault profile schedules no crashes)"

let mark_down t ~node =
  let cs = crash_state t in
  cs.down.(node) <- true

let mark_up t ~node =
  let cs = crash_state t in
  cs.down.(node) <- false

let node_down t ~node =
  match t.crash with Some cs -> cs.down.(node) | None -> false

let bump_epoch t ~node =
  let cs = crash_state t in
  cs.epoch.(node) <- cs.epoch.(node) + 1

let node_epoch t ~node = match t.crash with Some cs -> cs.epoch.(node) | None -> 0

let messages_sent t = t.messages

let bytes_sent t = t.bytes

let hops_traversed t = t.hops

let reset_counters t =
  t.messages <- 0;
  t.bytes <- 0;
  t.hops <- 0
