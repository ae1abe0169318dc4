module Sim = Pcc_engine.Simulator
module Network = Pcc_interconnect.Network

(* A frame's header rides in the packet's tag ({!Network.send_tagged}):
   a data frame's sequence number (>= 0), or an acknowledgement's
   cumulative [upto] (>= -1) stored as [-2 - upto] (< 0).  An
   acknowledgement's packet carries the payload of the frame that
   prompted it, never delivered: it only fills the packet's payload
   slot.  Pass-through packets are plain [Network.send]s, tag 0. *)
let ack_tag upto = -2 - upto

let upto_of_tag tag = -2 - tag

(* Rings start empty and take this capacity on first use, then double;
   capacities stay powers of two so a seq's slot is [seq land mask]. *)
let initial_window = 16

(* Sender half of one (this node -> dst) link.  Sequence numbers are
   dense and acknowledgements cumulative, so the unacked frames are
   exactly the window [base, next_seq): a ring indexed by seq holds the
   payload of each seq's first send (re-sent as is on every
   retransmission), its wire bytes and the handle of its pending
   retransmit timer.  An ack advances [base] and cancels the released
   frames' timers. *)
type 'a link_out = {
  mutable base : int;
  mutable next_seq : int;
  mutable payloads : 'a array;
  mutable sizes : int array;
  mutable timers : Sim.handle array;
}

(* Receiver half of one (src -> this node) link: frames that arrive ahead
   of [expected] wait in a seq-tagged ring covering
   [expected, expected + capacity); a slot's tag is the seq it holds, or
   -1. *)
type 'a link_in = {
  mutable expected : int;
  mutable held_seq : int array;
  mutable held : 'a array;
}

type 'a t = {
  sim : Sim.t;
  network : 'a Network.t;
  id : int;
  reliable : bool;
  rto : int;
  rto_cap : int;
  ack_bytes : int;
  out : 'a link_out array;
  inn : 'a link_in array;
  retx_by_dst : int array;  (* per-link retransmission totals *)
  on_retransmit : dst:int -> unit;
  on_duplicate : unit -> unit;
  deliver : src:int -> 'a -> unit;
  mutable on_timer : int -> unit;  (* the retransmit timer's handler *)
  mutable filler : 'a option;
      (* the first payload a ring held: it fills ring slots that hold no
         frame, so a ring never keeps an acknowledged or delivered
         payload alive *)
}

let in_flight t = Array.fold_left (fun acc o -> acc + (o.next_seq - o.base)) 0 t.out

let exists_unacked t ~peer ~f =
  let o = t.out.(peer) in
  let rec scan seq =
    seq < o.next_seq
    && (f o.payloads.(seq land (Array.length o.payloads - 1)) || scan (seq + 1))
  in
  scan o.base

let retransmits_by_link t =
  let acc = ref [] in
  for dst = Array.length t.retx_by_dst - 1 downto 0 do
    if t.retx_by_dst.(dst) > 0 then acc := (dst, t.retx_by_dst.(dst)) :: !acc
  done;
  !acc

(* Exponential backoff from [rto], capped at [rto_cap]: retransmission is
   unbounded in count (delivery must eventually succeed once a transient
   outage ends) but bounded in rate. *)
let backoff t attempt = min t.rto_cap (t.rto lsl min attempt 16)

(* The retransmit timer is a cancellable typed engine event whose
   argument packs (seq, attempt, dst).  [dst] fits 6 bits (Nodeset caps
   machines at 62 nodes).  [backoff] ignores attempts above 16, so
   saturating the count at 17 keeps every delay exact in 5 bits.  The
   attempt rides in the timer, not in the ring: after [requeue_peer] a
   stale timer whose seq collides with a re-sent frame retransmits it
   with its own backoff.  Arming stores the handle in the frame's ring
   slot, where the ack that releases the frame finds it. *)
let dst_bits = 6

let attempt_bits = 5

let max_attempt = 17

let arm_retransmit t o i ~dst ~seq ~attempt =
  o.timers.(i) <-
    Sim.schedule_timer t.sim ~delay:(backoff t attempt) t.on_timer
      ((((seq lsl attempt_bits) lor attempt) lsl dst_bits) lor dst)

let retransmit t arg =
  let dst = arg land ((1 lsl dst_bits) - 1) in
  let attempt = (arg lsr dst_bits) land ((1 lsl attempt_bits) - 1) in
  let seq = arg lsr (dst_bits + attempt_bits) in
  let o = t.out.(dst) in
  (* a frame is unacked iff its seq lies in the window *)
  if seq >= o.base && seq < o.next_seq then begin
    let i = seq land (Array.length o.payloads - 1) in
    t.retx_by_dst.(dst) <- t.retx_by_dst.(dst) + 1;
    t.on_retransmit ~dst;
    Network.send_tagged t.network ~src:t.id ~dst ~bytes:o.sizes.(i) ~tag:seq
      o.payloads.(i);
    arm_retransmit t o i ~dst ~seq ~attempt:(min max_attempt (attempt + 1))
  end

(* The ring filler, taken from the payload at hand when the first ring
   is made: every ring is made with a payload at hand. *)
let filler t payload =
  match t.filler with
  | Some filler -> filler
  | None ->
      t.filler <- Some payload;
      payload

(* Overwrite a ring slot that no longer holds a frame. *)
let vacate t ring i = match t.filler with Some f -> ring.(i) <- f | None -> ()

let grow_window t o payload =
  let capacity = max initial_window (2 * Array.length o.payloads) in
  let payloads = Array.make capacity (filler t payload)
  and sizes = Array.make capacity 0
  and timers = Array.make capacity Sim.no_handle in
  for seq = o.base to o.next_seq - 1 do
    let i = seq land (Array.length o.payloads - 1) and j = seq land (capacity - 1) in
    payloads.(j) <- o.payloads.(i);
    sizes.(j) <- o.sizes.(i);
    timers.(j) <- o.timers.(i)
  done;
  o.payloads <- payloads;
  o.sizes <- sizes;
  o.timers <- timers

let send t ~dst ~bytes payload =
  if (not t.reliable) || dst = t.id then
    (* pass-through: same packet count, bytes, and delivery schedule as a
       bare network — the link layer is zero-cost when hardening is off,
       and hub-local traffic never needs it *)
    Network.send t.network ~src:t.id ~dst ~bytes payload
  else begin
    let o = t.out.(dst) in
    if o.next_seq - o.base = Array.length o.payloads then grow_window t o payload;
    let seq = o.next_seq in
    let i = seq land (Array.length o.payloads - 1) in
    o.payloads.(i) <- payload;
    o.sizes.(i) <- bytes;
    o.next_seq <- seq + 1;
    Network.send_tagged t.network ~src:t.id ~dst ~bytes ~tag:seq payload;
    arm_retransmit t o i ~dst ~seq ~attempt:0
  end

(* Drop the window's frames up to [stop] (exclusive), cancel their
   retransmit timers and advance [base]. *)
let release_upto t o stop =
  for seq = o.base to stop - 1 do
    let i = seq land (Array.length o.payloads - 1) in
    Sim.cancel t.sim o.timers.(i);
    vacate t o.payloads i
  done;
  if stop > o.base then o.base <- stop

(* [payload] is the frame that prompted the acknowledgement; it only
   fills the packet. *)
let send_ack t ~dst ~upto payload =
  Network.send_tagged t.network ~src:t.id ~dst ~bytes:t.ack_bytes ~tag:(ack_tag upto)
    payload

(* Re-place the held frames into a ring of [capacity] slots. *)
let regrow_held t inn capacity payload =
  let held_seq = Array.make capacity (-1)
  and held = Array.make capacity (filler t payload) in
  Array.iteri
    (fun i seq ->
      if seq >= 0 then begin
        held_seq.(seq land (capacity - 1)) <- seq;
        held.(seq land (capacity - 1)) <- inn.held.(i)
      end)
    inn.held_seq;
  inn.held_seq <- held_seq;
  inn.held <- held

(* The first doubling of [capacity] that covers [span] seqs. *)
let rec covering capacity span =
  if capacity >= span then capacity else covering (2 * capacity) span

let hold t inn seq payload =
  let span = seq - inn.expected + 1 in
  if span > Array.length inn.held then
    regrow_held t inn
      (covering (max initial_window (2 * Array.length inn.held)) span)
      payload;
  let i = seq land (Array.length inn.held - 1) in
  inn.held_seq.(i) <- seq;
  inn.held.(i) <- payload

let is_held inn seq =
  let capacity = Array.length inn.held in
  seq - inn.expected < capacity && inn.held_seq.(seq land (capacity - 1)) = seq

(* Release buffered successors the gap was holding back, in order. *)
let rec release_held t inn ~src =
  let capacity = Array.length inn.held in
  if capacity > 0 then begin
    let i = inn.expected land (capacity - 1) in
    if inn.held_seq.(i) = inn.expected then begin
      let payload = inn.held.(i) in
      inn.held_seq.(i) <- -1;
      vacate t inn.held i;
      inn.expected <- inn.expected + 1;
      t.deliver ~src payload;
      release_held t inn ~src
    end
  end

let receive t ~src ~tag payload =
  if (not t.reliable) || src = t.id then t.deliver ~src payload
  else if tag < 0 then begin
    (* cumulative: every seq <= upto is acknowledged *)
    let o = t.out.(src) in
    release_upto t o (min (upto_of_tag tag + 1) o.next_seq)
  end
  else begin
    let seq = tag and inn = t.inn.(src) in
    if seq = inn.expected then begin
      inn.expected <- seq + 1;
      t.deliver ~src payload;
      release_held t inn ~src
    end
    else if seq > inn.expected then begin
      (* out of order: hold until the gap fills, so the layer above
         keeps its per-link FIFO guarantee under reordering *)
      if is_held inn seq then t.on_duplicate () else hold t inn seq payload
    end
    else
      (* duplicate of an already-delivered frame (retransmission or
         chaos-layer copy): suppress, but re-ack in case our previous
         acknowledgement was lost *)
      t.on_duplicate ();
    send_ack t ~dst:src ~upto:(inn.expected - 1) payload
  end

(* Fail-stop link surgery (crash-capable machines; see Pcc_core.System).
   A node crash destroys its hub's sequence state, so both ends of every
   affected link must realign or the seq/ack machinery wedges. *)

let clear_held t inn =
  Array.fill inn.held_seq 0 (Array.length inn.held_seq) (-1);
  Array.iteri (fun i _ -> vacate t inn.held i) inn.held

(* Empty the unacked window and restart sequence numbering at
   [next_seq].  The frames' timers stay queued: each finds its seq
   outside the window and dies, unless a restart at seq 0 put a new
   frame there (see [requeue_peer]).  Their handles stay in the ring
   unread: a send overwrites a slot's handle before its seq re-enters
   the window. *)
let restart_window t o ~next_seq =
  Array.iteri (fun i _ -> vacate t o.payloads i) o.payloads;
  o.base <- next_seq;
  o.next_seq <- next_seq

(* The crashing node loses all link state: sequence counters, unacked
   frames (their retransmission timers find an empty window and die),
   reassembly buffers. *)
let reset_all t =
  Array.iter (fun o -> restart_window t o ~next_seq:0) t.out;
  Array.iter
    (fun inn ->
      inn.expected <- 0;
      clear_held t inn)
    t.inn

(* The peer died for good: abandon everything queued for it (otherwise
   the retransmission chains never die and the run cannot drain). *)
let drop_peer t ~peer =
  let o = t.out.(peer) in
  restart_window t o ~next_seq:o.next_seq;
  clear_held t t.inn.(peer)

(* The peer crashed but will restart with a fresh (zeroed) hub: realign
   both link directions to sequence 0 and re-send everything unacked
   that the caller does not mark [droppable], in order, through the
   normal reliable path — the re-sent frames carry current epoch stamps,
   so they survive until the restarted peer can receive them.  Old
   retransmission timers of frames still unacked outlive the
   realignment; a timer whose old seq collides with a re-issued one
   merely retransmits that frame early, which the receiver dedups.  A
   frame acked before the realignment has no timer left: its ack
   cancelled it. *)
let requeue_peer t ~peer ~droppable =
  let o = t.out.(peer) in
  let pending =
    List.init (o.next_seq - o.base) (fun k ->
        let i = (o.base + k) land (Array.length o.payloads - 1) in
        (o.sizes.(i), o.payloads.(i)))
  in
  restart_window t o ~next_seq:0;
  let inn = t.inn.(peer) in
  inn.expected <- 0;
  clear_held t inn;
  List.iter
    (fun (bytes, payload) ->
      if not (droppable payload) then send t ~dst:peer ~bytes payload)
    pending

let peer_epoch t ~peer = Network.node_epoch t.network ~node:peer

let peer_down t ~peer = Network.node_down t.network ~node:peer

let create ~sim ~network ~id ~nodes ~reliable ~rto ~rto_cap ~ack_bytes ~on_retransmit
    ~on_duplicate ~deliver =
  if reliable && rto <= 0 then invalid_arg "Hub_link.create: rto must be positive";
  if nodes > 1 lsl dst_bits then invalid_arg "Hub_link.create: too many nodes";
  let t =
    {
      sim;
      network;
      id;
      reliable;
      rto;
      rto_cap = max rto rto_cap;
      ack_bytes;
      out =
        Array.init nodes (fun _ ->
            { base = 0; next_seq = 0; payloads = [||]; sizes = [||]; timers = [||] });
      inn = Array.init nodes (fun _ -> { expected = 0; held_seq = [||]; held = [||] });
      retx_by_dst = Array.make nodes 0;
      on_retransmit;
      on_duplicate;
      deliver;
      on_timer = ignore;
      filler = None;
    }
  in
  t.on_timer <- (fun arg -> retransmit t arg);
  Network.set_tagged_receiver network ~node:id (fun ~src ~tag payload ->
      receive t ~src ~tag payload);
  t
