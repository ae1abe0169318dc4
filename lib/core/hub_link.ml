module Sim = Pcc_engine.Simulator
module Network = Pcc_interconnect.Network

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { upto : int }

(* Fills ring slots that hold no frame, so a ring never keeps an
   acknowledged or delivered payload alive. *)
let no_frame = Ack { upto = -1 }

(* Rings start empty and take this capacity on first use, then double;
   capacities stay powers of two so a seq's slot is [seq land mask]. *)
let initial_window = 16

(* Sender half of one (this node -> dst) link.  Sequence numbers are
   dense and acknowledgements cumulative, so the unacked frames are
   exactly the window [base, next_seq): a ring indexed by seq holds the
   [Data] frame of each seq's first send (re-sent as is on every
   retransmission) and its wire bytes.  An ack advances [base]. *)
type 'a link_out = {
  mutable base : int;
  mutable next_seq : int;
  mutable frames : 'a frame array;
  mutable sizes : int array;
}

(* Receiver half of one (src -> this node) link: frames that arrive ahead
   of [expected] wait in a seq-tagged ring covering
   [expected, expected + capacity); a slot's tag is the seq it holds, or
   -1. *)
type 'a link_in = {
  mutable expected : int;
  mutable held_seq : int array;
  mutable held : 'a frame array;
}

type 'a t = {
  sim : Sim.t;
  network : 'a frame Network.t;
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
}

let in_flight t = Array.fold_left (fun acc o -> acc + (o.next_seq - o.base)) 0 t.out

let exists_unacked t ~peer ~f =
  let o = t.out.(peer) in
  let rec scan seq =
    seq < o.next_seq
    && ((match o.frames.(seq land (Array.length o.frames - 1)) with
        | Data { payload; _ } -> f payload
        | Ack _ -> false)
       || scan (seq + 1))
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

(* The retransmit timer is a typed engine event whose argument packs
   (seq, attempt, dst).  [dst] fits 6 bits (Nodeset caps machines at 62
   nodes).  [backoff] ignores attempts above 16, so saturating the count
   at 17 keeps every delay exact in 5 bits.  The attempt rides in the
   timer, not in the ring: after [requeue_peer] a stale timer whose seq
   collides with a re-sent frame retransmits it with its own backoff. *)
let dst_bits = 6

let attempt_bits = 5

let max_attempt = 17

let arm_retransmit t ~dst ~seq ~attempt =
  Sim.schedule_call t.sim ~delay:(backoff t attempt) t.on_timer
    ((((seq lsl attempt_bits) lor attempt) lsl dst_bits) lor dst)

let retransmit t arg =
  let dst = arg land ((1 lsl dst_bits) - 1) in
  let attempt = (arg lsr dst_bits) land ((1 lsl attempt_bits) - 1) in
  let seq = arg lsr (dst_bits + attempt_bits) in
  let o = t.out.(dst) in
  (* a frame is unacked iff its seq lies in the window *)
  if seq >= o.base && seq < o.next_seq then begin
    let i = seq land (Array.length o.frames - 1) in
    t.retx_by_dst.(dst) <- t.retx_by_dst.(dst) + 1;
    t.on_retransmit ~dst;
    Network.send t.network ~src:t.id ~dst ~bytes:o.sizes.(i) o.frames.(i);
    arm_retransmit t ~dst ~seq ~attempt:(min max_attempt (attempt + 1))
  end

let grow_window o =
  let capacity = max initial_window (2 * Array.length o.frames) in
  let frames = Array.make capacity no_frame and sizes = Array.make capacity 0 in
  for seq = o.base to o.next_seq - 1 do
    let i = seq land (Array.length o.frames - 1) and j = seq land (capacity - 1) in
    frames.(j) <- o.frames.(i);
    sizes.(j) <- o.sizes.(i)
  done;
  o.frames <- frames;
  o.sizes <- sizes

let send t ~dst ~bytes payload =
  if (not t.reliable) || dst = t.id then
    (* pass-through: same packet count, bytes, and delivery schedule as a
       bare network — the link layer is zero-cost when hardening is off,
       and hub-local traffic never needs it *)
    Network.send t.network ~src:t.id ~dst ~bytes (Data { seq = 0; payload })
  else begin
    let o = t.out.(dst) in
    if o.next_seq - o.base = Array.length o.frames then grow_window o;
    let seq = o.next_seq in
    let frame = Data { seq; payload } in
    let i = seq land (Array.length o.frames - 1) in
    o.frames.(i) <- frame;
    o.sizes.(i) <- bytes;
    o.next_seq <- seq + 1;
    Network.send t.network ~src:t.id ~dst ~bytes frame;
    arm_retransmit t ~dst ~seq ~attempt:0
  end

(* Drop the window's frames up to [stop] (exclusive) and advance [base]. *)
let release_upto o stop =
  for seq = o.base to stop - 1 do
    o.frames.(seq land (Array.length o.frames - 1)) <- no_frame
  done;
  if stop > o.base then o.base <- stop

let send_ack t ~dst ~upto =
  Network.send t.network ~src:t.id ~dst ~bytes:t.ack_bytes (Ack { upto })

(* Re-place the held frames into a ring of [capacity] slots. *)
let regrow_held inn capacity =
  let held_seq = Array.make capacity (-1) and held = Array.make capacity no_frame in
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

let hold inn seq frame =
  let span = seq - inn.expected + 1 in
  if span > Array.length inn.held then
    regrow_held inn (covering (max initial_window (2 * Array.length inn.held)) span);
  let i = seq land (Array.length inn.held - 1) in
  inn.held_seq.(i) <- seq;
  inn.held.(i) <- frame

let is_held inn seq =
  let capacity = Array.length inn.held in
  seq - inn.expected < capacity && inn.held_seq.(seq land (capacity - 1)) = seq

(* Release buffered successors the gap was holding back, in order. *)
let rec release_held t inn ~src =
  let capacity = Array.length inn.held in
  if capacity > 0 then begin
    let i = inn.expected land (capacity - 1) in
    if inn.held_seq.(i) = inn.expected then begin
      let frame = inn.held.(i) in
      inn.held_seq.(i) <- -1;
      inn.held.(i) <- no_frame;
      inn.expected <- inn.expected + 1;
      (match frame with Data { payload; _ } -> t.deliver ~src payload | Ack _ -> ());
      release_held t inn ~src
    end
  end

let receive t ~src frame =
  match frame with
  | Ack { upto } ->
      (* cumulative: every seq <= upto is acknowledged *)
      let o = t.out.(src) in
      release_upto o (min (upto + 1) o.next_seq)
  | Data { payload; _ } when (not t.reliable) || src = t.id -> t.deliver ~src payload
  | Data { seq; payload } ->
      let inn = t.inn.(src) in
      if seq = inn.expected then begin
        inn.expected <- seq + 1;
        t.deliver ~src payload;
        release_held t inn ~src;
        send_ack t ~dst:src ~upto:(inn.expected - 1)
      end
      else if seq > inn.expected then begin
        (* out of order: hold until the gap fills, so the layer above
           keeps its per-link FIFO guarantee under reordering *)
        if is_held inn seq then t.on_duplicate () else hold inn seq frame;
        send_ack t ~dst:src ~upto:(inn.expected - 1)
      end
      else begin
        (* duplicate of an already-delivered frame (retransmission or
           chaos-layer copy): suppress, but re-ack in case our previous
           acknowledgement was lost *)
        t.on_duplicate ();
        send_ack t ~dst:src ~upto:(inn.expected - 1)
      end

(* Fail-stop link surgery (crash-capable machines; see Pcc_core.System).
   A node crash destroys its hub's sequence state, so both ends of every
   affected link must realign or the seq/ack machinery wedges. *)

let clear_held inn =
  Array.fill inn.held_seq 0 (Array.length inn.held_seq) (-1);
  Array.fill inn.held 0 (Array.length inn.held) no_frame

(* Empty the unacked window and restart sequence numbering at [next_seq]. *)
let restart_window o ~next_seq =
  Array.fill o.frames 0 (Array.length o.frames) no_frame;
  o.base <- next_seq;
  o.next_seq <- next_seq

(* The crashing node loses all link state: sequence counters, unacked
   frames (their retransmission timers find an empty window and die),
   reassembly buffers. *)
let reset_all t =
  Array.iter (fun o -> restart_window o ~next_seq:0) t.out;
  Array.iter
    (fun inn ->
      inn.expected <- 0;
      clear_held inn)
    t.inn

(* The peer died for good: abandon everything queued for it (otherwise
   the retransmission chains never die and the run cannot drain). *)
let drop_peer t ~peer =
  let o = t.out.(peer) in
  restart_window o ~next_seq:o.next_seq;
  clear_held t.inn.(peer)

(* The peer crashed but will restart with a fresh (zeroed) hub: realign
   both link directions to sequence 0 and re-send everything unacked
   that the caller does not mark [droppable], in order, through the
   normal reliable path — the re-sent frames carry current epoch stamps,
   so they survive until the restarted peer can receive them.  Old
   retransmission timers outlive the realignment; a timer whose old seq
   collides with a re-issued one merely retransmits that frame early,
   which the receiver dedups. *)
let requeue_peer t ~peer ~droppable =
  let o = t.out.(peer) in
  let pending =
    List.init (o.next_seq - o.base) (fun k ->
        let i = (o.base + k) land (Array.length o.frames - 1) in
        (o.sizes.(i), o.frames.(i)))
  in
  restart_window o ~next_seq:0;
  let inn = t.inn.(peer) in
  inn.expected <- 0;
  clear_held inn;
  List.iter
    (fun (bytes, frame) ->
      match frame with
      | Data { payload; _ } when not (droppable payload) -> send t ~dst:peer ~bytes payload
      | Data _ | Ack _ -> ())
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
            { base = 0; next_seq = 0; frames = [||]; sizes = [||] });
      inn = Array.init nodes (fun _ -> { expected = 0; held_seq = [||]; held = [||] });
      retx_by_dst = Array.make nodes 0;
      on_retransmit;
      on_duplicate;
      deliver;
      on_timer = ignore;
    }
  in
  t.on_timer <- (fun arg -> retransmit t arg);
  Network.set_receiver network ~node:id (fun ~src frame -> receive t ~src frame);
  t
