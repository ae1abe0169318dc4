module Sim = Pcc_engine.Simulator
module Network = Pcc_interconnect.Network

type 'a frame = Data of { seq : int; payload : 'a } | Ack of { upto : int }

(* Sender half of one (this node -> dst) link. *)
type 'a link_out = {
  mutable next_seq : int;
  unacked : (int, int * 'a) Hashtbl.t;  (* seq -> wire bytes, payload *)
}

(* Receiver half of one (src -> this node) link. *)
type 'a link_in = {
  mutable expected : int;
  held : (int, 'a) Hashtbl.t;  (* out-of-order frames awaiting the gap *)
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
}

let in_flight t = Array.fold_left (fun acc o -> acc + Hashtbl.length o.unacked) 0 t.out

let exists_unacked t ~peer ~f =
  Hashtbl.fold
    (fun _ (_, payload) acc -> acc || f payload)
    t.out.(peer).unacked false

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

let rec arm_retransmit t ~dst ~seq ~attempt =
  Sim.schedule t.sim ~delay:(backoff t attempt) (fun () ->
      match Hashtbl.find t.out.(dst).unacked seq with
      | exception Not_found -> () (* acknowledged meanwhile *)
      | bytes, payload ->
          t.retx_by_dst.(dst) <- t.retx_by_dst.(dst) + 1;
          t.on_retransmit ~dst;
          Network.send t.network ~src:t.id ~dst ~bytes (Data { seq; payload });
          arm_retransmit t ~dst ~seq ~attempt:(attempt + 1))

let send t ~dst ~bytes payload =
  if (not t.reliable) || dst = t.id then
    (* pass-through: same packet count, bytes, and delivery schedule as a
       bare network — the link layer is zero-cost when hardening is off,
       and hub-local traffic never needs it *)
    Network.send t.network ~src:t.id ~dst ~bytes (Data { seq = 0; payload })
  else begin
    let out = t.out.(dst) in
    let seq = out.next_seq in
    out.next_seq <- seq + 1;
    Hashtbl.replace out.unacked seq (bytes, payload);
    Network.send t.network ~src:t.id ~dst ~bytes (Data { seq; payload });
    arm_retransmit t ~dst ~seq ~attempt:0
  end

let send_ack t ~dst ~upto =
  Network.send t.network ~src:t.id ~dst ~bytes:t.ack_bytes (Ack { upto })

let receive t ~src frame =
  match frame with
  | Ack { upto } ->
      let out = t.out.(src) in
      let acked =
        Hashtbl.fold (fun seq _ acc -> if seq <= upto then seq :: acc else acc)
          out.unacked []
      in
      List.iter (Hashtbl.remove out.unacked) acked
  | Data { payload; _ } when (not t.reliable) || src = t.id -> t.deliver ~src payload
  | Data { seq; payload } ->
      let inn = t.inn.(src) in
      if seq = inn.expected then begin
        inn.expected <- seq + 1;
        t.deliver ~src payload;
        (* release any buffered successors the gap was holding back *)
        let rec drain () =
          match Hashtbl.find inn.held inn.expected with
          | next ->
              Hashtbl.remove inn.held inn.expected;
              inn.expected <- inn.expected + 1;
              t.deliver ~src next;
              drain ()
          | exception Not_found -> ()
        in
        drain ();
        send_ack t ~dst:src ~upto:(inn.expected - 1)
      end
      else if seq > inn.expected then begin
        (* out of order: hold until the gap fills, so the layer above
           keeps its per-link FIFO guarantee under reordering *)
        if Hashtbl.mem inn.held seq then t.on_duplicate ()
        else Hashtbl.replace inn.held seq payload;
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

(* The crashing node loses all link state: sequence counters, unacked
   frames (their retransmission timers die on finding the frame gone),
   reassembly buffers. *)
let reset_all t =
  Array.iter
    (fun o ->
      o.next_seq <- 0;
      Hashtbl.reset o.unacked)
    t.out;
  Array.iter
    (fun i ->
      i.expected <- 0;
      Hashtbl.reset i.held)
    t.inn

(* The peer died for good: abandon everything queued for it (otherwise
   the retransmission chains never die and the run cannot drain). *)
let drop_peer t ~peer =
  Hashtbl.reset t.out.(peer).unacked;
  Hashtbl.reset t.inn.(peer).held

(* The peer crashed but will restart with a fresh (zeroed) hub: realign
   both link directions to sequence 0 and re-send everything unacked, in
   order, through the normal reliable path — the re-sent frames carry
   current epoch stamps, so they survive until the restarted peer can
   receive them.  Old retransmission timers reference frames no longer in
   [unacked]; a timer whose old seq collides with a re-issued one merely
   retransmits that frame early, which the receiver dedups. *)
let requeue_peer t ~peer =
  let out = t.out.(peer) in
  let frames =
    Hashtbl.fold (fun seq (bytes, payload) acc -> (seq, bytes, payload) :: acc)
      out.unacked []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare (a : int) b)
  in
  Hashtbl.reset out.unacked;
  out.next_seq <- 0;
  let inn = t.inn.(peer) in
  inn.expected <- 0;
  Hashtbl.reset inn.held;
  List.iter (fun (_, bytes, payload) -> send t ~dst:peer ~bytes payload) frames

let peer_epoch t ~peer = Network.node_epoch t.network ~node:peer

let peer_down t ~peer = Network.node_down t.network ~node:peer

let create ~sim ~network ~id ~nodes ~reliable ~rto ~rto_cap ~ack_bytes ~on_retransmit
    ~on_duplicate ~deliver =
  if reliable && rto <= 0 then invalid_arg "Hub_link.create: rto must be positive";
  let t =
    {
      sim;
      network;
      id;
      reliable;
      rto;
      rto_cap = max rto rto_cap;
      ack_bytes;
      out = Array.init nodes (fun _ -> { next_seq = 0; unacked = Hashtbl.create 8 });
      inn = Array.init nodes (fun _ -> { expected = 0; held = Hashtbl.create 8 });
      retx_by_dst = Array.make nodes 0;
      on_retransmit;
      on_duplicate;
      deliver;
    }
  in
  Network.set_receiver network ~node:id (fun ~src frame -> receive t ~src frame);
  t
