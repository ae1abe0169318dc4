module Directory = Pcc_core.Directory
module Delegate_cache = Pcc_core.Delegate_cache
module L2 = Pcc_core.L2
module Message = Pcc_core.Message

type bug = Skip_invals_on_delegate | No_poison_on_inval | Updates_without_resharing

type workload = Symmetric | Producer_consumer

type params = {
  nodes : int;
  lines : int;
      (* independent cache lines, each homed at node 0 with its own
         directory, channels, and per-node op budget.  Lines never share
         protocol state, which is exactly what makes per-line transition
         groups independent for partial-order reduction. *)
  workload : workload;
      (* Symmetric: every node nondeterministically loads or stores.
         Producer_consumer: line l has one designated producer
         (node 1 + l mod (nodes-1)) that only stores; every other node
         only loads.  This is the paper's sharing pattern, it still
         drives delegation and speculative updates, and it shrinks the
         per-line space enough that multi-line explorations at 4-5 nodes
         stay exhaustive.  Designated producers are distinguishable, so
         canonicalization only permutes the consumer nodes (and only
         lines with the same producer). *)
  max_ops_per_node : int;
  enable_delegation : bool;
  enable_updates : bool;
  channel_capacity : int;
      (* max in-flight messages per (src,dst) channel (per line).  Without
         a bound the space is infinite: a NACK/retry/forward cycle can
         deposit one extra hint message per round while deliveries lag.
         Bounding channels (as Murphi DASH models do) makes exploration
         finite; transitions that would overfill a channel are disabled. *)
  bug : bug option;
}

let default_params =
  {
    nodes = 3;
    lines = 1;
    workload = Symmetric;
    max_ops_per_node = 2;
    enable_delegation = true;
    enable_updates = true;
    channel_capacity = 3;
    bug = None;
  }


(* ------------------------------------------------------------------ *)
(* Model state: one slot image per line                                *)
(* ------------------------------------------------------------------ *)

(* A line's state is one [Bytes] image of slots, laid out by the slot
   table below: the line's own slots, then each node's, then the packet
   count and the packets.  The image's first byte is its width, and every access reads
   it: a slot is two bytes, signed, in [Step], and one byte biased by 64
   in the checker, whose frontier keeps every state's image and whose
   values [validate] keeps within [-64, 191].  A slot is plain (a code,
   flag, count, value or tid, never renamed), a node id (held plus one,
   so 0 is no node) or a node mask; [rename] is the one function that
   reads the kinds.  An absent field (an invalid copy's value, a free
   slot's requester, a packet's unused fields) is zero, so a state has
   exactly one image.

   Channels between each (src, dst) pair are FIFO, as in the modeled
   NUMALink interconnect (and the simulator): only a pair's head-of-line
   packet is deliverable.  The speculative-update mechanism depends on
   this ordering — an update overtaken by a later invalidation from the
   same producer would strand a stale copy (the model checker finds this
   if delivery is unordered).  Packets stay sorted by (src, dst), each
   pair's queue in send order, so a packet's sequence number is its
   place in its pair's queue and the network is normalized by
   construction.

   An image never changes once a successor holds it: a transition edits
   a per-domain copy ([load]) and [keep] copies the result out. *)

type kind = Plain | Node | Mask

(* A region's slots, numbered in declaration order. *)
type region = { mutable width : int; mutable kinds : kind array }

let region () = { width = 0; kinds = [||] }

let slot r kind =
  r.kinds <- Array.append r.kinds [| kind |];
  r.width <- r.width + 1;
  r.width - 1

(* The line's own slots: the home directory and the value-coherence
   error. *)
module D = struct
  let r = region ()

  let nodes = slot r Plain (* the node count, so an image describes itself *)

  let dir = slot r Plain (* [Directory.state_code] *)

  let sharers = slot r Mask

  let owner = slot r Node

  let requester = slot r Node

  let requester_tid = slot r Plain (* the waiting requester's, in Busy states *)

  let mem = slot r Plain

  let stores = slot r Plain (* the last version handed out *)

  (* The node whose load broke value coherence, plus one (0 while none
     did), then the value it read and the value it had seen.  The node is
     not renamed: the error's text names it as the run saw it, so two
     states whose errors name different nodes stay apart. *)
  let error = slot r Plain

  let error_value = slot r Plain

  let error_seen = slot r Plain
end

(* Each node's slots. *)
module N = struct
  let r = region ()

  let cache = slot r Plain (* [copies] *)

  let cache_value = slot r Plain

  let rac = slot r Plain (* the RAC copy's value plus one, 0 for none *)

  (* The producer entry, [phase] to [flush_acks]; phase 0 is none. *)
  let phase = slot r Plain (* [phases] *)

  let vector = slot r Mask

  let upds = slot r Mask (* the previous epoch's consumers, pushed at the downgrade *)

  let held = slot r Plain (* what the entry owes its home: [entry_slots] *)

  let held_requester = slot r Node (* a held Get_exclusive's *)

  let held_tid = slot r Plain

  (* Nodes pushed to since the last flush.  Undelegation is fenced by a
     flush/flush-ack round on those channels, otherwise a stale update
     could land in a consumer's RAC after a post-undelegation writer
     invalidated it.  Updates themselves are fire-and-forget. *)
  let unflushed = slot r Mask

  let flush_acks = slot r Plain (* flush acknowledgments outstanding *)

  (* The transaction, [txn] to [deferred_transfer]; txn 0 is none. *)
  let txn = slot r Plain (* [txns] *)

  let acks = slot r Plain (* below zero while acks beat the grant *)

  let poisoned = slot r Plain

  let target = slot r Node (* where the current request attempt was sent *)

  let tid = slot r Plain (* echoed by replies; stale replies dropped *)

  (* An intervention or transfer received while the store was
     outstanding, run again after its commit: its requester, tid and
     kind.  A store defers at most one: the home stays Busy, NACKing
     every other request for the line, until this node answers. *)
  let deferred = slot r Node

  let deferred_tid = slot r Plain

  let deferred_transfer = slot r Plain (* 1 a transfer, 0 an intervention *)

  let hint = slot r Node

  let done_ = slot r Plain

  let seen = slot r Plain (* the highest version observed *)

  (* Writeback outstanding: interventions received while it is set
     belong to the epoch the writeback ends and are dropped; the home
     resolves the race and acknowledges the writeback. *)
  let wb = slot r Plain
end

(* A packet.  Its kind says which fields it uses: gets and getx a tid;
   fwds, intv and transfer the requester (peer) and a tid; inval the ack
   target; datas a value and a tid, datae acks as well; swb a value and
   the reader served; tack the new owner; nack a reason and a tid;
   delegate the sharers, a value, acks and a tid; newhome the home;
   undele the sharers, a value and the writer it carries, with its tid;
   update and wb a value. *)
module P = struct
  let r = region ()

  let src = slot r Node

  let dst = slot r Node

  let kind = slot r Plain (* [kinds] *)

  let peer = slot r Node

  let sharers = slot r Mask

  let value = slot r Plain

  let acks = slot r Plain

  let tid = slot r Plain

  let reason = slot r Plain (* [nack_code] *)
end

type message_kind =
  | MGetS
  | MGetX
  | MFwdS
  | MInval
  | MIntv
  | MTransfer
  | MDataS
  | MDataE
  | MAck
  | MSwb
  | MTack
  | MNack
  | MDelegate
  | MNewHome
  | MRecall
  | MUndele
  | MUpdate
  | MFlush
  | MFlushAck
  | MWb
  | MWbAck

(* Kinds by code, and the names their deliveries' labels carry. *)
let kinds =
  [| MGetS; MGetX; MFwdS; MInval; MIntv; MTransfer; MDataS; MDataE; MAck; MSwb; MTack; MNack;
     MDelegate; MNewHome; MRecall; MUndele; MUpdate; MFlush; MFlushAck; MWb; MWbAck |]

let delivery_names =
  [| "gets"; "getx"; "fwds"; "inval"; "intv"; "transfer"; "datas"; "datae"; "ack"; "swb";
     "tack"; "nack"; "delegate"; "newhome"; "recall"; "undele"; "update"; "flush";
     "flushack"; "wb"; "wback" |]

let kind_code = function
  | MGetS -> 0
  | MGetX -> 1
  | MFwdS -> 2
  | MInval -> 3
  | MIntv -> 4
  | MTransfer -> 5
  | MDataS -> 6
  | MDataE -> 7
  | MAck -> 8
  | MSwb -> 9
  | MTack -> 10
  | MNack -> 11
  | MDelegate -> 12
  | MNewHome -> 13
  | MRecall -> 14
  | MUndele -> 15
  | MUpdate -> 16
  | MFlush -> 17
  | MFlushAck -> 18
  | MWb -> 19
  | MWbAck -> 20

let nack_code : Message.nack_reason -> int = function Busy -> 0 | Not_home -> 1 | Pending -> 2

let copies = [| L2.No_copy; Shared_copy; Exclusive_copy |]

let copy_code : L2.copy -> int = function No_copy -> 0 | Shared_copy -> 1 | Exclusive_copy -> 2

let txns = [| L2.Idle; Loading; Awaiting_grant; Granted |]

let txn_code : L2.txn -> int = function
  | Idle -> 0
  | Loading -> 1
  | Awaiting_grant -> 2
  | Granted -> 3

let phases = Delegate_cache.[| No_entry; Busy; Exclusive; Shared |]

let phase_code : Delegate_cache.phase -> int = function
  | No_entry -> 0
  | Busy -> 1
  | Exclusive -> 2
  | Shared -> 3

(* [Delegate_cache.producer_step] reads a slot only as free, recalled or
   held; a held request's requester and tid are the node's slots. *)
let entry_slots = Delegate_cache.[| Free; Recalled; Held { requester = 0; tid = 0 } |]

let slot_code : Delegate_cache.slot -> int = function Free -> 0 | Recalled -> 1 | Held _ -> 2

let dstates = Directory.[| Unowned; Shared_s; Excl; Busy_shared; Busy_excl; Dele |]

(* ------------------------------------------------------------------ *)
(* Slot access                                                         *)
(* ------------------------------------------------------------------ *)

let width b = Char.code (Bytes.unsafe_get b 0)

(* Unchecked, as every index is structural: the slot table fixes the
   offsets, and [send] checks the one thing that grows, the packets. *)
external get16 : Bytes.t -> int -> int = "%caml_bytes_get16u"

external set16 : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let get b i =
  if width b = 1 then Char.code (Bytes.unsafe_get b (1 + i)) - 64
  else (get16 b (1 + (2 * i)) lsl (Sys.int_size - 16)) asr (Sys.int_size - 16)

let set b i v =
  if width b = 1 then Bytes.unsafe_set b (1 + i) (Char.unsafe_chr ((v + 64) land 0xff))
  else set16 b (1 + (2 * i)) v

(* Slot [i]'s byte offset in [b], for moving slots with [Bytes.blit]. *)
let offset b i = 1 + (width b * i)

(* A node-id slot's node, -1 for none. *)
let node_at b i = get b i - 1

let set_node_at b i n = set b i (n + 1)

let nodes_of b = get b D.nodes

let node_slot n s = D.r.width + (n * N.r.width) + s

let field b n s = get b (node_slot n s)

let set_field b n s v = set b (node_slot n s) v

let count_slot b = D.r.width + (nodes_of b * N.r.width)

let packets b = get b (count_slot b)

let packet_slot b i s = count_slot b + 1 + (i * P.r.width) + s

let msg b i s = get b (packet_slot b i s)

let msg_node b i s = node_at b (packet_slot b i s)

(* Whether the packets at slots [p] and [q] share a channel. *)
let same_channel b p q =
  get b (p + P.src) = get b (q + P.src) && get b (p + P.dst) = get b (q + P.dst)

let initial_state params ~width =
  let nodes = params.nodes in
  let b = Bytes.make (1 + (width * (D.r.width + (nodes * N.r.width) + 1))) '\000' in
  Bytes.set b 0 (Char.chr width);
  if width = 1 then Bytes.fill b 1 (Bytes.length b - 1) '\064';
  set b D.nodes nodes;
  b

(* The state a transition left in [b]. *)
let copy_out b = Bytes.sub b 0 (offset b (packet_slot b (packets b) 0))

(* The most packets one transition posts: a store's commit can serve its
   deferred request (two packets) and flush or give back the line, and a
   grant invalidates every other node. *)
let posts nodes = (4 * nodes) + 8

(* The image a transition edits, one per domain: [load] copies a state
   into it with room for every packet one transition can post. *)
let work = Domain.DLS.new_key (fun () -> ref Bytes.empty)

let load st =
  let w = Domain.DLS.get work in
  let len = Bytes.length st in
  let room = len + (width st * P.r.width * posts (nodes_of st)) in
  if Bytes.length !w < room then w := Bytes.create (2 * room);
  Bytes.blit st 0 !w 0 len;
  !w

(* The slot of the first packet from slot [p] on whose channel sorts
   after (src, dst), or [last]. *)
let rec insertion_point b ~last ~src ~dst p =
  if p = last then p
  else
    let s = node_at b (p + P.src) and d = node_at b (p + P.dst) in
    if s > src || (s = src && d > dst) then p
    else insertion_point b ~last ~src ~dst (p + P.r.width)

(* Queues a packet behind the last one of its pair. *)
let send b ~src ~dst ?(peer = -1) ?(sharers = 0) ?(value = 0) ?(acks = 0) ?(tid = 0)
    ?(reason = 0) kind =
  let count = packets b in
  let last = packet_slot b count 0 in
  if offset b (last + P.r.width) > Bytes.length b then
    failwith "Protocol_model: no room to post";
  let at = insertion_point b ~last ~src ~dst (packet_slot b 0 0) in
  Bytes.blit b (offset b at) b (offset b (at + P.r.width)) (offset b last - offset b at);
  set b (count_slot b) (count + 1);
  set_node_at b (at + P.src) src;
  set_node_at b (at + P.dst) dst;
  set b (at + P.kind) (kind_code kind);
  set_node_at b (at + P.peer) peer;
  set b (at + P.sharers) sharers;
  set b (at + P.value) value;
  set b (at + P.acks) acks;
  set b (at + P.tid) tid;
  set b (at + P.reason) reason

let remove b i =
  let at = packet_slot b i 0 and count = packets b in
  Bytes.blit b
    (offset b (at + P.r.width))
    b (offset b at)
    (offset b (packet_slot b count 0) - offset b (at + P.r.width));
  set b (count_slot b) (count - 1)

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let home = 0

let bit n = 1 lsl n

let mem_bit mask n = mask land bit n <> 0

let add_bit mask n = mask lor bit n

let rem_bit mask n = mask land lnot (bit n)

let rec popcount mask = if mask = 0 then 0 else (mask land 1) + popcount (mask lsr 1)

let field_node b n s = node_at b (node_slot n s)

let set_field_node b n s v = set_node_at b (node_slot n s) v

let copy b n = copies.(field b n N.cache)

let phase b n = phases.(field b n N.phase)

let has_entry b n = field b n N.phase <> 0

let set_copy b n c v =
  set_field b n N.cache (copy_code c);
  set_field b n N.cache_value v

let drop_copy b n = set_copy b n No_copy 0

(* An exclusive copy becomes a shared one. *)
let downgrade b n = if copy b n = Exclusive_copy then set_field b n N.cache (copy_code Shared_copy)

let has_rac b n = field b n N.rac <> 0

let rac_value b n = field b n N.rac - 1

let set_rac b n v = set_field b n N.rac (v + 1)

let drop_rac b n = set_field b n N.rac 0

let clear b n ~first ~last =
  for s = first to last do
    set_field b n s 0
  done

(* The slot records the recall, dropping a held request. *)
let mark_recalled b n =
  set_field b n N.held (slot_code Recalled);
  set_field b n N.held_requester 0;
  set_field b n N.held_tid 0

let line_value b n =
  if copy b n <> No_copy then field b n N.cache_value else rac_value b n

let dir_name : Directory.dstate -> string = function
  | Unowned -> "U"
  | Shared_s -> "S"
  | Excl -> "E"
  | Busy_shared -> "Bs"
  | Busy_excl -> "Be"
  | Dele -> "D"

let error_text b =
  Printf.sprintf "node %d read value %d after observing %d" (get b D.error - 1)
    (get b D.error_value) (get b D.error_seen)

(* ------------------------------------------------------------------ *)
(* Transition labels                                                   *)
(* ------------------------------------------------------------------ *)

(* Only a counterexample or a steering driver ever reads a label, so
   labels are interned: every label of a model with up to [label_nodes]
   nodes is built once, here, and each successor shares one.  A label is
   an index into [labels]: issues, then spontaneous moves, then
   deliveries. *)
let label_nodes = 8

module Issue = struct
  let names =
    [| "load-hit"; "load-rac"; "load-miss"; "store-hit"; "store-upgrade"; "store-regain";
       "store-miss" |]

  let load_hit = 0
  and load_rac = 1
  and load_miss = 2
  and store_hit = 3
  and store_upgrade = 4
  and store_regain = 5
  and store_miss = 6
end

(* spontaneous moves *)
module Move = struct
  let names =
    [| "downgrade"; "evict-excl-delegated"; "evict-excl"; "evict-shared"; "undelegate";
       "drop-hint" |]

  let downgrade = 0
  and evict_excl_delegated = 1
  and evict_excl = 2
  and evict_shared = 3
  and undelegate = 4
  and drop_hint = 5
end

(* A delivery has at most two outcomes (the home grants or delegates);
   the second one's label ends in "#1". *)
let alternatives = 2

let issue_count = label_nodes * Array.length Issue.names

let spontaneous_count = label_nodes * Array.length Move.names

let issue_label n k = (n * Array.length Issue.names) + k

let spontaneous_label n k = issue_count + (n * Array.length Move.names) + k

let delivery_label ~src ~dst code alt =
  assert (alt < alternatives);
  issue_count + spontaneous_count
  + (((((src * label_nodes) + dst) * Array.length delivery_names) + code) * alternatives)
  + alt

let labels =
  let s = string_of_int in
  let issues =
    Array.init issue_count (fun id ->
        let k = Array.length Issue.names in
        String.concat "" [ "n"; s (id / k); ":issue-"; Issue.names.(id mod k) ])
  in
  let spontaneous =
    Array.init spontaneous_count (fun id ->
        let k = Array.length Move.names in
        String.concat "" [ "n"; s (id / k); ":"; Move.names.(id mod k) ])
  in
  let deliveries =
    let k = Array.length delivery_names in
    Array.init
      (label_nodes * label_nodes * k * alternatives)
      (fun id ->
        let alt = id mod alternatives and rest = id / alternatives in
        let pair = rest / k in
        String.concat ""
          [ "deliver["; s (pair / label_nodes); "->"; s (pair mod label_nodes); "]:";
            delivery_names.(rest mod k); (if alt = 0 then "" else "#" ^ s alt) ])
  in
  Array.concat [ issues; spontaneous; deliveries ]

(* ------------------------------------------------------------------ *)
(* Symmetry reduction                                                  *)
(* ------------------------------------------------------------------ *)

(* Non-home nodes are interchangeable (a Murphi "scalarset"): states that
   differ only by a permutation of nodes 1..n-1 are equivalent.  The
   canonical encoding is the minimum over all such permutations of the
   renamed state's bytes ([encode_mstate]). *)

(* All permutations of fixed+1..n-1; nodes 0..fixed map to themselves.
   [fixed = 0] fixes only the home — the full symmetric group over the
   remote nodes.  The producer-consumer workload additionally fixes the
   designated producers (they are distinguishable by behaviour). *)
let permutations_fixing ~fixed n =
  let rec perms = function
    | [] -> [ [] ]
    | items ->
        List.concat_map
          (fun x ->
            List.map (fun rest -> x :: rest) (perms (List.filter (( <> ) x) items)))
          items
  in
  List.map
    (fun order -> Array.of_list (List.init (fixed + 1) Fun.id @ order))
    (perms (List.init (n - 1 - fixed) (fun i -> i + fixed + 1)))

(* All permutations of 1..n-1 (node 0, the home, is fixed). *)
let node_permutations n = permutations_fixing ~fixed:0 n

(* The designated writer of line [l] under the producer-consumer
   workload: remote nodes take turns line by line. *)
let producer_of_line params l = 1 + (l mod (params.nodes - 1))

let model_permutations params =
  match params.workload with
  | Symmetric -> node_permutations params.nodes
  | Producer_consumer ->
      let fixed = min (params.nodes - 1) params.lines in
      permutations_fixing ~fixed params.nodes

(* ------------------------------------------------------------------ *)
(* Commit helpers                                                      *)
(* ------------------------------------------------------------------ *)

let clear_txn b n = clear b n ~first:N.txn ~last:N.deferred_transfer

(* A read is coherent if each node observes the (globally serialized)
   write order monotonically. *)
let commit_read b n v ~cache_fill =
  let seen = field b n N.seen in
  if v < seen then begin
    set b D.error (n + 1);
    set b D.error_value v;
    set b D.error_seen seen
  end;
  clear_txn b n;
  set_field b n N.done_ (field b n N.done_ + 1);
  set_field b n N.seen (max v seen);
  if cache_fill && copy b n = No_copy then set_copy b n Shared_copy v

let commit_store b n =
  let v = get b D.stores + 1 in
  set b D.stores v;
  clear_txn b n;
  set_field b n N.done_ (field b n N.done_ + 1);
  set_field b n N.seen v;
  set_copy b n Exclusive_copy v;
  if not (has_entry b n) then drop_rac b n

(* ------------------------------------------------------------------ *)
(* Producer-side actions                                               *)
(* ------------------------------------------------------------------ *)

(* [Delegate_cache.producer_step] makes every delegated-home decision, as
   in the simulator; the handlers below interpret its action as packets.
   A node without an entry reads as [No_entry], unfenced and free. *)
let entry_step b n event =
  Delegate_cache.producer_step (phase b n)
    ~fenced:(field b n N.unflushed <> 0 || field b n N.flush_acks > 0)
    entry_slots.(field b n N.held) event

let set_phase b n (step : Delegate_cache.step) = set_field b n N.phase (phase_code step.phase)

(* Post flush markers chasing the pushed updates; a no-op when a flush is
   already in flight or nothing was pushed. *)
let start_flush b n =
  let targets = field b n N.unflushed in
  if has_entry b n && field b n N.flush_acks = 0 && targets <> 0 then begin
    set_field b n N.unflushed 0;
    set_field b n N.flush_acks (popcount targets);
    for c = 0 to nodes_of b - 1 do
      if mem_bit targets c then send b ~src:n ~dst:c MFlush
    done
  end

(* The exclusive copy moves to the RAC and the previous epoch's consumers
   get the new value; [exclude], a reader served now (or -1), joins the
   vector. *)
let downgrade_push params b n step ~exclude =
  let v = line_value b n in
  let pushed =
    if not params.enable_updates then 0
    else
      let upds = rem_bit (field b n N.upds) n in
      if exclude >= 0 then rem_bit upds exclude else upds
  in
  let vector = field b n N.vector in
  let vector =
    if params.bug = Some Updates_without_resharing then vector else vector lor pushed
  in
  downgrade b n;
  set_rac b n v;
  set_phase b n step;
  set_field b n N.vector (if exclude >= 0 then add_bit vector exclude else vector);
  set_field b n N.unflushed (field b n N.unflushed lor pushed);
  for c = 0 to nodes_of b - 1 do
    if mem_bit pushed c then send b ~src:n ~dst:c ~value:v MUpdate
  done

(* Gives the line back, carrying [requester]'s Get_exclusive (-1: none). *)
let undelegate b n ~requester ~tid =
  let v = line_value b n in
  let self_copy = copy b n <> No_copy || has_rac b n in
  let vector = field b n N.vector in
  let sharers = if self_copy then add_bit vector n else rem_bit vector n in
  downgrade b n;
  (* refresh the RAC backing copy, stale while Exclusive *)
  if has_rac b n then set_rac b n v;
  clear b n ~first:N.phase ~last:N.flush_acks;
  send b ~src:n ~dst:home ~sharers ~value:v ~peer:requester ~tid MUndele

(* The actions of the events that read only the fence and the slot: a
   recall, a store's commit, a flush round's end and an eviction. *)
let settle b n (step : Delegate_cache.step) =
  set_phase b n step;
  match step.action with
  | Keep -> ()
  | Mark_recalled -> mark_recalled b n
  | Flush -> start_flush b n
  | Mark_recalled_and_flush ->
      mark_recalled b n;
      start_flush b n
  | Give_back -> undelegate b n ~requester:(-1) ~tid:0
  | Give_back_held ->
      undelegate b n ~requester:(field_node b n N.held_requester) ~tid:(field b n N.held_tid)
  | _ -> assert false (* requests' and the processor's actions *)

(* The producer's store committed: a recall or a held request received
   meanwhile settles once the update flush completes. *)
let store_done b n = if has_entry b n then settle b n (entry_step b n Store_done)

(* [L2.requester_step] makes every requester decision, as in the
   simulator; the handlers below interpret its action as packets. *)
let txn b n = txns.(field b n N.txn)

(* An intervention or transfer reaching the owner, or run again once the
   store it waited for commits. *)
let forwarded b n (event : L2.event) ~requester ~tid =
  let action =
    L2.requester_step (copy b n) (txn b n) ~own:false ~wb:(field b n N.wb <> 0) ~local:false
      event
  in
  match (action, event) with
  | Defer, (Intervention | Transfer) ->
      if field b n N.deferred <> 0 then failwith "Protocol_model: a second request deferred";
      set_field_node b n N.deferred requester;
      set_field b n N.deferred_tid tid;
      set_field b n N.deferred_transfer (if event = Transfer then 1 else 0)
  | Serve, Intervention ->
      let v = field b n N.cache_value in
      set_field b n N.cache (copy_code Shared_copy);
      send b ~src:n ~dst:requester ~value:v ~tid MDataS;
      send b ~src:n ~dst:home ~value:v ~peer:requester MSwb
  | Serve, Transfer ->
      let v = field b n N.cache_value in
      drop_copy b n;
      drop_rac b n;
      send b ~src:n ~dst:requester ~value:v ~tid MDataE;
      send b ~src:n ~dst:home ~peer:requester MTack
  | Drop, _ -> ()
  | _ -> assert false (* forwarded requests draw only these *)

(* After the commit, the producer settles first, then the deferred
   request runs again. *)
let try_complete_store b n =
  if txn b n = Granted && field b n N.acks <= 0 then begin
    let requester = field_node b n N.deferred and tid = field b n N.deferred_tid in
    let event : L2.event =
      if field b n N.deferred_transfer = 1 then Transfer else Intervention
    in
    commit_store b n;
    store_done b n;
    if requester >= 0 then forwarded b n event ~requester ~tid
  end

(* ------------------------------------------------------------------ *)
(* Home-side message handling                                          *)
(* ------------------------------------------------------------------ *)

(* The home's next directory state, owner and sharers. *)
let settle_dir b dir ~owner ~sharers =
  set b D.dir dir;
  set_node_at b D.owner owner;
  set b D.sharers sharers

(* The home waits on the owner for requester [s]. *)
let wait b dir ~s ~tid =
  set b D.dir dir;
  set_node_at b D.requester s;
  set b D.requester_tid tid

(* Delivers packet [i] of [st], already removed from [b], at the home:
   outcome [alt] of the delivery, and whether outcome [alt + 1] exists
   (the home may nondeterministically delegate).  [Directory.home_step]
   makes every decision, as it does in the simulator; this interprets
   its action as packets.  The model's requesters never crash, so a
   waiting requester is always current, and its producers never NACK a
   recall. *)
let home_handle params b ~st i ~s ~alt =
  let kind = kinds.(msg st i P.kind) and tid = msg st i P.tid and value = msg st i P.value in
  let input : Directory.input =
    match kind with
    | MGetS -> Get_shared
    | MGetX -> Get_exclusive
    | MWb -> Writeback
    | MSwb -> Shared_writeback
    | MTack -> Transfer_ack
    | MUndele -> Undelegate
    | _ -> assert false (* routed to the cache side *)
  in
  let own = node_at b D.owner and req = node_at b D.requester and mem = get b D.mem in
  let req_tid = get b D.requester_tid in
  let step =
    Directory.home_step dstates.(get b D.dir) input
      (Directory.role ~owner:own ~requester:req s)
      ~current:true
  in
  let dir = Directory.state_code step.next in
  (match (step.action, kind) with
  | Serve, MGetS ->
      set b D.dir dir;
      set b D.sharers (add_bit (get b D.sharers) s);
      send b ~src:home ~dst:s ~value:mem ~tid MDataS
  | Serve, MGetX ->
      settle_dir b dir ~owner:s ~sharers:0;
      send b ~src:home ~dst:s ~value:mem ~tid MDataE
  | Grant_or_delegate, MGetX ->
      let others = rem_bit (get b D.sharers) s in
      let acks = popcount others in
      let skip_invals = alt = 1 && params.bug = Some Skip_invals_on_delegate in
      settle_dir b dir ~owner:s ~sharers:0;
      if alt = 0 then send b ~src:home ~dst:s ~value:mem ~acks ~tid MDataE
      else begin
        set b D.dir (Directory.state_code Dele);
        send b ~src:home ~dst:s ~sharers:others ~value:mem
          ~acks:(if skip_invals then 0 else acks)
          ~tid MDelegate
      end;
      if not skip_invals then
        for n = 0 to nodes_of b - 1 do
          if mem_bit others n then send b ~src:home ~dst:n ~peer:s MInval
        done
  | Nack_busy, (MGetS | MGetX) -> send b ~src:home ~dst:s ~reason:(nack_code Busy) ~tid MNack
  | Nack_pending, (MGetS | MGetX) ->
      send b ~src:home ~dst:s ~reason:(nack_code Pending) ~tid MNack
  | Intervene, MGetS ->
      wait b dir ~s ~tid;
      send b ~src:home ~dst:own ~peer:s ~tid MIntv
  | Transfer, MGetX ->
      wait b dir ~s ~tid;
      send b ~src:home ~dst:own ~peer:s ~tid MTransfer
  | Recall, MGetX ->
      wait b dir ~s ~tid;
      send b ~src:home ~dst:own MRecall
  | Forward, MGetS ->
      send b ~src:home ~dst:own ~peer:s ~tid MFwdS;
      send b ~src:home ~dst:s ~peer:own MNewHome
  | Retry_recall, _ -> send b ~src:home ~dst:own MRecall
  (* a writeback is always acknowledged *)
  | Take_back, MWb ->
      set b D.mem value;
      settle_dir b dir ~owner:(-1) ~sharers:0;
      send b ~src:home ~dst:s MWbAck
  | Serve_waiting, MWb ->
      set b D.mem value;
      settle_dir b dir ~owner:(-1) ~sharers:(bit req);
      send b ~src:home ~dst:s MWbAck;
      send b ~src:home ~dst:req ~value ~tid:req_tid MDataS
  | Rerun_waiting, MWb ->
      set b D.mem value;
      settle_dir b dir ~owner:(-1) ~sharers:0;
      send b ~src:home ~dst:s MWbAck;
      send b ~src:req ~dst:home ~tid:req_tid MGetX
  | Stale, MWb -> send b ~src:home ~dst:s MWbAck
  | Share, MSwb ->
      set b D.mem value;
      settle_dir b dir ~owner:(-1) ~sharers:(bit s)
  | Share_with_reader, MSwb ->
      set b D.mem value;
      settle_dir b dir ~owner:(-1) ~sharers:(add_bit (bit s) (msg_node st i P.peer))
  | Checkpoint, MSwb -> set b D.mem (max mem value)
  | Confirm_transfer, MTack -> settle_dir b dir ~owner:(msg_node st i P.peer) ~sharers:0
  | (Reclaim | Reclaim_and_rerun), MUndele ->
      let sharers = msg st i P.sharers and writer = msg_node st i P.peer in
      set b D.mem value;
      settle_dir b
        (Directory.state_code (Directory.reclaimed ~kept_owner:false ~sharers:(sharers <> 0)))
        ~owner:(-1) ~sharers;
      (* the carried request, then the waiting one *)
      if writer >= 0 then send b ~src:writer ~dst:home ~tid MGetX;
      if step.action = Reclaim_and_rerun then send b ~src:req ~dst:home ~tid:req_tid MGetX
  | Stale, _ -> ()
  | _, _ -> assert false (* each action comes with its input *));
  alt = 0 && step.action = Grant_or_delegate && params.enable_delegation

(* ------------------------------------------------------------------ *)
(* Cache/producer-side message handling                                *)
(* ------------------------------------------------------------------ *)

(* A read ([event] [Read]) or a Get_exclusive ([Write]) at a delegated
   home, or at a node that no longer is one. *)
let serve_request params b n event ~requester ~tid =
  let step = entry_step b n event in
  match step.action with
  | Nack_busy -> send b ~src:n ~dst:requester ~reason:(nack_code Busy) ~tid MNack
  | Nack_not_home -> send b ~src:n ~dst:requester ~reason:(nack_code Not_home) ~tid MNack
  | Downgrade_and_serve ->
      let v = line_value b n in
      downgrade_push params b n step ~exclude:requester;
      send b ~src:n ~dst:requester ~value:v ~tid MDataS
  | Serve ->
      (* the RAC copy backs every producer entry (Missing_backing) *)
      assert (has_rac b n);
      set_field b n N.vector (add_bit (field b n N.vector) requester);
      send b ~src:n ~dst:requester ~value:(rac_value b n) ~tid MDataS
  | Hold | Hold_and_flush ->
      set_phase b n step;
      set_field b n N.held (slot_code (Held { requester; tid }));
      set_field_node b n N.held_requester requester;
      set_field b n N.held_tid tid;
      if step.action = Hold_and_flush then start_flush b n
  | Give_back_with_request -> undelegate b n ~requester ~tid
  | _ -> assert false (* requests draw only these *)

let resend_request b n =
  let t = txn b n in
  if t <> Idle then begin
    let target = match field_node b n N.hint with -1 -> home | h -> h in
    set_field_node b n N.target target;
    send b ~src:n ~dst:target ~tid:(field b n N.tid) (if t = Loading then MGetS else MGetX)
  end

let owns b n tid = txn b n <> Idle && field b n N.tid = tid

(* A reply, invalidation or push (packet [i] of [st]) reaching a cache.
   [own]: does the message's tid name the node's transaction (tid
   carriers only)? *)
let requester_event params b n (event : L2.event) ~own ~st i =
  let value = msg st i P.value and acks = msg st i P.acks in
  match L2.requester_step No_copy (txn b n) ~own ~wb:false ~local:false event with
  | Commit_load -> commit_read b n value ~cache_fill:(field b n N.poisoned = 0)
  | Take_grant ->
      set_field b n N.txn (txn_code Granted);
      set_field b n N.acks (field b n N.acks + acks);
      try_complete_store b n
  | Take_delegation ->
      set_rac b n value;
      clear b n ~first:N.phase ~last:N.flush_acks;
      set_field b n N.phase (phase_code Busy);
      set_field b n N.vector (bit n);
      set_field b n N.upds (msg st i P.sharers);
      set_field b n N.txn (txn_code Granted);
      set_field b n N.acks (field b n N.acks + acks);
      try_complete_store b n
  | Return_delegation -> send b ~src:n ~dst:home ~sharers:(msg st i P.sharers) ~value MUndele
  | (Retry | Retry_unhinted) as action ->
      if action = Retry_unhinted then set_field_node b n N.hint (-1);
      resend_request b n
  | Credit_ack ->
      set_field b n N.acks (field b n N.acks - 1);
      try_complete_store b n
  | (Invalidate | Invalidate_and_poison) as action ->
      if action = Invalidate_and_poison && params.bug <> Some No_poison_on_inval then
        set_field b n N.poisoned 1;
      drop_copy b n;
      drop_rac b n;
      send b ~src:n ~dst:(msg_node st i P.peer) MAck
  | Commit_update ->
      (* update-as-reply (§2.4.3); the superseded data reply is dropped
         by its stale transaction id *)
      commit_read b n value ~cache_fill:true
  | Fill_rac -> set_rac b n value
  | Drop -> ()
  | _ -> assert false (* each action comes with its event *)

(* Delivers packet [i] of [st], already removed from [b], at cache [n]. *)
let cache_handle params b ~st i ~src n =
  let tid = msg st i P.tid and peer = msg_node st i P.peer in
  let own = owns b n tid in
  match kinds.(msg st i P.kind) with
  | MDataS -> requester_event params b n Data_shared ~own ~st i
  | MDataE -> requester_event params b n Data_exclusive ~own ~st i
  | MDelegate -> requester_event params b n Delegate ~own ~st i
  | MNack ->
      requester_event params b n
        (if msg st i P.reason = nack_code Not_home then Nack_not_home else Nack)
        ~own ~st i
  | MAck -> requester_event params b n Inv_ack ~own:false ~st i
  | MInval -> requester_event params b n Inval ~own:false ~st i
  | MUpdate -> requester_event params b n Update ~own:false ~st i
  | MIntv -> forwarded b n Intervention ~requester:peer ~tid
  | MTransfer -> forwarded b n Transfer ~requester:peer ~tid
  | MNewHome -> if peer <> n then set_field_node b n N.hint peer
  | MFlush -> send b ~src:n ~dst:src MFlushAck
  | MFlushAck ->
      let acks = field b n N.flush_acks in
      if has_entry b n && acks > 0 then begin
        set_field b n N.flush_acks (acks - 1);
        if acks = 1 then settle b n (entry_step b n Flush_done)
      end
  | MFwdS -> serve_request params b n Read ~requester:peer ~tid
  | MGetS -> serve_request params b n Read ~requester:src ~tid
  | MGetX -> serve_request params b n Write ~requester:src ~tid
  | MRecall -> (
      let step = entry_step b n Recall in
      match step.action with
      | Recall_nack ->
          (* dropped: a recall cannot overtake its Delegate on their FIFO
             channel, so the entry's Undelegate is on its way home *)
          ()
      | _ -> settle b n step)
  | MWbAck -> set_field b n N.wb 0
  | MWb | MSwb | MTack | MUndele -> assert false (* home side *)

(* ------------------------------------------------------------------ *)
(* Transition enumeration                                              *)
(* ------------------------------------------------------------------ *)

(* [keep] adds the edited image in [b] to [acc] as the successor [wrap]
   copies out of it, unless it overfills a channel: the message it would
   react to then stays in the network for later. *)
let rec fits capacity b ~first ~last p run =
  p = last
  ||
  let run = if p > first && same_channel b p (p - P.r.width) then run + 1 else 1 in
  run <= capacity && fits capacity b ~first ~last (p + P.r.width) run

let keep params labels wrap id b acc =
  if
    fits params.channel_capacity b ~first:(packet_slot b 0 0)
      ~last:(packet_slot b (packets b) 0)
      (packet_slot b 0 0) 0
  then
    (labels.(id), wrap b) :: acc
  else acc

let issue_step st n event ~local =
  L2.requester_step (copy st n) Idle ~own:false ~wb:false ~local event

(* A miss's transaction and its first request. *)
let start_miss b n ~store =
  set_field b n N.txn (txn_code (if store then Awaiting_grant else Loading));
  set_field b n N.tid ((2 * field b n N.done_) + Bool.to_int store);
  resend_request b n

let issue_transitions params labels wrap ~line st n acc =
  if txn st n <> Idle || field st n N.done_ >= params.max_ops_per_node then acc
  else begin
    let may_load, may_store =
      match params.workload with
      | Symmetric -> (true, true)
      | Producer_consumer ->
          let p = producer_of_line params line in
          (n <> p, n = p)
    in
    let acc =
      if not may_load then acc
      else
        let b = load st in
        match issue_step st n Issue_load ~local:(has_rac st n) with
        | (Hit | Local) as action ->
            commit_read b n (line_value b n) ~cache_fill:true;
            keep params labels wrap
              (issue_label n (if action = Hit then Issue.load_hit else Issue.load_rac))
              b acc
        | Request ->
            start_miss b n ~store:false;
            keep params labels wrap (issue_label n Issue.load_miss) b acc
        | _ -> assert false (* an issue draws only these *)
    in
    if not may_store then acc
    else
      let b = load st in
      match issue_step st n Issue_store ~local:(has_entry st n) with
      | Hit ->
          commit_store b n;
          keep params labels wrap (issue_label n Issue.store_hit) b acc
      | Local -> (
          let step = entry_step b n Own_store in
          match step.action with
          | Local_upgrade ->
              (* delegated local upgrade: invalidate consumers directly *)
              let others = rem_bit (field b n N.vector) n in
              set_phase b n step;
              set_field b n N.upds others;
              set_field b n N.vector (bit n);
              set_field b n N.txn (txn_code Granted);
              set_field b n N.acks (popcount others);
              set_field_node b n N.target n;
              set_field b n N.tid ((2 * field b n N.done_) + 1);
              for c = 0 to nodes_of b - 1 do
                if mem_bit others c then send b ~src:n ~dst:c ~peer:n MInval
              done;
              try_complete_store b n;
              keep params labels wrap (issue_label n Issue.store_upgrade) b acc
          | Regain ->
              (* exclusivity held, line evicted to the pinned RAC entry *)
              commit_store b n;
              store_done b n;
              keep params labels wrap (issue_label n Issue.store_regain) b acc
          | _ -> assert false (* the blocking processor is the only writer *))
      | Request ->
          start_miss b n ~store:true;
          keep params labels wrap (issue_label n Issue.store_miss) b acc
      | _ -> assert false (* an issue draws only these *)
  end

(* Offered in this order: hint eviction, undelegation, cache eviction,
   delayed intervention. *)
let spontaneous_transitions params labels wrap st n acc =
  (* consumer-table hint eviction *)
  let acc =
    if field st n N.hint = 0 then acc
    else
      let b = load st in
      set_field b n N.hint 0;
      keep params labels wrap (spontaneous_label n Move.drop_hint) b acc
  in
  (* capacity undelegation *)
  let acc =
    if not (has_entry st n) then acc
    else
      let step = entry_step st n Evicted in
      match step.action with
      | Keep -> acc
      | _ ->
          let b = load st in
          settle b n step;
          keep params labels wrap (spontaneous_label n Move.undelegate) b acc
  in
  (* cache eviction *)
  let acc =
    match copy st n with
    | No_copy -> acc
    | c ->
        let b = load st and v = field st n N.cache_value in
        drop_copy b n;
        if c = Shared_copy then begin
          if n <> home then set_rac b n v;
          keep params labels wrap (spontaneous_label n Move.evict_shared) b acc
        end
        else if has_entry b n then begin
          set_rac b n v;
          keep params labels wrap (spontaneous_label n Move.evict_excl_delegated) b acc
        end
        else begin
          set_field b n N.wb 1;
          send b ~src:n ~dst:home ~value:v MWb;
          keep params labels wrap (spontaneous_label n Move.evict_excl) b acc
        end
  in
  (* delayed intervention fires *)
  if not (has_entry st n) then acc
  else
    let step = entry_step st n Burst_over in
    match step.action with
    | Downgrade_and_push ->
        let b = load st in
        downgrade_push params b n step ~exclude:(-1);
        keep params labels wrap (spontaneous_label n Move.downgrade) b acc
    | _ -> acc

(* Every outcome of delivering packet [i], from outcome [alt] on. *)
let rec deliver params labels wrap st i alt acc =
  let b = load st in
  remove b i;
  let src = msg_node st i P.src and dst = msg_node st i P.dst and code = msg st i P.kind in
  let more =
    match kinds.(code) with
    | (MGetS | MGetX) when dst = home -> home_handle params b ~st i ~s:src ~alt
    | MWb | MSwb | MTack | MUndele -> home_handle params b ~st i ~s:src ~alt
    | _ ->
        cache_handle params b ~st i ~src dst;
        false
  in
  let acc = keep params labels wrap (delivery_label ~src ~dst code alt) b acc in
  if more then deliver params labels wrap st i (alt + 1) acc else acc

(* Each pair's head-of-line packet, in (src, dst) order. *)
let deliver_transitions params labels wrap st acc =
  let acc = ref acc in
  for i = 0 to packets st - 1 do
    if i = 0 || not (same_channel st (packet_slot st i 0) (packet_slot st (i - 1) 0)) then
      acc := deliver params labels wrap st i 0 !acc
  done;
  !acc

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

(* Value coherence (every read observes the write order) is the model's
   own, recorded in the error slots as reads commit.  The structural
   invariants are [Pcc_core.Dir_invariants], read through a line view
   filled from the state, with the network answering "may this still be
   in transit". *)
module Inv = Pcc_core.Dir_invariants
module Nodeset = Pcc_core.Nodeset

let fill_view (v : Inv.view) st =
  v.nodes <- nodes_of st;
  v.dir <- dstates.(get st D.dir);
  v.owner <- node_at st D.owner;
  v.requester <- node_at st D.requester;
  v.sharers <- Nodeset.of_mask (get st D.sharers);
  v.mem <- get st D.mem;
  for n = 0 to nodes_of st - 1 do
    v.l2.(n) <- copy st n;
    if copy st n <> No_copy then v.l2_value.(n) <- field st n N.cache_value;
    v.rac.(n) <- has_rac st n;
    if has_rac st n then v.rac_value.(n) <- rac_value st n;
    v.phase.(n) <- phase st n;
    if has_entry st n then v.vector.(n) <- Nodeset.of_mask (field st n N.vector)
  done;
  v.transfer <- Nodeset.empty;
  v.reaching <- Nodeset.empty;
  v.delegating <- Nodeset.empty;
  v.handoff <- false;
  let own = v.owner in
  for i = 0 to packets st - 1 do
    let dst = msg_node st i P.dst in
    match kinds.(msg st i P.kind) with
    | MInval | MUpdate -> v.reaching <- Nodeset.add v.reaching dst
    | MUndele ->
        (* a winding-down delegation carries its vector home *)
        v.reaching <- Nodeset.union v.reaching (Nodeset.of_mask (msg st i P.sharers));
        if msg_node st i P.src = own then v.handoff <- true
    | MTack -> v.transfer <- Nodeset.add v.transfer (msg_node st i P.peer)
    | MDelegate when dst = own ->
        v.delegating <- Nodeset.union v.delegating (Nodeset.of_mask (msg st i P.sharers));
        v.handoff <- true
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Model assembly                                                      *)
(* ------------------------------------------------------------------ *)

(* Issues, then spontaneous moves, then deliveries; [labels] names the
   line's transitions (see [line_labels]) and [wrap] copies each edited
   image out as a successor. *)
let all_successors ?(line = 0) params labels wrap st =
  let acc = ref [] in
  for n = 0 to params.nodes - 1 do
    acc := issue_transitions params labels wrap ~line st n !acc
  done;
  for n = 0 to params.nodes - 1 do
    acc := spontaneous_transitions params labels wrap st n !acc
  done;
  List.rev (deliver_transitions params labels wrap st !acc)

(* One view per domain, since the checker evaluates invariants on several
   domains at once.  [filled] is the state the view was last filled
   from, so a state's three structural invariants share one fill. *)
type view_scratch = { view : Inv.view; mutable filled : Bytes.t }

let view_scratch =
  Domain.DLS.new_key (fun () -> { view = Inv.create label_nodes; filled = Bytes.empty })

let structural inv st =
  let sc = Domain.DLS.get view_scratch in
  if sc.filled != st then begin
    fill_view sc.view st;
    sc.filled <- st
  end;
  Inv.holds Event_boundary inv sc.view

let invariants_list =
  ("value coherence", fun st -> get st D.error = 0)
  :: List.map (fun inv -> (Inv.name inv, structural inv)) Inv.invariants

let cache_name st n =
  match copy st n with
  | No_copy -> "I"
  | c -> Printf.sprintf "%s%d" (if c = Shared_copy then "S" else "E") (field st n N.cache_value)

let pp_state ppf st =
  Format.fprintf ppf "@[<v>dir=%s own=%d req=%d shr=%x mem=%d nextv=%d@,"
    (dir_name dstates.(get st D.dir))
    (node_at st D.owner) (node_at st D.requester) (get st D.sharers) (get st D.mem)
    (get st D.stores);
  for n = 0 to nodes_of st - 1 do
    Format.fprintf ppf "n%d: cache=%s rac=%s prod=%s pend=%s done=%d seen=%d@," n
      (cache_name st n)
      (if has_rac st n then string_of_int (rac_value st n) else "-")
      (match phase st n with Busy -> "B" | Exclusive -> "E" | Shared -> "S" | No_entry -> "-")
      (match txn st n with Idle -> "-" | Loading -> "L" | Awaiting_grant | Granted -> "W")
      (field st n N.done_) (field st n N.seen)
  done;
  Format.fprintf ppf "net: %d msgs@]" (packets st)

(* ------------------------------------------------------------------ *)
(* Renaming and the canonical encoding                                 *)
(* ------------------------------------------------------------------ *)

let rename_mask perm mask =
  let renamed = ref 0 in
  for n = 0 to Array.length perm - 1 do
    if mem_bit mask n then renamed := add_bit !renamed perm.(n)
  done;
  !renamed

let renamed perm kind v =
  match kind with
  | Plain -> v
  | Node -> if v = 0 then 0 else perm.(v - 1) + 1
  | Mask -> rename_mask perm v

(* Region [r] of the one-byte image [st] from slot [from], renamed, at
   byte [pos] of [out]; returns where it ends. *)
let copy_region r perm st from out pos =
  for s = 0 to r.width - 1 do
    let c = Bytes.get st (1 + from + s) in
    Bytes.set out (pos + s)
      (match r.kinds.(s) with
      | Plain -> c
      | kind -> Char.unsafe_chr (renamed perm kind (Char.code c - 64) + 64))
  done;
  pos + r.width

let sort_prefix (a : int array) k =
  for i = 1 to k - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* The one renamer: writes the slots of the checker's line [st] under
   node permutation [perm] ([inv] is its inverse) at byte [pos] of [out],
   one byte each, and returns where they end.  Every node id and mask is
   renamed, node [j]'s slots are node [inv.(j)]'s, and the packets are
   re-sorted by renamed (src, dst), each pair's queue kept in order: the
   result is the renamed state's image without its width byte.  [keys]
   is scratch, an int per packet. *)
let rename ~perm ~inv ~keys st out pos =
  let nodes = nodes_of st in
  let pos = ref (copy_region D.r perm st 0 out pos) in
  for j = 0 to nodes - 1 do
    let from = node_slot inv.(j) 0 in
    pos := copy_region N.r perm st from out !pos
  done;
  let count = packets st in
  Bytes.set out !pos (Bytes.get st (count_slot st + 1));
  incr pos;
  for i = 0 to count - 1 do
    let pair = (perm.(msg_node st i P.src) * nodes) + perm.(msg_node st i P.dst) in
    keys.(i) <- (pair lsl 20) lor i
  done;
  sort_prefix keys count;
  for i = 0 to count - 1 do
    pos := copy_region P.r perm st (packet_slot st (keys.(i) land 0xfffff) 0) out !pos
  done;
  !pos

(* [String.compare] of two regions of [b]. *)
let rec compare_regions b i ilen j jlen =
  if ilen = 0 || jlen = 0 then Int.compare ilen jlen
  else
    let c = Char.compare (Bytes.unsafe_get b i) (Bytes.unsafe_get b j) in
    if c <> 0 then c else compare_regions b (i + 1) (ilen - 1) (j + 1) (jlen - 1)

(* ------------------------------------------------------------------ *)
(* Multi-line composition                                               *)
(* ------------------------------------------------------------------ *)

(* [lines] independent single-line protocol instances over the same node
   set.  Because the instances share nothing, (a) every transition
   belongs to exactly one line, so per-line transition groups are
   independence classes for partial-order reduction, and (b) the
   symmetry group grows: a global node permutation (applied to every
   line at once) composed with any permutation of the lines maps
   reachable states to reachable states and preserves all invariants. *)

type mstate = Bytes.t array

let initial_mstate params = Array.init params.lines (fun _ -> initial_state params ~width:1)

let line_label params l label =
  if params.lines > 1 then Printf.sprintf "L%d:%s" l label else label

(* Each line's label table: [labels] itself for a single line, otherwise
   one copy per line with every label prefixed "L<l>:". *)
let line_labels params =
  if params.lines = 1 then [| labels |]
  else Array.init params.lines (fun l -> Array.map (line_label params l) labels)

let line_successors params tables (mst : mstate) l =
  all_successors ~line:l params tables.(l)
    (fun b ->
      let ls = Array.copy mst in
      ls.(l) <- copy_out b;
      ls)
    mst.(l)

let mstate_successors params tables (mst : mstate) =
  match mst with
  | [| _ |] -> line_successors params tables mst 0
  | ls -> List.concat (List.init (Array.length ls) (line_successors params tables mst))

(* Transition groups for POR, in fixed line order.  The checker expands
   the first group offering an unexplored successor; the soundness
   argument (DESIGN.md, "Verification") depends on this order being a
   fixed function of the line index, not of the state. *)
let mstate_groups params tables (mst : mstate) =
  List.init (Array.length mst) (line_successors params tables mst)

let mstate_invariants params =
  List.concat
    (List.init params.lines (fun l ->
         List.map
           (fun (name, pred) -> (line_label params l name, fun (mst : mstate) -> pred mst.(l)))
           invariants_list))

let line_quiescent params st =
  let idle = ref (packets st = 0) in
  for n = 0 to params.nodes - 1 do
    idle := !idle && txn st n = Idle && field st n N.done_ >= params.max_ops_per_node
  done;
  !idle

let mstate_quiescent params (mst : mstate) = Array.for_all (line_quiescent params) mst

let pp_mstate ppf (mst : mstate) =
  if Array.length mst = 1 then pp_state ppf mst.(0)
  else begin
    Format.fprintf ppf "@[<v>";
    Array.iteri (fun l st -> Format.fprintf ppf "line %d: %a@," l pp_state st) mst;
    Format.fprintf ppf "@]"
  end

(* Canonical representative over the node × line symmetry group: for each
   admissible node permutation, rename every line into one byte a slot,
   order the interchangeable lines by their bytes (all lines under the
   symmetric workload; only same-producer lines under the
   producer-consumer workload, since distinct producers make lines
   distinguishable), and keep the lexicographically least concatenation
   over all permutations.  Every candidate has one byte per slot of the
   state, and the least so far sits at the front of the scratch buffer.
   Fixed-width lines with a packet count and params-determined group
   sizes keep the concatenation injective. *)

(* The scratch of [encode_mstate], one per domain, since the checker
   encodes on several domains at once; an encoding allocates only its
   result.  Line [l] of the current candidate is bytes
   [starts.(l), starts.(l+1)). *)
type scratch = {
  mutable out : Bytes.t;
  mutable keys : int array;
  mutable starts : int array;
  mutable order : int array;
  mutable inv : int array;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      { out = Bytes.empty; keys = [||]; starts = [||]; order = [||]; inv = [||] })

(* Sizes [sc] for [mst], whose lines hold [slots] slots in all. *)
let prepare sc (mst : mstate) ~slots =
  let lines = Array.length mst in
  if Bytes.length sc.out < 3 * slots then sc.out <- Bytes.create (6 * slots);
  if Array.length sc.order < lines then begin
    sc.starts <- Array.make (lines + 1) 0;
    sc.order <- Array.make lines 0
  end;
  if Array.length sc.inv < nodes_of mst.(0) then sc.inv <- Array.make (nodes_of mst.(0)) 0;
  for l = 0 to lines - 1 do
    let count = packets mst.(l) in
    if Array.length sc.keys < count then sc.keys <- Array.make (2 * count) 0;
    sc.order.(l) <- l
  done

let line_class params l =
  match params.workload with
  | Symmetric -> 0
  | Producer_consumer -> l mod (params.nodes - 1)

(* Whether line [a] of the current candidate sorts before line [b]. *)
let line_before params sc a b =
  let ca = line_class params a and cb = line_class params b in
  if ca <> cb then ca < cb
  else
    let starts = sc.starts in
    compare_regions sc.out starts.(a)
      (starts.(a + 1) - starts.(a))
      starts.(b)
      (starts.(b + 1) - starts.(b))
    < 0

(* Writes [perm]'s candidate from byte [at] on and returns where it
   starts.  The identity's lines are the images as they are. *)
let write_candidate params sc (mst : mstate) perm ~identity ~at =
  let lines = Array.length mst in
  for i = 0 to Array.length perm - 1 do
    sc.inv.(perm.(i)) <- i
  done;
  let pos = ref at in
  for l = 0 to lines - 1 do
    sc.starts.(l) <- !pos;
    if identity then begin
      let len = Bytes.length mst.(l) - 1 in
      Bytes.blit mst.(l) 1 sc.out !pos len;
      pos := !pos + len
    end
    else pos := rename ~perm ~inv:sc.inv ~keys:sc.keys mst.(l) sc.out !pos
  done;
  sc.starts.(lines) <- !pos;
  if lines = 1 then at
  else begin
    let order = sc.order in
    for i = 1 to lines - 1 do
      let x = order.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && line_before params sc x order.(!j) do
        order.(!j + 1) <- order.(!j);
        decr j
      done;
      order.(!j + 1) <- x
    done;
    let cand = !pos in
    for i = 0 to lines - 1 do
      let l = order.(i) in
      let len = sc.starts.(l + 1) - sc.starts.(l) in
      Bytes.blit sc.out sc.starts.(l) sc.out !pos len;
      pos := !pos + len
    done;
    cand
  end

let encode_mstate params =
  let perms = Array.of_list (model_permutations params) in
  fun (mst : mstate) ->
    let sc = Domain.DLS.get scratch in
    let slots = ref 0 in
    for l = 0 to Array.length mst - 1 do
      slots := !slots + Bytes.length mst.(l) - 1
    done;
    let slots = !slots in
    prepare sc mst ~slots;
    (* the least candidate so far is bytes [0, slots); [permutations_fixing]
       lists the identity first *)
    for k = 0 to Array.length perms - 1 do
      let cand = write_candidate params sc mst perms.(k) ~identity:(k = 0) ~at:slots in
      if k = 0 || compare_regions sc.out cand slots 0 slots < 0 then
        Bytes.blit sc.out cand sc.out 0 slots
    done;
    Bytes.sub_string sc.out 0 slots

(* The largest int the one-byte encoding holds: 192 + 64 wraps to 0. *)
let max_encoded = 191

let validate params =
  if params.nodes < 2 || params.nodes > 7 then
    invalid_arg "Protocol_model: nodes must be in 2..7 (canonicalization \
                 enumerates (nodes-1)! permutations)";
  if params.lines < 1 then invalid_arg "Protocol_model: lines must be >= 1";
  if params.max_ops_per_node < 0 then
    invalid_arg "Protocol_model: max_ops_per_node must be >= 0";
  if params.nodes * params.max_ops_per_node > max_encoded then
    invalid_arg
      (Printf.sprintf
         "Protocol_model: versions reach nodes * max_ops_per_node = %d; the \
          one-byte encoding holds at most %d"
         (params.nodes * params.max_ops_per_node)
         max_encoded);
  (* a transition's posts land before [keep] drops an overfull successor *)
  let in_flight = (params.channel_capacity * params.nodes * params.nodes) + posts params.nodes in
  if in_flight > max_encoded then
    invalid_arg
      (Printf.sprintf
         "Protocol_model: in-flight messages reach channel_capacity * nodes^2 plus one \
          transition's posts = %d; the one-byte encoding holds at most %d"
         in_flight max_encoded)

let make ?(por = true) params =
  validate params;
  let tables = line_labels params in
  (module struct
    type state = mstate

    let initial = [ initial_mstate params ]

    let successors = mstate_successors params tables

    let por =
      if por && params.lines > 1 then Some (mstate_groups params tables) else None

    let invariants = mstate_invariants params

    let is_quiescent = mstate_quiescent params

    let encode = encode_mstate params

    let pp = pp_mstate
  end : Checker.MODEL)

(* ------------------------------------------------------------------ *)
(* Test hooks (symmetry properties)                                     *)
(* ------------------------------------------------------------------ *)

module Sym = struct
  type nonrec mstate = mstate

  let initial = initial_mstate

  let successors params = mstate_successors params (line_labels params)

  let encode = encode_mstate

  let node_permutations = node_permutations

  let rename_nodes perm (mst : mstate) : mstate =
    let inv = Array.make (Array.length perm) 0 in
    Array.iteri (fun i j -> inv.(j) <- i) perm;
    Array.map
      (fun st ->
        let out = Bytes.create (Bytes.length st) in
        Bytes.set out 0 '\001';
        ignore (rename ~perm ~inv ~keys:(Array.make (packets st) 0) st out 1 : int);
        out)
      mst

  let permute_lines perm (mst : mstate) : mstate =
    Array.init (Array.length mst) (fun i -> mst.(perm.(i)))

  (* What [encode] must equal, built the plain way: per permutation,
     rename whole states with [rename_nodes], take each line's slots as a
     string, sort the interchangeable lines and concatenate; keep the
     least. *)
  let reference_encode params (mst : mstate) =
    let slots st = Bytes.sub_string st 1 (Bytes.length st - 1) in
    let sort_parts parts =
      match params.workload with
      | Symmetric -> List.sort String.compare parts
      | Producer_consumer ->
          let k = params.nodes - 1 in
          let classes = Array.make k [] in
          List.iteri (fun l part -> classes.(l mod k) <- part :: classes.(l mod k)) parts;
          Array.to_list classes |> List.concat_map (List.sort String.compare)
    in
    List.fold_left
      (fun best perm ->
        let parts = Array.to_list (Array.map slots (rename_nodes perm mst)) in
        let parts = if Array.length mst > 1 then sort_parts parts else parts in
        let candidate = String.concat "" parts in
        match best with Some b when String.compare b candidate <= 0 -> best | _ -> Some candidate)
      None (model_permutations params)
    |> Option.get

  (* A symmetry-invariant projection of the observable facts: any two
     states related by a node/line permutation agree on it, so
     [encode a = encode b] must imply [semantic_sig a = semantic_sig b]. *)
  let semantic_sig (mst : mstate) =
    let line_sig st =
      let per_node =
        List.init (nodes_of st) (fun n ->
            Printf.sprintf "%s/%d/%d" (cache_name st n) (field st n N.done_) (field st n N.seen))
        |> List.sort String.compare
      in
      Printf.sprintf "%s|%d|%d|%d|%d|%s"
        (dir_name dstates.(get st D.dir))
        (get st D.mem) (get st D.stores)
        (popcount (get st D.sharers))
        (packets st) (String.concat "," per_node)
    in
    Array.to_list (Array.map line_sig mst) |> List.sort String.compare |> String.concat ";"
end

(* ------------------------------------------------------------------ *)
(* Observable stepping (differential testing)                          *)
(* ------------------------------------------------------------------ *)

(* The packed [Checker.MODEL] hides the state type, which is right for
   exhaustive search but useless for a driver that must steer the model
   along a specific execution and compare observables against the
   simulator.  [Step] re-exposes the same transition system with the
   state abstract-but-inspectable. *)
module Step = struct
  type state = Bytes.t

  let max_value = 0x7fff

  let initial params =
    if params.nodes > label_nodes then
      invalid_arg
        (Printf.sprintf "Protocol_model.Step: at most %d nodes" label_nodes);
    if
      params.nodes * params.max_ops_per_node > max_value
      || params.channel_capacity * params.nodes * params.nodes > max_value
    then
      invalid_arg
        (Printf.sprintf "Protocol_model.Step: a slot holds values up to %d" max_value);
    initial_state params ~width:2

  let successors params st = all_successors params labels copy_out st

  let invariants = invariants_list

  let done_count st n = field st n N.done_

  let last_seen st n = field st n N.seen

  let has_pending st n = txn st n <> Idle

  let store_count st = get st D.stores

  let net_size = packets

  let dir_stable st =
    match dstates.(get st D.dir) with
    | Busy_shared | Busy_excl -> false
    | Unowned | Shared_s | Excl | Dele -> true

  let final_value st =
    let own = node_at st D.owner in
    match dstates.(get st D.dir) with
    | Unowned | Shared_s -> Some (get st D.mem)
    | Excl | Busy_shared | Busy_excl ->
        if own < 0 || copy st own = No_copy then None else Some (field st own N.cache_value)
    | Dele -> (
        match line_value st own with -1 -> None | v -> Some v)

  let error st = if get st D.error = 0 then None else Some (error_text st)

  let pp = pp_state
end
