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
(* Model state                                                         *)
(* ------------------------------------------------------------------ *)

type cstate = CI | CS of int | CE of int

type pkind = PL | PW

type pend = {
  pkind : pkind;
  have_data : bool;
  acks : int;
  poisoned : bool;
  target : int;  (* where the current request attempt was sent *)
  tid : int;  (* transaction id echoed by replies; stale replies dropped *)
  deferred : L2.deferred list;
      (* interventions and transfers received while the store was
         outstanding, run again after its commit *)
}

type prod = {
  phase : Delegate_cache.phase;  (* Busy, Exclusive or Shared *)
  psharers : int;
  upds : int;
  slot : Delegate_cache.slot;  (* what the entry owes its home *)
  unflushed : int;
      (* nodes pushed to since the last flush; undelegation is fenced by a
         flush/flush-ack round on those channels, otherwise a stale update
         could land in a consumer's RAC after a post-undelegation writer
         invalidated it.  Updates themselves are fire-and-forget. *)
  fl_acks : int;  (* flush acknowledgments outstanding *)
}

type nst = {
  cache : cstate;
  rac : int option;
  prod : prod option;
  pend : pend option;
  hint : int option;
  done_ : int;
  last_seen : int;
  wbp : bool;
      (* writeback outstanding: interventions received while true belong
         to the epoch the writeback ends and are dropped; the home
         resolves the race and acknowledges the writeback *)
}

type msg =
  | MGetS of int  (* requester's transaction id, echoed by the reply *)
  | MGetX of int
  | MFwdS of int * int  (* requester, tid *)
  | MInval of int  (* ack target *)
  | MIntv of int * int  (* requester, tid *)
  | MTransfer of int * int
  | MDataS of int * int  (* value, tid *)
  | MDataE of int * int * int  (* value, acks expected, tid *)
  | MAck
  | MSwb of int * int  (* value, new sharer *)
  | MTack of int  (* new owner *)
  | MNack of Message.nack_reason * int  (* tid *)
  | MDelegate of int * int * int * int  (* sharers, value, acks expected, tid *)
  | MNewHome of int
  | MRecall
  | MUndele of int * int option * (int * int) option
      (* sharers, value, pending (writer, tid) *)
  | MUpdate of int
  | MFlush
  | MFlushAck
  | MWb of int
  | MWbAck

(* Channels between each (src, dst) pair are FIFO, as in the modeled
   NUMALink interconnect (and the simulator): [seq] orders messages within
   a pair and only the head-of-line message of each pair is deliverable.
   The speculative-update mechanism depends on this ordering — an update
   overtaken by a later invalidation from the same producer would strand a
   stale copy (the model checker finds this if delivery is unordered). *)
type packet = { src : int; dst : int; seq : int; msg : msg }

type state = {
  ns : nst array;
  dir : Directory.dstate;
  shr : int;
  own : int;
  req : int;
  req_tid : int;  (* pending requester's transaction id in Busy states *)
  mem : int;
  net : packet list;
  nextv : int;
  error : string option;
}

(* ------------------------------------------------------------------ *)
(* Small helpers                                                       *)
(* ------------------------------------------------------------------ *)

let home = 0

let bit n = 1 lsl n

let mem_bit mask n = mask land bit n <> 0

let add_bit mask n = mask lor bit n

let rem_bit mask n = mask land lnot (bit n)

let bits_list mask =
  let rec collect n acc =
    if n < 0 then acc else collect (n - 1) (if mem_bit mask n then n :: acc else acc)
  in
  collect 62 []

let with_node st n f =
  let ns = Array.copy st.ns in
  ns.(n) <- f ns.(n);
  { st with ns }

let rec next_seq src dst seq = function
  | [] -> seq
  | p :: rest ->
      let seq = if p.src = src && p.dst = dst then Int.max seq (p.seq + 1) else seq in
      next_seq src dst seq rest

(* Each packet goes on the front of the network with the next sequence
   number of its pair. *)
let post st packets =
  match packets with
  | [] -> st
  | _ ->
      let net =
        List.fold_left
          (fun net p -> { p with seq = next_seq p.src p.dst 0 net } :: net)
          st.net packets
      in
      { st with net }

let remove_packet st packet =
  let rec drop = function
    | [] -> []
    | p :: rest -> if p == packet then rest else p :: drop rest
  in
  { st with net = drop st.net }

(* Packets sort by (src, dst, seq).  Sequence numbers are distinct within
   a pair, so this order is total and never looks at the message. *)
let packet_order a b =
  if a.src <> b.src then Int.compare a.src b.src
  else if a.dst <> b.dst then Int.compare a.dst b.dst
  else Int.compare a.seq b.seq

let rec normalized_after q = function
  | [] -> true
  | p :: rest ->
      (if p.src = q.src && p.dst = q.dst then p.seq = q.seq + 1
       else p.seq = 0 && packet_order q p < 0)
      && normalized_after p rest

(* Canonical form: packets sorted, and per-pair sequence numbers
   renumbered from 0 so states differing only by absolute sequence values
   coincide.  A state already in that form comes back unchanged. *)
let norm st =
  match st.net with
  | [] -> st
  | p :: rest when p.seq = 0 && normalized_after p rest -> st
  | net ->
      let rec renumber src dst seq = function
        | [] -> []
        | p :: rest ->
            let seq = if p.src = src && p.dst = dst then seq + 1 else 0 in
            (if p.seq = seq then p else { p with seq }) :: renumber p.src p.dst seq rest
      in
      { st with net = renumber (-1) (-1) 0 (List.sort packet_order net) }

let fail st message = { st with error = Some message }

let dir_name : Directory.dstate -> string = function
  | Unowned -> "U"
  | Shared_s -> "S"
  | Excl -> "E"
  | Busy_shared -> "Bs"
  | Busy_excl -> "Be"
  | Dele -> "D"

let nack_code : Message.nack_reason -> int = function Busy -> 0 | Not_home -> 1 | Pending -> 2

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

let delivery_names =
  [| "gets"; "getx"; "fwds"; "inval"; "intv"; "transfer"; "datas"; "datae"; "ack"; "swb";
     "tack"; "nack"; "delegate"; "newhome"; "recall"; "undele"; "update"; "flush";
     "flushack"; "wb"; "wback" |]

let msg_kind = function
  | MGetS _ -> 0
  | MGetX _ -> 1
  | MFwdS _ -> 2
  | MInval _ -> 3
  | MIntv _ -> 4
  | MTransfer _ -> 5
  | MDataS _ -> 6
  | MDataE _ -> 7
  | MAck -> 8
  | MSwb _ -> 9
  | MTack _ -> 10
  | MNack _ -> 11
  | MDelegate _ -> 12
  | MNewHome _ -> 13
  | MRecall -> 14
  | MUndele _ -> 15
  | MUpdate _ -> 16
  | MFlush -> 17
  | MFlushAck -> 18
  | MWb _ -> 19
  | MWbAck -> 20

(* A delivery has at most two outcomes (the home grants or delegates);
   the second one's label ends in "#1". *)
let alternatives = 2

let issue_count = label_nodes * Array.length Issue.names

let spontaneous_count = label_nodes * Array.length Move.names

let issue_label n k = (n * Array.length Issue.names) + k

let spontaneous_label n k = issue_count + (n * Array.length Move.names) + k

let delivery_label p alt =
  assert (alt < alternatives);
  issue_count + spontaneous_count
  + (((((p.src * label_nodes) + p.dst) * Array.length delivery_names) + msg_kind p.msg)
     * alternatives)
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
   renamed, normalized state's encoding ([encode_mstate]). *)

let rename_node perm n = if n < 0 then n else perm.(n)

let rename_mask perm mask =
  let renamed = ref 0 in
  for n = 0 to Array.length perm - 1 do
    if mem_bit mask n then renamed := add_bit !renamed perm.(n)
  done;
  !renamed

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

(* A read is coherent if each node observes the (globally serialized)
   write order monotonically. *)
let commit_read st n v ~cache_fill =
  let node = st.ns.(n) in
  let st =
    if v < node.last_seen then
      fail st (Printf.sprintf "node %d read value %d after observing %d" n v node.last_seen)
    else st
  in
  with_node st n (fun node ->
      {
        node with
        pend = None;
        done_ = node.done_ + 1;
        last_seen = max v node.last_seen;
        cache =
          (match (cache_fill, node.cache) with
          | true, CI -> CS v
          | true, other -> other
          | false, other -> other);
      })

let commit_store st n =
  let v = st.nextv + 1 in
  let st = { st with nextv = v } in
  with_node st n (fun node ->
      {
        node with
        pend = None;
        done_ = node.done_ + 1;
        last_seen = v;
        cache = CE v;
        rac = (match node.prod with Some _ -> node.rac | None -> None);
      })

(* ------------------------------------------------------------------ *)
(* Producer-side actions                                               *)
(* ------------------------------------------------------------------ *)

(* [Delegate_cache.producer_step] makes every delegated-home decision, as
   in the simulator; the handlers below interpret its action as packets. *)
let entry_step p event =
  Delegate_cache.producer_step p.phase ~fenced:(p.unflushed <> 0 || p.fl_acks > 0) p.slot event

let producer_step found event =
  match found with
  | Some p -> entry_step p event
  | None -> Delegate_cache.producer_step No_entry ~fenced:false Free event

let set_prod st n p = with_node st n (fun node -> { node with prod = Some p })

(* Post flush markers chasing the pushed updates; a no-op when a flush is
   already in flight or nothing was pushed. *)
let start_flush st n =
  let node = st.ns.(n) in
  match node.prod with
  | Some p when p.fl_acks = 0 && p.unflushed <> 0 ->
      let targets = bits_list p.unflushed in
      let st = set_prod st n { p with unflushed = 0; fl_acks = List.length targets } in
      post st (List.map (fun c -> { src = n; dst = c; seq = 0; msg = MFlush }) targets)
  | _ -> st

let line_value node =
  match node.cache with
  | CE v | CS v -> v
  | CI -> ( match node.rac with Some v -> v | None -> -1)

(* The exclusive copy moves to the RAC and the previous epoch's consumers
   get the new value; [exclude], a reader served now, joins the vector. *)
let downgrade_push params st n p (step : Delegate_cache.step) ~exclude =
  let node = st.ns.(n) in
  let v = line_value node in
  let pushed =
    if params.enable_updates then
      List.filter (fun c -> c <> n && Some c <> exclude) (bits_list p.upds)
    else []
  in
  let new_sharers =
    if params.bug = Some Updates_without_resharing then p.psharers
    else List.fold_left add_bit p.psharers pushed
  in
  let new_sharers = match exclude with Some r -> add_bit new_sharers r | None -> new_sharers in
  let unflushed = List.fold_left add_bit p.unflushed pushed in
  let st =
    with_node st n (fun node ->
        {
          node with
          cache = (match node.cache with CE v -> CS v | other -> other);
          rac = Some v;
          prod = Some { p with phase = step.phase; psharers = new_sharers; unflushed };
        })
  in
  post st (List.map (fun c -> { src = n; dst = c; seq = 0; msg = MUpdate v }) pushed)

let undelegate st n p ~pending =
  let node = st.ns.(n) in
  let v = line_value node in
  let st =
    with_node st n (fun node ->
        {
          node with
          cache = (match node.cache with CE v -> CS v | other -> other);
          (* refresh the RAC backing copy, stale while Exclusive *)
          rac = (match node.rac with Some _ -> Some v | None -> None);
          prod = None;
        })
  in
  let self_copy = node.cache <> CI || node.rac <> None in
  let sharers = if self_copy then add_bit p.psharers n else rem_bit p.psharers n in
  post st [ { src = n; dst = home; seq = 0; msg = MUndele (sharers, Some v, pending) } ]

(* The actions of the events that read only the fence and the slot: a
   recall, a store's commit, a flush round's end and an eviction. *)
let settle st n p (step : Delegate_cache.step) =
  let st = if step.phase = p.phase then st else set_prod st n { p with phase = step.phase } in
  match step.action with
  | Keep -> st
  | Mark_recalled -> set_prod st n { p with phase = step.phase; slot = Recalled }
  | Flush -> start_flush st n
  | Mark_recalled_and_flush ->
      start_flush (set_prod st n { p with phase = step.phase; slot = Recalled }) n
  | Give_back -> undelegate st n p ~pending:None
  | Give_back_held -> (
      match p.slot with
      | Held { requester; tid } -> undelegate st n p ~pending:(Some (requester, tid))
      | Free | Recalled -> assert false)
  | _ -> assert false (* requests' and the processor's actions *)

(* The producer's store committed: a recall or a held request received
   meanwhile settles once the update flush completes. *)
let store_done st n =
  match st.ns.(n).prod with Some p -> settle st n p (entry_step p Store_done) | None -> st

(* [L2.requester_step] makes every requester decision, as in the
   simulator; the handlers below interpret its action as packets.  [txn]
   is the node's transaction as the table reads it. *)
let txn node : L2.txn =
  match node.pend with
  | None -> Idle
  | Some { pkind = PL; _ } -> Loading
  | Some { pkind = PW; have_data; _ } -> if have_data then Granted else Awaiting_grant

let copy : cstate -> L2.copy = function
  | CI -> No_copy
  | CS _ -> Shared_copy
  | CE _ -> Exclusive_copy

(* An intervention or transfer reaching the owner, or run again once the
   store it waited for commits. *)
let forwarded st n (event : L2.event) ~requester ~tid =
  let node = st.ns.(n) in
  let action =
    L2.requester_step (copy node.cache) (txn node) ~own:false ~wb:node.wbp ~local:false event
  in
  match (action, node.cache, node.pend, event) with
  | Defer, _, Some p, (Intervention | Transfer) ->
      let d : L2.deferred =
        if event = Transfer then Deferred_transfer { requester; tid }
        else Deferred_intervention { requester; tid }
      in
      with_node st n (fun node -> { node with pend = Some { p with deferred = d :: p.deferred } })
  | Serve, (CE v | CS v), _, Intervention ->
      let st = with_node st n (fun node -> { node with cache = CS v }) in
      post st
        [
          { src = n; dst = requester; seq = 0; msg = MDataS (v, tid) };
          { src = n; dst = home; seq = 0; msg = MSwb (v, requester) };
        ]
  | Serve, (CE v | CS v), _, Transfer ->
      let st = with_node st n (fun node -> { node with cache = CI; rac = None }) in
      post st
        [
          { src = n; dst = requester; seq = 0; msg = MDataE (v, 0, tid) };
          { src = n; dst = home; seq = 0; msg = MTack requester };
        ]
  | Drop, _, _, _ -> st
  | _ -> assert false (* forwarded requests draw only these *)

(* After the commit, the producer settles first, then the deferred
   requests run again. *)
let try_complete_store st n =
  match st.ns.(n).pend with
  | Some { pkind = PW; have_data = true; acks; deferred; _ } when acks <= 0 ->
      List.fold_left
        (fun st (d : L2.deferred) ->
          match d with
          | Deferred_intervention { requester; tid } ->
              forwarded st n Intervention ~requester ~tid
          | Deferred_transfer { requester; tid } -> forwarded st n Transfer ~requester ~tid)
        (store_done (commit_store st n) n)
        (List.rev deferred)
  | _ -> st

(* ------------------------------------------------------------------ *)
(* Home-side message handling                                          *)
(* ------------------------------------------------------------------ *)

let from_home dst msg = { src = home; dst; seq = 0; msg }

let write_request requester tid = { src = requester; dst = home; seq = 0; msg = MGetX tid }

(* Returns the possible next states for delivering [msg] from [s] at the
   home (several when the home may nondeterministically delegate); [] if
   delivery is currently blocked.  [Directory.home_step] makes every
   decision, as it does in the simulator; this interprets its action as
   packets.  The model's requesters never crash, so a waiting requester
   is always current, and its producers never NACK a recall. *)
let home_handle params st ~s msg =
  let input : Directory.input =
    match msg with
    | MGetS _ -> Get_shared
    | MGetX _ -> Get_exclusive
    | MWb _ -> Writeback
    | MSwb _ -> Shared_writeback
    | MTack _ -> Transfer_ack
    | MUndele _ -> Undelegate
    | MFwdS _ | MInval _ | MIntv _ | MTransfer _ | MDataS _ | MDataE _ | MAck | MNack _
    | MDelegate _ | MNewHome _ | MRecall | MUpdate _ | MFlush | MFlushAck | MWbAck ->
        assert false (* routed to the cache side *)
  in
  let step =
    Directory.home_step st.dir input
      (Directory.role ~owner:st.own ~requester:st.req s)
      ~current:true
  in
  let dir = step.next in
  match (step.action, msg) with
  | Serve, MGetS tid ->
      [ post { st with dir; shr = add_bit st.shr s } [ from_home s (MDataS (st.mem, tid)) ] ]
  | Serve, MGetX tid ->
      [ post { st with dir; own = s; shr = 0 } [ from_home s (MDataE (st.mem, 0, tid)) ] ]
  | Grant_or_delegate, MGetX tid ->
      let sharers = rem_bit st.shr s in
      let others = bits_list sharers in
      let invals = List.map (fun n -> from_home n (MInval s)) others in
      let granted = { st with dir; own = s; shr = 0 } in
      let acks = List.length others in
      let grant = post granted (from_home s (MDataE (st.mem, acks, tid)) :: invals) in
      let delegated = { granted with dir = Dele } in
      if not params.enable_delegation then [ grant ]
      else if params.bug = Some Skip_invals_on_delegate then
        [ grant; post delegated [ from_home s (MDelegate (sharers, st.mem, 0, tid)) ] ]
      else
        [ grant; post delegated (from_home s (MDelegate (sharers, st.mem, acks, tid)) :: invals) ]
  | Nack_busy, (MGetS tid | MGetX tid) -> [ post st [ from_home s (MNack (Busy, tid)) ] ]
  | Nack_pending, (MGetS tid | MGetX tid) -> [ post st [ from_home s (MNack (Pending, tid)) ] ]
  | Intervene, MGetS tid ->
      [ post { st with dir; req = s; req_tid = tid } [ from_home st.own (MIntv (s, tid)) ] ]
  | Transfer, MGetX tid ->
      [ post { st with dir; req = s; req_tid = tid } [ from_home st.own (MTransfer (s, tid)) ] ]
  | Recall, MGetX tid ->
      [ post { st with dir; req = s; req_tid = tid } [ from_home st.own MRecall ] ]
  | Forward, MGetS tid ->
      [ post st [ from_home st.own (MFwdS (s, tid)); from_home s (MNewHome st.own) ] ]
  | Retry_recall, _ -> [ post st [ from_home st.own MRecall ] ]
  (* a writeback is always acknowledged *)
  | Take_back, MWb v -> [ post { st with mem = v; dir; own = -1; shr = 0 } [ from_home s MWbAck ] ]
  | Serve_waiting, MWb v ->
      [
        post
          { st with mem = v; dir; shr = bit st.req; own = -1 }
          [ from_home s MWbAck; from_home st.req (MDataS (v, st.req_tid)) ];
      ]
  | Rerun_waiting, MWb v ->
      [
        post
          { st with mem = v; dir; own = -1; shr = 0 }
          [ from_home s MWbAck; write_request st.req st.req_tid ];
      ]
  | Stale, MWb _ -> [ post st [ from_home s MWbAck ] ]
  | Share, MSwb (v, _) -> [ { st with mem = v; dir; shr = bit s; own = -1 } ]
  | Share_with_reader, MSwb (v, new_sharer) ->
      [ { st with mem = v; dir; shr = add_bit (bit s) new_sharer; own = -1 } ]
  | Checkpoint, MSwb (v, _) -> [ { st with mem = max st.mem v } ]
  | Confirm_transfer, MTack new_owner -> [ { st with dir; own = new_owner; shr = 0 } ]
  | (Reclaim | Reclaim_and_rerun), MUndele (sharers, value, pending) ->
      let mem = match value with Some v -> v | None -> st.mem in
      let dir = Directory.reclaimed ~kept_owner:false ~sharers:(sharers <> 0) in
      let stored =
        if step.action = Reclaim_and_rerun then [ write_request st.req st.req_tid ] else []
      in
      let carried = match pending with Some (r, tid) -> [ write_request r tid ] | None -> [] in
      [ post { st with mem; dir; own = -1; shr = sharers } (carried @ stored) ]
  | Stale, _ -> [ st ]
  | _, _ -> assert false (* each action comes with its input *)

(* ------------------------------------------------------------------ *)
(* Cache/producer-side message handling                                *)
(* ------------------------------------------------------------------ *)

(* A read ([event] [Read]) or a Get_exclusive ([Write]) at a delegated
   home, or at a node that no longer is one. *)
let serve_request params st n event ~requester ~tid =
  let node = st.ns.(n) in
  let step = producer_step node.prod event in
  match (step.action, node.prod) with
  | (Nack_busy | Nack_not_home), _ ->
      let reason : Message.nack_reason = if step.action = Nack_busy then Busy else Not_home in
      post st [ { src = n; dst = requester; seq = 0; msg = MNack (reason, tid) } ]
  | Downgrade_and_serve, Some p ->
      let st = downgrade_push params st n p step ~exclude:(Some requester) in
      post st [ { src = n; dst = requester; seq = 0; msg = MDataS (line_value node, tid) } ]
  | Serve, Some p ->
      (* the RAC copy backs every producer entry (Missing_backing) *)
      let v = match node.rac with Some v -> v | None -> assert false in
      let st = set_prod st n { p with psharers = add_bit p.psharers requester } in
      post st [ { src = n; dst = requester; seq = 0; msg = MDataS (v, tid) } ]
  | (Hold | Hold_and_flush), Some p ->
      let st = set_prod st n { p with phase = step.phase; slot = Held { requester; tid } } in
      if step.action = Hold_and_flush then start_flush st n else st
  | Give_back_with_request, Some p -> undelegate st n p ~pending:(Some (requester, tid))
  | _ -> assert false (* requests draw only these *)

let resend_request st n =
  let node = st.ns.(n) in
  match node.pend with
  | None -> st
  | Some p ->
      let target = match node.hint with Some h -> h | None -> home in
      let msg = match p.pkind with PL -> MGetS p.tid | PW -> MGetX p.tid in
      let st =
        with_node st n (fun node -> { node with pend = Some { p with target } })
      in
      post st [ { src = n; dst = target; seq = 0; msg } ]

let owns node tid = match node.pend with Some p -> p.tid = tid | None -> false

(* A reply, invalidation or push reaching a cache.  [own]: does the
   message's tid name the node's transaction (tid carriers only)? *)
let requester_event params st n (event : L2.event) ~own msg =
  let node = st.ns.(n) in
  match (L2.requester_step No_copy (txn node) ~own ~wb:false ~local:false event, node.pend, msg) with
  | Commit_load, Some p, MDataS (v, _) -> commit_read st n v ~cache_fill:(not p.poisoned)
  | Take_grant, Some p, MDataE (_, acks, _) ->
      try_complete_store
        (with_node st n (fun node ->
             { node with pend = Some { p with have_data = true; acks = p.acks + acks } }))
        n
  | Take_delegation, Some p, MDelegate (sharers, v, acks, _) ->
      try_complete_store
        (with_node st n (fun node ->
             {
               node with
               rac = Some v;
               prod = Some { phase = Busy; psharers = bit n; upds = sharers; slot = Free; unflushed = 0; fl_acks = 0 };
               pend = Some { p with have_data = true; acks = p.acks + acks };
             }))
        n
  | Return_delegation, _, MDelegate (sharers, v, _, _) ->
      post st [ { src = n; dst = home; seq = 0; msg = MUndele (sharers, Some v, None) } ]
  | ((Retry | Retry_unhinted) as action), Some _, MNack _ ->
      resend_request
        (if action = Retry_unhinted then with_node st n (fun node -> { node with hint = None })
         else st)
        n
  | Credit_ack, Some p, MAck ->
      try_complete_store
        (with_node st n (fun node -> { node with pend = Some { p with acks = p.acks - 1 } }))
        n
  | ((Invalidate | Invalidate_and_poison) as action), pend, MInval requester ->
      let pend =
        match pend with
        | Some p when action = Invalidate_and_poison && params.bug <> Some No_poison_on_inval ->
            Some { p with poisoned = true }
        | other -> other
      in
      let st = with_node st n (fun node -> { node with cache = CI; rac = None; pend }) in
      post st [ { src = n; dst = requester; seq = 0; msg = MAck } ]
  | Commit_update, Some _, MUpdate v ->
      (* update-as-reply (§2.4.3); the superseded data reply is dropped
         by its stale transaction id *)
      commit_read st n v ~cache_fill:true
  | Fill_rac, _, MUpdate v -> with_node st n (fun node -> { node with rac = Some v })
  | Drop, _, _ -> st
  | _ -> assert false (* each action comes with its event *)

let cache_handle params st ~src n msg =
  let node = st.ns.(n) in
  match msg with
  | MDataS (_, tid) -> [ requester_event params st n Data_shared ~own:(owns node tid) msg ]
  | MDataE (_, _, tid) -> [ requester_event params st n Data_exclusive ~own:(owns node tid) msg ]
  | MDelegate (_, _, _, tid) -> [ requester_event params st n Delegate ~own:(owns node tid) msg ]
  | MNack (Not_home, tid) -> [ requester_event params st n Nack_not_home ~own:(owns node tid) msg ]
  | MNack ((Busy | Pending), tid) -> [ requester_event params st n Nack ~own:(owns node tid) msg ]
  | MAck -> [ requester_event params st n Inv_ack ~own:false msg ]
  | MInval _ -> [ requester_event params st n Inval ~own:false msg ]
  | MUpdate _ -> [ requester_event params st n Update ~own:false msg ]
  | MIntv (requester, tid) -> [ forwarded st n Intervention ~requester ~tid ]
  | MTransfer (requester, tid) -> [ forwarded st n Transfer ~requester ~tid ]
  | MNewHome h ->
      [ (if h = n then st else with_node st n (fun node -> { node with hint = Some h })) ]
  | MFlush -> [ post st [ { src = n; dst = src; seq = 0; msg = MFlushAck } ] ]
  | MFlushAck -> (
      match node.prod with
      | Some ({ fl_acks; _ } as p) when fl_acks > 0 ->
          let p = { p with fl_acks = fl_acks - 1 } in
          let st = set_prod st n p in
          if p.fl_acks = 0 then [ settle st n p (entry_step p Flush_done) ] else [ st ]
      | _ -> [ st ])
  | MFwdS (requester, tid) -> [ serve_request params st n Read ~requester ~tid ]
  | MGetS tid -> [ serve_request params st n Read ~requester:src ~tid ]
  | MGetX tid -> [ serve_request params st n Write ~requester:src ~tid ]
  | MRecall -> (
      let step = producer_step node.prod Recall in
      match (step.action, node.prod) with
      | Recall_nack, _ ->
          (* dropped: a recall cannot overtake its Delegate on their FIFO
             channel, so the entry's Undelegate is on its way home *)
          [ st ]
      | _, Some p -> [ settle st n p step ]
      | _, None -> assert false (* no entry draws only the NACK *))
  | MWbAck -> [ with_node st n (fun node -> { node with wbp = false }) ]
  | MWb _ | MSwb _ | MTack _ | MUndele _ -> assert false (* home side *)

(* ------------------------------------------------------------------ *)
(* Transition enumeration                                              *)
(* ------------------------------------------------------------------ *)

(* [keep] adds a candidate successor to [acc], normalized, unless it
   overfills a channel: the message it would react to then stays in the
   network for later.  On a normalized network a pair holds more than
   [channel_capacity] packets exactly when one of them has a sequence
   number that reaches it. *)
let rec fits capacity = function
  | [] -> true
  | p :: rest -> p.seq < capacity && fits capacity rest

let keep params labels id st acc =
  let st = norm st in
  if fits params.channel_capacity st.net then (labels.(id), st) :: acc else acc

let issue_step node event ~local =
  L2.requester_step (copy node.cache) Idle ~own:false ~wb:false ~local event

(* A miss's transaction before its first request. *)
let miss pkind ~tid =
  { pkind; have_data = false; acks = 0; poisoned = false; target = -1; tid; deferred = [] }

let issue_transitions params labels ~line st n acc =
  let node = st.ns.(n) in
  if node.pend <> None || node.done_ >= params.max_ops_per_node then acc
  else begin
    let may_load, may_store =
      match params.workload with
      | Symmetric -> (true, true)
      | Producer_consumer ->
          let p = producer_of_line params line in
          (n <> p, n = p)
    in
    let keep kind st acc = keep params labels (issue_label n kind) st acc in
    let load acc =
      match issue_step node Issue_load ~local:(node.rac <> None) with
      | Hit -> keep Issue.load_hit (commit_read st n (line_value node) ~cache_fill:true) acc
      | Local -> keep Issue.load_rac (commit_read st n (line_value node) ~cache_fill:true) acc
      | Request ->
          let st =
            with_node st n (fun node -> { node with pend = Some (miss PL ~tid:(2 * node.done_)) })
          in
          keep Issue.load_miss (resend_request st n) acc
      | _ -> assert false (* an issue draws only these *)
    in
    let store acc =
      match (issue_step node Issue_store ~local:(node.prod <> None), node.prod) with
      | Hit, _ -> keep Issue.store_hit (commit_store st n) acc
      | Local, Some p -> (
          let step = entry_step p Own_store in
          match step.action with
          | Local_upgrade ->
              (* delegated local upgrade: invalidate consumers directly *)
              let others = bits_list (rem_bit p.psharers n) in
              let st =
                with_node st n (fun node ->
                    {
                      node with
                      prod = Some { p with phase = step.phase; upds = rem_bit p.psharers n; psharers = bit n };
                      pend = Some { pkind = PW; have_data = true; acks = List.length others; poisoned = false; target = n; tid = (2 * node.done_) + 1; deferred = [] };
                    })
              in
              let st =
                post st (List.map (fun c -> { src = n; dst = c; seq = 0; msg = MInval n }) others)
              in
              keep Issue.store_upgrade (try_complete_store st n) acc
          | Regain ->
              (* exclusivity held, line evicted to the pinned RAC entry *)
              keep Issue.store_regain (store_done (commit_store st n) n) acc
          | _ -> assert false (* the blocking processor is the only writer *))
      | Request, _ ->
          let st =
            with_node st n (fun node ->
                { node with pend = Some (miss PW ~tid:((2 * node.done_) + 1)) })
          in
          keep Issue.store_miss (resend_request st n) acc
      | _ -> assert false (* an issue draws only these *)
    in
    let acc = if may_load then load acc else acc in
    if may_store then store acc else acc
  end

(* Kept in reverse of the order they are offered: hint eviction,
   undelegation, cache eviction, delayed intervention. *)
let spontaneous_transitions params labels st n acc =
  let node = st.ns.(n) in
  let keep move st acc = keep params labels (spontaneous_label n move) st acc in
  (* consumer-table hint eviction *)
  let acc =
    match node.hint with
    | Some _ ->
        keep Move.drop_hint (with_node st n (fun node -> { node with hint = None })) acc
    | None -> acc
  in
  (* capacity undelegation *)
  let acc =
    match node.prod with
    | Some p -> (
        let step = entry_step p Evicted in
        match step.action with Keep -> acc | _ -> keep Move.undelegate (settle st n p step) acc)
    | None -> acc
  in
  (* cache eviction *)
  let acc =
    match (node.cache, node.prod) with
    | CE v, Some _ ->
        keep Move.evict_excl_delegated
          (with_node st n (fun node -> { node with cache = CI; rac = Some v }))
          acc
    | CE v, None ->
        keep Move.evict_excl
          (post
             (with_node st n (fun node -> { node with cache = CI; wbp = true }))
             [ { src = n; dst = home; seq = 0; msg = MWb v } ])
          acc
    | CS v, _ ->
        keep Move.evict_shared
          (with_node st n (fun node ->
               { node with cache = CI; rac = (if n = home then node.rac else Some v) }))
          acc
    | CI, _ -> acc
  in
  (* delayed intervention fires *)
  match node.prod with
  | Some p -> (
      let step = entry_step p Burst_over in
      match step.action with
      | Downgrade_and_push -> keep Move.downgrade (downgrade_push params st n p step ~exclude:None) acc
      | _ -> acc)
  | None -> acc

let rec head_of_line packet = function
  | [] -> true
  | q :: rest ->
      (not (q.src = packet.src && q.dst = packet.dst && q.seq < packet.seq))
      && head_of_line packet rest

let rec keep_outcomes params labels packet alt outcomes acc =
  match outcomes with
  | [] -> acc
  | st :: rest ->
      keep_outcomes params labels packet (alt + 1) rest
        (keep params labels (delivery_label packet alt) st acc)

let deliver_transitions params labels st acc =
  List.fold_left
    (fun acc packet ->
      if not (head_of_line packet st.net) then acc
      else
        let st' = remove_packet st packet in
        let outcomes =
          match packet.msg with
          | (MGetS _ | MGetX _) when packet.dst = home ->
              home_handle params st' ~s:packet.src packet.msg
          | MWb _ | MSwb _ | MTack _ | MUndele _ ->
              home_handle params st' ~s:packet.src packet.msg
          | _ -> cache_handle params st' ~src:packet.src packet.dst packet.msg
        in
        keep_outcomes params labels packet 0 outcomes acc)
    acc st.net

(* ------------------------------------------------------------------ *)
(* Invariants                                                          *)
(* ------------------------------------------------------------------ *)

(* Value coherence (every read observes the write order) is the model's
   own, recorded in [error] as reads commit.  The structural invariants
   are [Pcc_core.Dir_invariants], read through a line view filled from
   the state, with the network answering "may this still be in
   transit". *)
module Inv = Pcc_core.Dir_invariants
module Nodeset = Pcc_core.Nodeset

let rec note_in_transit (v : Inv.view) own = function
  | [] -> ()
  | p :: rest ->
      (match p.msg with
      | MInval _ | MUpdate _ -> v.reaching <- Nodeset.add v.reaching p.dst
      | MUndele (sharers, _, _) ->
          (* a winding-down delegation carries its vector home *)
          v.reaching <- Nodeset.union v.reaching (Nodeset.of_mask sharers);
          if p.src = own then v.handoff <- true
      | MTack n -> v.transfer <- Nodeset.add v.transfer n
      | MDelegate (sharers, _, _, _) when p.dst = own ->
          v.delegating <- Nodeset.union v.delegating (Nodeset.of_mask sharers);
          v.handoff <- true
      | _ -> ());
      note_in_transit v own rest

let fill_view (v : Inv.view) st =
  v.nodes <- Array.length st.ns;
  v.dir <- st.dir;
  v.owner <- st.own;
  v.requester <- st.req;
  v.sharers <- Nodeset.of_mask st.shr;
  v.mem <- st.mem;
  for n = 0 to Array.length st.ns - 1 do
    let node = st.ns.(n) in
    v.l2.(n) <- copy node.cache;
    (match node.cache with CS x | CE x -> v.l2_value.(n) <- x | CI -> ());
    (match node.rac with
    | Some x ->
        v.rac.(n) <- true;
        v.rac_value.(n) <- x
    | None -> v.rac.(n) <- false);
    match node.prod with
    | Some p ->
        v.phase.(n) <- p.phase;
        v.vector.(n) <- Nodeset.of_mask p.psharers
    | None -> v.phase.(n) <- No_entry
  done;
  v.transfer <- Nodeset.empty;
  v.reaching <- Nodeset.empty;
  v.delegating <- Nodeset.empty;
  v.handoff <- false;
  note_in_transit v st.own st.net

(* ------------------------------------------------------------------ *)
(* Model assembly                                                      *)
(* ------------------------------------------------------------------ *)

let initial_state params =
  norm
    {
      ns =
        Array.init params.nodes (fun _ ->
            {
              cache = CI;
              rac = None;
              prod = None;
              pend = None;
              hint = None;
              done_ = 0;
              last_seen = 0;
              wbp = false;
            });
      dir = Unowned;
      shr = 0;
      own = -1;
      req = -1;
      req_tid = 0;
      mem = 0;
      net = [];
      nextv = 0;
      error = None;
    }

(* Issues, then spontaneous moves, then deliveries; [labels] names the
   line's transitions (see [line_labels]). *)
let all_successors ?(line = 0) params labels st =
  let acc = ref [] in
  for n = 0 to params.nodes - 1 do
    acc := issue_transitions params labels ~line st n !acc
  done;
  for n = 0 to params.nodes - 1 do
    acc := spontaneous_transitions params labels st n !acc
  done;
  List.rev (deliver_transitions params labels st !acc)

(* One view per domain, since the checker evaluates invariants on several
   domains at once.  [filled] is the state the view was last filled
   from, so a state's three structural invariants share one fill. *)
type view_scratch = { view : Inv.view; mutable filled : state }

let view_scratch =
  Domain.DLS.new_key (fun () ->
      { view = Inv.create label_nodes; filled = initial_state default_params })

let structural inv st =
  let sc = Domain.DLS.get view_scratch in
  if sc.filled != st then begin
    fill_view sc.view st;
    sc.filled <- st
  end;
  Inv.holds Event_boundary inv sc.view

let invariants_list =
  ("value coherence", fun st -> st.error = None)
  :: List.map (fun inv -> (Inv.name inv, structural inv)) Inv.invariants

let pp_state ppf st =
  let cache_str node =
    match node.cache with
    | CI -> "I"
    | CS v -> Printf.sprintf "S%d" v
    | CE v -> Printf.sprintf "E%d" v
  in
  Format.fprintf ppf "@[<v>dir=%s own=%d req=%d shr=%x mem=%d nextv=%d@,"
    (dir_name st.dir) st.own st.req st.shr st.mem st.nextv;
  Array.iteri
    (fun n node ->
      Format.fprintf ppf "n%d: cache=%s rac=%s prod=%s pend=%s done=%d seen=%d@," n
        (cache_str node)
        (match node.rac with Some v -> string_of_int v | None -> "-")
        (match Option.map (fun p -> p.phase) node.prod with
        | Some Busy -> "B" | Some Exclusive -> "E" | Some Shared -> "S" | Some No_entry | None -> "-")
        (match node.pend with
        | Some { pkind = PL; _ } -> "L"
        | Some { pkind = PW; _ } -> "W"
        | None -> "-")
        node.done_ node.last_seen)
    st.ns;
  Format.fprintf ppf "net: %d msgs@]" (List.length st.net)

(* ------------------------------------------------------------------ *)
(* Canonical encoding                                                  *)
(* ------------------------------------------------------------------ *)

(* One byte per small field, biased by 64.  Every integer in a reachable
   state is tiny (masks < 2^nodes, versions and tids bounded by the op
   budget, ack counts by in-flight messages; [validate] rejects parameters
   that could reach 192, where the byte wraps), and every list is
   length-prefixed, so a line's encoding is self-delimiting and several
   line encodings concatenate injectively.

   A state's encoding under a node permutation is the encoding of the
   renamed, normalized state.  [write_line] writes it straight from the
   normalized original: it reads node records through the inverse
   permutation, renames masks and node ids as it writes them, and emits
   packets in the order [norm] gives the renamed network. *)

(* The growable buffer of one [encode] call. *)
type out = { mutable b : Bytes.t; mutable len : int }

let reserve o n =
  if o.len + n > Bytes.length o.b then begin
    let b = Bytes.create (Int.max (o.len + n) (2 * Bytes.length o.b)) in
    Bytes.blit o.b 0 b 0 o.len;
    o.b <- b
  end

let put o n =
  reserve o 1;
  Bytes.unsafe_set o.b o.len (Char.unsafe_chr ((n + 64) land 0xff));
  o.len <- o.len + 1

let put_bool o x = put o (if x then 1 else 0)

let put_node o perm n = put o (rename_node perm n)

let put_mask o perm mask = put o (rename_mask perm mask)

let put_msg o perm = function
  | MGetS tid ->
      put o 0;
      put o tid
  | MGetX tid ->
      put o 1;
      put o tid
  | MFwdS (r, tid) ->
      put o 2;
      put_node o perm r;
      put o tid
  | MInval r ->
      put o 3;
      put_node o perm r
  | MIntv (r, tid) ->
      put o 4;
      put_node o perm r;
      put o tid
  | MTransfer (r, tid) ->
      put o 5;
      put_node o perm r;
      put o tid
  | MDataS (v, tid) ->
      put o 6;
      put o v;
      put o tid
  | MDataE (v, a, tid) ->
      put o 7;
      put o v;
      put o a;
      put o tid
  | MAck -> put o 8
  | MSwb (v, ns) ->
      put o 9;
      put o v;
      put_node o perm ns
  | MTack w ->
      put o 10;
      put_node o perm w
  | MNack (r, tid) ->
      put o 11;
      put o (nack_code r);
      put o tid
  | MDelegate (s, v, a, tid) ->
      put o 12;
      put_mask o perm s;
      put o v;
      put o a;
      put o tid
  | MNewHome h ->
      put o 13;
      put_node o perm h
  | MRecall -> put o 14
  | MUndele (s, v, pending) -> (
      put o 15;
      put_mask o perm s;
      (match v with
      | None -> put o 0
      | Some v ->
          put o 1;
          put o v);
      match pending with
      | None -> put o 0
      | Some (r, tid) ->
          put o 1;
          put_node o perm r;
          put o tid)
  | MUpdate v ->
      put o 16;
      put o v
  | MFlush -> put o 17
  | MFlushAck -> put o 18
  | MWb v ->
      put o 19;
      put o v
  | MWbAck -> put o 20

(* A deferred request writes whether it is a transfer, its renamed
   requester, then its tid. *)
let put_request o perm ~transfer ~requester ~tid =
  put_bool o transfer;
  put_node o perm requester;
  put o tid

let rec put_deferred o perm = function
  | [] -> ()
  | d :: rest ->
      (match (d : L2.deferred) with
      | Deferred_intervention { requester; tid } -> put_request o perm ~transfer:false ~requester ~tid
      | Deferred_transfer { requester; tid } -> put_request o perm ~transfer:true ~requester ~tid);
      put_deferred o perm rest

(* A stored entry's phase and slot, a byte each; a held request's
   renamed requester and tid follow the slot's byte. *)
let phase_byte : Delegate_cache.phase -> int = function
  | Busy -> 0 | Exclusive -> 1 | Shared -> 2 | No_entry -> assert false (* never stored *)

let put_slot o perm : Delegate_cache.slot -> unit = function
  | Free -> put o 0
  | Recalled -> put o 1
  | Held { requester; tid } -> put o 2; put_node o perm requester; put o tid

let put_node_record o perm node =
  (match node.cache with
  | CI -> put o 0
  | CS v ->
      put o 1;
      put o v
  | CE v ->
      put o 2;
      put o v);
  (match node.rac with
  | None -> put o 0
  | Some v ->
      put o 1;
      put o v);
  (match node.prod with
  | None -> put o 0
  | Some p ->
      put o 1;
      put o (phase_byte p.phase);
      put_mask o perm p.psharers;
      put_mask o perm p.upds;
      put_slot o perm p.slot;
      put_mask o perm p.unflushed;
      put o p.fl_acks);
  (match node.pend with
  | None -> put o 0
  | Some p ->
      put o 1;
      put o (match p.pkind with PL -> 0 | PW -> 1);
      put_bool o p.have_data;
      put o p.acks;
      put_bool o p.poisoned;
      put_node o perm p.target;
      put o p.tid;
      put o (List.length p.deferred);
      put_deferred o perm p.deferred);
  (match node.hint with
  | None -> put o 0
  | Some h ->
      put o 1;
      put_node o perm h);
  put o node.done_;
  put o node.last_seen;
  put_bool o node.wbp

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

(* One line under [perm] ([inv] is its inverse).  [pk.(0 .. count-1)]
   is the line's network; [keys] is scratch at least as long. *)
let write_line o ~perm ~inv ~(keys : int array) (pk : packet array) count st =
  for j = 0 to Array.length perm - 1 do
    put_node_record o perm st.ns.(inv.(j))
  done;
  put o (Directory.state_code st.dir);
  put_mask o perm st.shr;
  put_node o perm st.own;
  put_node o perm st.req;
  put o st.req_tid;
  put o st.mem;
  put o st.nextv;
  let nodes = Array.length perm in
  put o count;
  (* key: renamed (src, dst) pair, seq, then the packet's index *)
  for i = 0 to count - 1 do
    let p = pk.(i) in
    let pair = (perm.(p.src) * nodes) + perm.(p.dst) in
    keys.(i) <- (((pair lsl 20) lor p.seq) lsl 20) lor i
  done;
  sort_prefix keys count;
  let pair = ref (-1) and seq = ref 0 in
  for i = 0 to count - 1 do
    let p = pk.(keys.(i) land 0xfffff) in
    let this = keys.(i) lsr 40 in
    seq := if this = !pair then !seq + 1 else 0;
    pair := this;
    put o perm.(p.src);
    put o perm.(p.dst);
    put o !seq;
    put_msg o perm p.msg
  done;
  match st.error with
  | None -> put o 0
  | Some e ->
      let n = String.length e in
      put o 1;
      put o n;
      reserve o n;
      Bytes.blit_string e 0 o.b o.len n;
      o.len <- o.len + n

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

type mstate = { ls : state array }

let initial_mstate params = { ls = Array.init params.lines (fun _ -> initial_state params) }

let line_label params l label =
  if params.lines > 1 then Printf.sprintf "L%d:%s" l label else label

(* Each line's label table: [labels] itself for a single line, otherwise
   one copy per line with every label prefixed "L<l>:". *)
let line_labels params =
  if params.lines = 1 then [| labels |]
  else Array.init params.lines (fun l -> Array.map (line_label params l) labels)

let line_successors params tables mst l =
  List.map
    (fun (label, st') ->
      let ls = Array.copy mst.ls in
      ls.(l) <- st';
      (label, { ls }))
    (all_successors ~line:l params tables.(l) mst.ls.(l))

let mstate_successors params tables mst =
  match mst.ls with
  | [| _ |] -> line_successors params tables mst 0
  | ls -> List.concat (List.init (Array.length ls) (line_successors params tables mst))

(* Transition groups for POR, in fixed line order.  The checker expands
   the first group offering an unexplored successor; the soundness
   argument (DESIGN.md, "Verification") depends on this order being a
   fixed function of the line index, not of the state. *)
let mstate_groups params tables mst =
  List.init (Array.length mst.ls) (line_successors params tables mst)

let mstate_invariants params =
  List.concat
    (List.init params.lines (fun l ->
         List.map
           (fun (name, pred) ->
             (line_label params l name, fun mst -> pred mst.ls.(l)))
           invariants_list))

let line_quiescent params st =
  st.net = []
  && Array.for_all
       (fun node -> node.pend = None && node.done_ >= params.max_ops_per_node)
       st.ns

let mstate_quiescent params mst = Array.for_all (line_quiescent params) mst.ls

let pp_mstate ppf mst =
  if Array.length mst.ls = 1 then pp_state ppf mst.ls.(0)
  else begin
    Format.fprintf ppf "@[<v>";
    Array.iteri (fun l st -> Format.fprintf ppf "line %d: %a@," l pp_state st) mst.ls;
    Format.fprintf ppf "@]"
  end

(* Canonical representative over the node × line symmetry group: for each
   admissible node permutation, write every line under it, order the
   interchangeable lines by their bytes (all lines under the symmetric
   workload; only same-producer lines under the producer-consumer
   workload, since distinct producers make lines distinguishable), and
   keep the lexicographically least concatenation over all permutations.
   The least so far sits at the front of the scratch buffer, and each
   candidate is written after it.  Self-delimiting parts and
   params-determined group sizes keep the concatenation injective. *)

(* The scratch of [encode_mstate], one per domain, since the checker
   encodes on several domains at once; an encoding allocates only its
   result.  Line [l]'s network is [pks.(l).(0 .. counts.(l) - 1)], and
   line [l] of the current candidate is bytes
   [starts.(l), starts.(l+1)). *)
type scratch = {
  o : out;
  mutable pks : packet array array;
  mutable counts : int array;
  mutable keys : int array;
  mutable starts : int array;
  mutable order : int array;
  mutable inv : int array;
}

let scratch =
  Domain.DLS.new_key (fun () ->
      {
        o = { b = Bytes.create 256; len = 0 };
        pks = [||];
        counts = [||];
        keys = [||];
        starts = [||];
        order = [||];
        inv = [||];
      })

let no_packet = { src = 0; dst = 0; seq = 0; msg = MAck }

let rec fill_packets pk i = function
  | [] -> ()
  | p :: rest ->
      pk.(i) <- p;
      fill_packets pk (i + 1) rest

(* Sizes [sc] for [mst] and copies each line's network into it. *)
let load_scratch sc nodes mst =
  let lines = Array.length mst.ls in
  if Array.length sc.pks < lines then begin
    sc.pks <- Array.init lines (fun l -> if l < Array.length sc.pks then sc.pks.(l) else [||]);
    sc.counts <- Array.make lines 0;
    sc.starts <- Array.make (lines + 1) 0;
    sc.order <- Array.make lines 0
  end;
  if Array.length sc.inv < nodes then sc.inv <- Array.make nodes 0;
  for l = 0 to lines - 1 do
    let net = mst.ls.(l).net in
    let count = List.length net in
    if Array.length sc.pks.(l) < count then sc.pks.(l) <- Array.make (2 * count) no_packet;
    if Array.length sc.keys < count then sc.keys <- Array.make (2 * count) 0;
    fill_packets sc.pks.(l) 0 net;
    sc.counts.(l) <- count;
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
    compare_regions sc.o.b starts.(a)
      (starts.(a + 1) - starts.(a))
      starts.(b)
      (starts.(b + 1) - starts.(b))
    < 0

(* Writes [perm]'s candidate from [sc.o.len] on and returns where it
   starts. *)
let write_candidate params sc mst perm =
  let o = sc.o and lines = Array.length mst.ls in
  for i = 0 to Array.length perm - 1 do
    sc.inv.(perm.(i)) <- i
  done;
  let base = o.len in
  for l = 0 to lines - 1 do
    sc.starts.(l) <- o.len;
    write_line o ~perm ~inv:sc.inv ~keys:sc.keys sc.pks.(l) sc.counts.(l) mst.ls.(l)
  done;
  sc.starts.(lines) <- o.len;
  if lines = 1 then base
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
    let cand = o.len in
    reserve o (cand - base);
    for i = 0 to lines - 1 do
      let l = order.(i) in
      let len = sc.starts.(l + 1) - sc.starts.(l) in
      Bytes.blit o.b sc.starts.(l) o.b o.len len;
      o.len <- o.len + len
    done;
    cand
  end

let encode_mstate params =
  let perms = Array.of_list (model_permutations params) in
  fun mst ->
    let sc = Domain.DLS.get scratch in
    load_scratch sc params.nodes mst;
    let o = sc.o in
    o.len <- 0;
    (* the least candidate so far is bytes [0, least) *)
    let least = ref 0 in
    for k = 0 to Array.length perms - 1 do
      o.len <- !least;
      let cand = write_candidate params sc mst perms.(k) in
      let len = o.len - cand in
      if k = 0 || compare_regions o.b cand len 0 !least < 0 then begin
        Bytes.blit o.b cand o.b 0 len;
        least := len
      end
    done;
    Bytes.sub_string o.b 0 !least

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
  if params.channel_capacity * params.nodes * params.nodes > max_encoded then
    invalid_arg
      (Printf.sprintf
         "Protocol_model: in-flight messages reach channel_capacity * nodes^2 = %d; \
          the one-byte encoding holds at most %d"
         (params.channel_capacity * params.nodes * params.nodes)
         max_encoded)

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

  let rename_msg perm = function
    | MFwdS (r, tid) -> MFwdS (rename_node perm r, tid)
    | MInval r -> MInval (rename_node perm r)
    | MIntv (r, tid) -> MIntv (rename_node perm r, tid)
    | MTransfer (r, tid) -> MTransfer (rename_node perm r, tid)
    | MSwb (v, ns) -> MSwb (v, rename_node perm ns)
    | MTack o -> MTack (rename_node perm o)
    | MDelegate (sharers, v, a, tid) -> MDelegate (rename_mask perm sharers, v, a, tid)
    | MNewHome h -> MNewHome (rename_node perm h)
    | MUndele (sharers, v, pending) ->
        MUndele
          ( rename_mask perm sharers,
            v,
            Option.map (fun (r, tid) -> (rename_node perm r, tid)) pending )
    | ( MGetS _ | MGetX _ | MDataS _ | MDataE _ | MAck | MNack _ | MRecall | MUpdate _
      | MFlush | MFlushAck | MWb _ | MWbAck ) as m ->
        m

  let rename_state perm st =
    let ns = Array.make (Array.length st.ns) st.ns.(0) in
    Array.iteri
      (fun i node ->
        ns.(perm.(i)) <-
          {
            node with
            prod =
              Option.map
                (fun p ->
                  {
                    p with
                    psharers = rename_mask perm p.psharers;
                    upds = rename_mask perm p.upds;
                    slot = (match p.slot with Held h -> Held { h with requester = rename_node perm h.requester } | s -> s);
                    unflushed = rename_mask perm p.unflushed;
                  })
                node.prod;
            pend =
              Option.map
                (fun p ->
                  {
                    p with
                    target = rename_node perm p.target;
                    deferred =
                      List.map
                        (fun (d : L2.deferred) : L2.deferred ->
                          match d with
                          | Deferred_intervention { requester; tid } ->
                              Deferred_intervention { requester = rename_node perm requester; tid }
                          | Deferred_transfer { requester; tid } ->
                              Deferred_transfer { requester = rename_node perm requester; tid })
                        p.deferred;
                  })
                node.pend;
            hint = Option.map (rename_node perm) node.hint;
          })
      st.ns;
    let net =
      List.map
        (fun p ->
          {
            p with
            src = rename_node perm p.src;
            dst = rename_node perm p.dst;
            msg = rename_msg perm p.msg;
          })
        st.net
    in
    {
      st with
      ns;
      net;
      shr = rename_mask perm st.shr;
      own = rename_node perm st.own;
      req = rename_node perm st.req;
    }

  let rename_nodes perm mst = { ls = Array.map (fun st -> norm (rename_state perm st)) mst.ls }

  let permute_lines perm mst = { ls = Array.init (Array.length mst.ls) (fun i -> mst.ls.(perm.(i))) }

  (* The encoder [encode] replaced, kept as its reference: per
     permutation, rename a copy of the whole state, normalize it again
     (sorting with polymorphic [compare]), serialize each line into its
     own string, and keep the least concatenation. *)
  module Reference = struct
    let norm st =
      let sorted = List.sort compare st.net in
      let rec renumber last counter acc = function
        | [] -> List.rev acc
        | p :: rest ->
            let pair = (p.src, p.dst) in
            let counter = if last = Some pair then counter + 1 else 0 in
            renumber (Some pair) counter ({ p with seq = counter } :: acc) rest
      in
      { st with net = renumber None 0 [] sorted }

    let byte buf n = Buffer.add_char buf (Char.unsafe_chr ((n + 64) land 0xff))

    let enc_bool buf x = byte buf (if x then 1 else 0)

    let enc_opt enc buf = function
      | None -> byte buf 0
      | Some x ->
          byte buf 1;
          enc buf x

    let enc_cache buf = function
      | CI -> byte buf 0
      | CS v ->
          byte buf 1;
          byte buf v
      | CE v ->
          byte buf 2;
          byte buf v

    let enc_prod buf p =
      byte buf (phase_byte p.phase);
      byte buf p.psharers;
      byte buf p.upds;
      (match p.slot with
      | Free -> byte buf 0
      | Recalled -> byte buf 1
      | Held { requester; tid } -> List.iter (byte buf) [ 2; requester; tid ]);
      byte buf p.unflushed;
      byte buf p.fl_acks

    let enc_pend buf p =
      byte buf (match p.pkind with PL -> 0 | PW -> 1);
      enc_bool buf p.have_data;
      byte buf p.acks;
      enc_bool buf p.poisoned;
      byte buf p.target;
      byte buf p.tid;
      byte buf (List.length p.deferred);
      List.iter
        (fun (d : L2.deferred) ->
          let transfer, r, tid =
            match d with
            | Deferred_intervention { requester; tid } -> (false, requester, tid)
            | Deferred_transfer { requester; tid } -> (true, requester, tid)
          in
          enc_bool buf transfer;
          byte buf r;
          byte buf tid)
        p.deferred

    let enc_msg buf = function
      | MGetS tid ->
          byte buf 0;
          byte buf tid
      | MGetX tid ->
          byte buf 1;
          byte buf tid
      | MFwdS (r, tid) ->
          byte buf 2;
          byte buf r;
          byte buf tid
      | MInval r ->
          byte buf 3;
          byte buf r
      | MIntv (r, tid) ->
          byte buf 4;
          byte buf r;
          byte buf tid
      | MTransfer (r, tid) ->
          byte buf 5;
          byte buf r;
          byte buf tid
      | MDataS (v, tid) ->
          byte buf 6;
          byte buf v;
          byte buf tid
      | MDataE (v, a, tid) ->
          byte buf 7;
          byte buf v;
          byte buf a;
          byte buf tid
      | MAck -> byte buf 8
      | MSwb (v, ns) ->
          byte buf 9;
          byte buf v;
          byte buf ns
      | MTack o ->
          byte buf 10;
          byte buf o
      | MNack (r, tid) ->
          byte buf 11;
          byte buf (nack_code r);
          byte buf tid
      | MDelegate (s, v, a, tid) ->
          byte buf 12;
          byte buf s;
          byte buf v;
          byte buf a;
          byte buf tid
      | MNewHome h ->
          byte buf 13;
          byte buf h
      | MRecall -> byte buf 14
      | MUndele (s, v, p) ->
          byte buf 15;
          byte buf s;
          enc_opt byte buf v;
          enc_opt
            (fun buf (r, tid) ->
              byte buf r;
              byte buf tid)
            buf p
      | MUpdate v ->
          byte buf 16;
          byte buf v
      | MFlush -> byte buf 17
      | MFlushAck -> byte buf 18
      | MWb v ->
          byte buf 19;
          byte buf v
      | MWbAck -> byte buf 20

    let enc_line buf st =
      Array.iter
        (fun n ->
          enc_cache buf n.cache;
          enc_opt byte buf n.rac;
          enc_opt enc_prod buf n.prod;
          enc_opt enc_pend buf n.pend;
          enc_opt byte buf n.hint;
          byte buf n.done_;
          byte buf n.last_seen;
          enc_bool buf n.wbp)
        st.ns;
      byte buf (Directory.state_code st.dir);
      byte buf st.shr;
      byte buf st.own;
      byte buf st.req;
      byte buf st.req_tid;
      byte buf st.mem;
      byte buf st.nextv;
      byte buf (List.length st.net);
      List.iter
        (fun p ->
          byte buf p.src;
          byte buf p.dst;
          byte buf p.seq;
          enc_msg buf p.msg)
        st.net;
      match st.error with
      | None -> byte buf 0
      | Some e ->
          byte buf 1;
          byte buf (String.length e);
          Buffer.add_string buf e

    let encode params mst =
      let sort_parts parts =
        match params.workload with
        | Symmetric -> List.sort String.compare parts
        | Producer_consumer ->
            let k = params.nodes - 1 in
            let classes = Array.make k [] in
            List.iteri (fun l part -> classes.(l mod k) <- part :: classes.(l mod k)) parts;
            Array.to_list classes |> List.concat_map (List.sort String.compare)
      in
      let buf = Buffer.create 256 in
      let encode_with perm st =
        Buffer.clear buf;
        enc_line buf (norm (rename_state perm st));
        Buffer.contents buf
      in
      let many = Array.length mst.ls > 1 in
      let best = ref None in
      List.iter
        (fun perm ->
          let parts = Array.to_list (Array.map (encode_with perm) mst.ls) in
          let parts = if many then sort_parts parts else parts in
          let candidate = String.concat "" parts in
          match !best with
          | Some b when String.compare b candidate <= 0 -> ()
          | _ -> best := Some candidate)
        (model_permutations params);
      Option.get !best
  end

  let reference_encode = Reference.encode

  (* A symmetry-invariant projection of the observable facts: any two
     states related by a node/line permutation agree on it, so
     [encode a = encode b] must imply [semantic_sig a = semantic_sig b]. *)
  let semantic_sig mst =
    let line_sig st =
      let dir = dir_name st.dir in
      let popcount mask = List.length (bits_list mask) in
      let per_node =
        Array.to_list
          (Array.map
             (fun n ->
               Printf.sprintf "%s/%d/%d"
                 (match n.cache with
                 | CI -> "I"
                 | CS v -> Printf.sprintf "S%d" v
                 | CE v -> Printf.sprintf "E%d" v)
                 n.done_ n.last_seen)
             st.ns)
        |> List.sort String.compare
      in
      Printf.sprintf "%s|%d|%d|%d|%d|%s" dir st.mem st.nextv (popcount st.shr)
        (List.length st.net)
        (String.concat "," per_node)
    in
    Array.to_list (Array.map line_sig mst.ls)
    |> List.sort String.compare |> String.concat ";"
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
  type nonrec state = state

  let initial params =
    if params.nodes > label_nodes then
      invalid_arg
        (Printf.sprintf "Protocol_model.Step: at most %d nodes" label_nodes);
    initial_state params

  let successors params st = all_successors params labels st

  let invariants = invariants_list

  let done_count st n = st.ns.(n).done_

  let last_seen st n = st.ns.(n).last_seen

  let has_pending st n = st.ns.(n).pend <> None

  let store_count st = st.nextv

  let net_size st = List.length st.net

  let dir_stable st =
    match st.dir with Busy_shared | Busy_excl -> false | Unowned | Shared_s | Excl | Dele -> true

  let final_value st =
    match st.dir with
    | Unowned | Shared_s -> Some st.mem
    | Excl | Busy_shared | Busy_excl -> (
        if st.own < 0 then None
        else
          match st.ns.(st.own).cache with CE v | CS v -> Some v | CI -> None)
    | Dele -> (
        let node = st.ns.(st.own) in
        match node.cache with CE v | CS v -> Some v | CI -> node.rac)

  let error st = st.error

  let pp = pp_state
end
