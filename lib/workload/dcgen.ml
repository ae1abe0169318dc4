(* Streaming datacenter-shaped workload generators.

   Like the seven paper apps ([Gen]), these four generators synthesize
   their programs one epoch at a time into reusable per-node buffers
   ([Op_stream.stream_of_epochs]), so a 10^8-event run holds a few KB of
   generator state instead of gigabytes of op lists.

   Determinism without coordination: every shared decision for epoch [e]
   (who is hot, who publishes, who produces this era) is drawn from an
   RNG seeded by [mix seed e], which every node can rebuild identically;
   per-node jitter comes from [mix3 seed node e].  A generator is a pure
   function of its parameters, so a failing (name, params, seed) triple
   is a complete reproducer.

   Each generator exposes a [skew] knob shaping its consumer
   distribution (the Table-3 axis the adaptive protocol reacts to):
   Zipf key popularity for kv, the subscriber-count exponent for pubsub,
   victim popularity for worksteal, shard popularity for mpsc. *)

open Pcc_core
module Rng = Pcc_engine.Rng

let mix2 a b = (a * 0x9E3779B1) lxor ((b + 0x7F4A7C15) * 0x85EBCA77)

let mix3 a b c = mix2 (mix2 a b) c

type t = {
  g_name : string;
  g_describe : string;
  g_nodes : int;
  g_accesses : int;  (* total memory accesses across the run *)
  g_stream : unit -> Op_stream.t;
}

(* Zipf(theta) over ranks 0..n-1 as a precomputed CDF; sampling is one
   uniform draw plus a binary search, allocation-free. *)
let zipf_cdf ~n ~theta =
  let cdf = Array.make n 0.0 in
  let total = ref 0.0 in
  for i = 0 to n - 1 do
    total := !total +. (1.0 /. (float_of_int (i + 1) ** theta));
    cdf.(i) <- !total
  done;
  let t = !total in
  for i = 0 to n - 1 do
    cdf.(i) <- cdf.(i) /. t
  done;
  cdf

let zipf_sample cdf rng =
  let u = Rng.float rng in
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get cdf mid > u then hi := mid else lo := mid + 1
  done;
  !lo

let shuffled_identity rng n =
  let a = Array.init n (fun i -> i) in
  Rng.shuffle rng a;
  a

let epochs_for ~events ~per_epoch_total = max 2 (events / max 1 per_epoch_total)

let private_mix ~push ~rng ~node ~epoch ~count =
  for i = 1 to count do
    let line = Gen.private_line ~node (((node * 31) + i + epoch) land 63) in
    if Rng.bool rng ~p:0.5 then push (Op_stream.access Types.Store line)
    else push (Op_stream.access Types.Load line)
  done

(* Sharded KV store: key [k] lives on shard [k mod nodes]; its owner
   applies updates (the producer), everyone issues Zipf-distributed
   lookups (the consumers).  Hot keys get wide stable consumer sets —
   the delegation sweet spot — while the Zipf tail stays
   single-consumer. *)
let kv ~nodes ~seed ?(keys = 2048) ?(skew = 0.9) ?(write_frac = 0.2)
    ?(ops_per_epoch = 96) ?(events = 400_000) () =
  if nodes < 2 then invalid_arg "Dcgen.kv: at least 2 nodes";
  if keys < 1 then invalid_arg "Dcgen.kv: at least 1 key";
  let cdf = zipf_cdf ~n:keys ~theta:skew in
  (* spread hot ranks across homes so no single shard owns the head *)
  let key_of_rank = shuffled_identity (Rng.create ~seed:(mix2 seed 0x5EED)) keys in
  let private_per_epoch = 16 in
  let per_epoch = ops_per_epoch + private_per_epoch in
  let epochs = epochs_for ~events ~per_epoch_total:(nodes * per_epoch) in
  let refill node epoch buf =
    let n = ref 0 in
    let push v =
      buf.(!n) <- v;
      incr n
    in
    let rng = Rng.create ~seed:(mix3 seed node epoch) in
    push (Op_stream.compute 120);
    for _ = 1 to ops_per_epoch do
      let k = key_of_rank.(zipf_sample cdf rng) in
      let home = k mod nodes in
      let line = Gen.shared_line ~home k in
      if home = node && Rng.bool rng ~p:write_frac then
        push (Op_stream.access Types.Store line)
      else push (Op_stream.access Types.Load line)
    done;
    private_mix ~push ~rng ~node ~epoch ~count:private_per_epoch;
    push (Op_stream.barrier epoch);
    !n
  in
  {
    g_name = "kv";
    g_describe =
      Printf.sprintf "kv:keys=%d,skew=%g,write-frac=%g,events=%d,seed=%d" keys skew
        write_frac events seed;
    g_nodes = nodes;
    g_accesses = nodes * per_epoch * epochs;
    g_stream = Op_stream.stream_of_epochs ~nodes ~epochs ~capacity:(per_epoch + 2) ~refill;
  }

(* Pub/sub fan-out: each topic has one stable publisher and a subscriber
   set whose size is drawn from P(s) proportional to s^-skew — low skew
   means broadcast-heavy, high skew means mostly point-to-point.  Topic
   lines are homed at their publisher (first touch). *)
let pubsub ~nodes ~seed ?(topics = 192) ?(skew = 1.2) ?(max_fanout = 0)
    ?(events = 400_000) () =
  if nodes < 2 then invalid_arg "Dcgen.pubsub: at least 2 nodes";
  if topics < 1 then invalid_arg "Dcgen.pubsub: at least 1 topic";
  let max_fanout =
    if max_fanout <= 0 then nodes - 1 else min max_fanout (nodes - 1)
  in
  let setup = Rng.create ~seed:(mix2 seed 0xB5B) in
  let size_cdf = zipf_cdf ~n:max_fanout ~theta:skew in
  let publisher = Array.init topics (fun _ -> Rng.int setup ~bound:nodes) in
  let subscribers =
    Array.init topics (fun t ->
        let s = 1 + zipf_sample size_cdf setup in
        let others =
          Array.of_list
            (List.filter (fun n -> n <> publisher.(t)) (List.init nodes Fun.id))
        in
        Rng.shuffle setup others;
        Array.sub others 0 (min s (Array.length others)))
  in
  let pub_topics =
    Array.init nodes (fun n ->
        Array.of_list
          (List.filter (fun t -> publisher.(t) = n) (List.init topics Fun.id)))
  in
  let sub_topics =
    Array.init nodes (fun n ->
        Array.of_list
          (List.filter
             (fun t -> Array.exists (fun m -> m = n) subscribers.(t))
             (List.init topics Fun.id)))
  in
  let line_of_topic t = Gen.shared_line ~home:publisher.(t) t in
  let private_per_epoch = 8 in
  let total_subs = Array.fold_left (fun acc s -> acc + Array.length s) 0 subscribers in
  let per_epoch_total = (2 * topics) + total_subs + (nodes * private_per_epoch) in
  let epochs = epochs_for ~events ~per_epoch_total in
  let capacity =
    let per_node n =
      (2 * Array.length pub_topics.(n)) + Array.length sub_topics.(n)
      + private_per_epoch + 4
    in
    let m = ref 1 in
    for n = 0 to nodes - 1 do
      m := max !m (per_node n)
    done;
    !m
  in
  let refill node epoch buf =
    let n = ref 0 in
    let push v =
      buf.(!n) <- v;
      incr n
    in
    let rng = Rng.create ~seed:(mix3 seed node epoch) in
    push (Op_stream.compute 100);
    (* publish burst: two stores per owned topic (header + payload) *)
    Array.iter
      (fun t ->
        let line = line_of_topic t in
        push (Op_stream.access Types.Store line);
        push (Op_stream.access Types.Store line))
      pub_topics.(node);
    push (Op_stream.barrier (2 * epoch));
    Array.iter
      (fun t -> push (Op_stream.access Types.Load (line_of_topic t)))
      sub_topics.(node);
    private_mix ~push ~rng ~node ~epoch ~count:private_per_epoch;
    push (Op_stream.barrier ((2 * epoch) + 1));
    !n
  in
  {
    g_name = "pubsub";
    g_describe =
      (* must stay a valid of_spec input: every described workload can be
         respawned from its own describe string *)
      Printf.sprintf "pubsub:topics=%d,skew=%g,fanout=%d,events=%d,seed=%d"
        topics skew max_fanout events seed;
    g_nodes = nodes;
    g_accesses = per_epoch_total * epochs;
    g_stream = Op_stream.stream_of_epochs ~nodes ~epochs ~capacity ~refill;
  }

(* Work-stealing queue: every node pushes and pops its own deque;
   steal attempts hit a victim drawn from a Zipf over nodes, so high
   skew concentrates thieves on a few popular victims (many consumers
   of one producer's lines) while skew 0 spreads them uniformly. *)
let worksteal ~nodes ~seed ?(queue = 8) ?(steal_frac = 0.3) ?(skew = 1.0)
    ?(tasks_per_epoch = 48) ?(events = 400_000) () =
  if nodes < 2 then invalid_arg "Dcgen.worksteal: at least 2 nodes";
  if queue < 1 then invalid_arg "Dcgen.worksteal: at least 1 queue slot";
  let victim_cdf = zipf_cdf ~n:nodes ~theta:skew in
  let victim_of_rank = shuffled_identity (Rng.create ~seed:(mix2 seed 0x57EA)) nodes in
  let qline owner slot = Gen.shared_line ~home:owner ((owner * queue) + slot) in
  let steals = int_of_float (steal_frac *. float_of_int tasks_per_epoch) in
  let pops = tasks_per_epoch / 2 in
  let private_per_epoch = 8 in
  let per_epoch = 1 + tasks_per_epoch + pops + (2 * steals) + private_per_epoch + 1 in
  let epochs = epochs_for ~events ~per_epoch_total:(nodes * per_epoch) in
  let refill node epoch buf =
    let n = ref 0 in
    let push v =
      buf.(!n) <- v;
      incr n
    in
    let rng = Rng.create ~seed:(mix3 seed node epoch) in
    push (Op_stream.compute 80);
    for i = 1 to tasks_per_epoch do
      push (Op_stream.access Types.Store (qline node ((epoch + i) mod queue)))
    done;
    for i = 1 to pops do
      push (Op_stream.access Types.Load (qline node ((epoch + i) mod queue)))
    done;
    for _ = 1 to steals do
      let victim = victim_of_rank.(zipf_sample victim_cdf rng) in
      if victim = node then push (Op_stream.compute 40)
      else begin
        let slot = Rng.int rng ~bound:queue in
        (* inspect the victim's deque, then claim the task *)
        push (Op_stream.access Types.Load (qline victim slot));
        push (Op_stream.access Types.Store (qline victim slot))
      end
    done;
    private_mix ~push ~rng ~node ~epoch ~count:private_per_epoch;
    push (Op_stream.barrier epoch);
    !n
  in
  {
    g_name = "worksteal";
    g_describe =
      Printf.sprintf "worksteal:queue=%d,steal-frac=%g,skew=%g,events=%d,seed=%d" queue
        steal_frac skew events seed;
    g_nodes = nodes;
    g_accesses = nodes * (per_epoch - 2) * epochs;
    g_stream = Op_stream.stream_of_epochs ~nodes ~epochs ~capacity:(per_epoch + 2) ~refill;
  }

(* MPSC log ingestion: a few consumer nodes own the shard lines of a
   log; producer nodes append to Zipf-popular shards and rotate in and
   out of the producing role every [rotate] epochs — exactly the
   producer-migration pattern that forces the predictor to re-learn.
   [skew] shapes how many producers funnel into the same shard. *)
let mpsc ~nodes ~seed ?(consumers = 0) ?(slots = 16) ?(rotate = 4) ?(skew = 0.8)
    ?(appends_per_epoch = 48) ?(events = 400_000) () =
  if nodes < 3 then invalid_arg "Dcgen.mpsc: at least 3 nodes";
  let consumers =
    if consumers <= 0 then max 1 (nodes / 4) else min consumers (nodes - 1)
  in
  let rotate = max 1 rotate in
  let shard_cdf = zipf_cdf ~n:consumers ~theta:skew in
  let shard_of_rank = shuffled_identity (Rng.create ~seed:(mix2 seed 0x109)) consumers in
  let shard_line s slot = Gen.shared_line ~home:s ((s * slots) + slot) in
  let private_per_epoch = 8 in
  let producers = nodes - consumers in
  let per_epoch_total =
    (* roughly half the producer pool is active per era *)
    (producers * appends_per_epoch / 2)
    + (consumers * slots)
    + (nodes * private_per_epoch)
  in
  let epochs = epochs_for ~events ~per_epoch_total in
  let capacity = 3 + (max appends_per_epoch (consumers * slots)) + slots + private_per_epoch in
  let refill node epoch buf =
    let n = ref 0 in
    let push v =
      buf.(!n) <- v;
      incr n
    in
    let rng = Rng.create ~seed:(mix3 seed node epoch) in
    if node < consumers then begin
      push (Op_stream.barrier (2 * epoch));
      for slot = 0 to slots - 1 do
        push (Op_stream.access Types.Load (shard_line node slot))
      done;
      private_mix ~push ~rng ~node ~epoch ~count:private_per_epoch;
      push (Op_stream.barrier ((2 * epoch) + 1))
    end
    else begin
      let era = epoch / rotate in
      let active = Rng.bool (Rng.create ~seed:(mix3 seed era node)) ~p:0.5 in
      if active then begin
        push (Op_stream.compute 60);
        for _ = 1 to appends_per_epoch do
          let s = shard_of_rank.(zipf_sample shard_cdf rng) in
          push (Op_stream.access Types.Store (shard_line s (Rng.int rng ~bound:slots)))
        done
      end
      else push (Op_stream.compute 400);
      private_mix ~push ~rng ~node ~epoch ~count:private_per_epoch;
      push (Op_stream.barrier (2 * epoch));
      push (Op_stream.barrier ((2 * epoch) + 1))
    end;
    !n
  in
  {
    g_name = "mpsc";
    g_describe =
      Printf.sprintf "mpsc:consumers=%d,slots=%d,rotate=%d,skew=%g,events=%d,seed=%d"
        consumers slots rotate skew events seed;
    g_nodes = nodes;
    g_accesses = per_epoch_total * epochs;
    g_stream = Op_stream.stream_of_epochs ~nodes ~epochs ~capacity ~refill;
  }
