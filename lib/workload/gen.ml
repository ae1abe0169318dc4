open Pcc_core
module Rng = Pcc_engine.Rng

type line_role = {
  line : Types.line;
  producer_of_phase : int -> Types.node_id;
  consumers_of_phase : int -> Types.node_id list;
  writes_per_epoch : int;
  reads_per_epoch : int;
}

type app_spec = {
  name : string;
  nodes : int;
  phases : int;
  epochs_per_phase : int;
  lines : line_role list;
  private_lines_per_node : int;
  private_accesses_per_epoch : int;
  private_write_fraction : float;
  compute_per_epoch : int;
  seed : int;
}

(* Shared and private lines live in disjoint index ranges so generators
   can never collide. *)
let shared_index_base = 0

let private_index_base = 1 lsl 20

let shared_line ~home i = Types.Layout.make_line ~home ~index:(shared_index_base + i)

let private_line ~node i = Types.Layout.make_line ~home:node ~index:(private_index_base + i)

module Consumers = struct
  let ring_neighbor ~nodes node = [ (node + 1) mod nodes ]

  let sample ~rng ~nodes ~exclude ~count =
    let candidates =
      Array.of_list (List.filter (fun n -> n <> exclude) (List.init nodes Fun.id))
    in
    Rng.shuffle rng candidates;
    let count = min count (Array.length candidates) in
    Array.to_list (Array.sub candidates 0 count)

  let sample_dist ~rng ~nodes ~exclude ~dist =
    let total = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 dist in
    let draw = Rng.float rng *. total in
    let rec pick acc = function
      | [] -> 1
      | (size, w) :: rest -> if draw < acc +. w then size else pick (acc +. w) rest
    in
    let size = pick 0.0 dist in
    sample ~rng ~nodes ~exclude ~count:size
end

(* Small random sharing structures for differential/fuzz testing: a few
   shared lines with per-phase producers and consumer sets drawn up
   front, so the spec (and hence the generated programs) is a pure
   function of (nodes, seed). *)
let random_spec ~nodes ~seed =
  assert (nodes >= 2);
  let rng = Rng.create ~seed:(0x5EED + (seed * 65537)) in
  let phases = 3 in
  let num_lines = 2 + Rng.int rng ~bound:5 in
  let lines =
    List.init num_lines (fun i ->
        let home = Rng.int rng ~bound:nodes in
        let producers = Array.init phases (fun _ -> Rng.int rng ~bound:nodes) in
        let consumers =
          Array.init phases (fun phase ->
              Consumers.sample ~rng ~nodes ~exclude:producers.(phase)
                ~count:(1 + Rng.int rng ~bound:(max 1 (nodes - 1))))
        in
        {
          line = shared_line ~home i;
          producer_of_phase = (fun phase -> producers.(phase mod phases));
          consumers_of_phase = (fun phase -> consumers.(phase mod phases));
          writes_per_epoch = 1 + Rng.int rng ~bound:3;
          reads_per_epoch = 1 + Rng.int rng ~bound:2;
        })
  in
  {
    name = "random";
    nodes;
    phases;
    epochs_per_phase = 2;
    lines;
    private_lines_per_node = 4;
    private_accesses_per_epoch = 2;
    private_write_fraction = 0.5;
    compute_per_epoch = 200;
    seed;
  }

(* A spec compiled for streaming.  Everything an epoch needs that does
   not depend on the epoch is worked out here, once: [stores.(at)] and
   [loads.(at)], with [at = phase * nodes + node], are the node's write
   burst and reads in role order, already packed.  A refill then copies
   those two arrays and draws only the node's private accesses and
   compute jitter.  Nothing here is mutated after [compile], so passes
   in several domains can share one plan. *)
type plan = {
  spec : app_spec;
  stores : int array array;
  loads : int array array;
  epochs : int;
  capacity : int;  (* the largest epoch any node emits *)
  accesses : int;  (* memory accesses of one pass *)
}

(* Private accesses a node makes in [count] draws: none without private
   lines. *)
let private_count spec count =
  if spec.private_lines_per_node > 0 then max 0 count else 0

let compile spec =
  if spec.nodes < 1 || spec.phases < 1 || spec.epochs_per_phase < 1 then
    invalid_arg "Gen.compile: nodes, phases and epochs_per_phase must be positive";
  let nodes = spec.nodes in
  let stores = Array.make (spec.phases * nodes) [||] in
  let loads = Array.make (spec.phases * nodes) [||] in
  for phase = 0 to spec.phases - 1 do
    let roles =
      List.map
        (fun role ->
          let producer = role.producer_of_phase phase in
          let consumers =
            List.filter (fun c -> c <> producer) (role.consumers_of_phase phase)
          in
          (role, producer, consumers))
        spec.lines
    in
    let repeat kind role count =
      List.init (max 0 count) (fun _ -> Op_stream.access kind role.line)
    in
    for node = 0 to nodes - 1 do
      let at = (phase * nodes) + node in
      stores.(at) <-
        Array.of_list
          (List.concat_map
             (fun (role, producer, _) ->
               if producer = node then repeat Types.Store role role.writes_per_epoch
               else [])
             roles);
      loads.(at) <-
        Array.of_list
          (List.concat_map
             (fun (role, _, consumers) ->
               if List.mem node consumers then repeat Types.Load role role.reads_per_epoch
               else [])
             roles)
    done
  done;
  let k = spec.private_accesses_per_epoch in
  let private_per_epoch = private_count spec (k / 2) + private_count spec (k - (k / 2)) in
  let capacity = ref 0 and shared = ref 0 in
  Array.iteri
    (fun at burst ->
      let n = Array.length burst + Array.length loads.(at) in
      capacity := max !capacity n;
      shared := !shared + n)
    stores;
  {
    spec;
    stores;
    loads;
    epochs = spec.phases * spec.epochs_per_phase;
    (* two computes, two barriers *)
    capacity = !capacity + private_per_epoch + 4;
    accesses =
      spec.epochs_per_phase * (!shared + (spec.phases * nodes * private_per_epoch));
  }

let accesses plan = plan.accesses

(* The refill's steps return the next free slot of [buf]; top-level and
   closure-free, so an epoch's refill allocates nothing. *)

(* [budget] cycles plus up to a quarter more of jitter. *)
let compute rng budget buf n =
  if budget > 0 then begin
    let jitter = Rng.int rng ~bound:(max 1 (budget / 4)) in
    Array.unsafe_set buf n (Op_stream.compute (budget + jitter));
    n + 1
  end
  else n

let private_accesses spec rng node count buf n =
  let count = private_count spec count in
  for i = 0 to count - 1 do
    let index = Rng.int rng ~bound:spec.private_lines_per_node in
    let kind =
      if Rng.bool rng ~p:spec.private_write_fraction then Types.Store else Types.Load
    in
    Array.unsafe_set buf (n + i) (Op_stream.access kind (private_line ~node index))
  done;
  n + count

let copy (src : int array) (buf : int array) n =
  let len = Array.length src in
  for i = 0 to len - 1 do
    Array.unsafe_set buf (n + i) (Array.unsafe_get src i)
  done;
  n + len

(* One epoch of [node]: compute, write burst, half the private mix,
   barrier [2e+1]; reads, the other half, compute, barrier [2e+2].  The
   draws come from the node's own generator, in the order they always
   have, so each node's op sequence is the same however the pulls of
   different nodes interleave. *)
let refill plan rngs node epoch buf =
  let spec = plan.spec in
  let rng = Array.unsafe_get rngs node in
  let k = spec.private_accesses_per_epoch and c = spec.compute_per_epoch in
  let at = (epoch / spec.epochs_per_phase * spec.nodes) + node in
  let n = compute rng (c / 2) buf 0 in
  let n = copy plan.stores.(at) buf n in
  let n = private_accesses spec rng node (k / 2) buf n in
  Array.unsafe_set buf n (Op_stream.barrier ((2 * epoch) + 1));
  let n = copy plan.loads.(at) buf (n + 1) in
  let n = private_accesses spec rng node (k - (k / 2)) buf n in
  let n = compute rng (c - (c / 2)) buf n in
  Array.unsafe_set buf n (Op_stream.barrier ((2 * epoch) + 2));
  n + 1

let stream plan =
  let rngs =
    Array.init plan.spec.nodes (fun node ->
        Rng.create ~seed:(plan.spec.seed + (node * 7919)))
  in
  Op_stream.stream_of_epochs ~nodes:plan.spec.nodes ~epochs:plan.epochs
    ~capacity:plan.capacity
    ~refill:(fun node epoch buf -> refill plan rngs node epoch buf)
    ()

let programs spec = Op_stream.to_programs (stream (compile spec))

let total_ops programs =
  Array.fold_left
    (fun acc program ->
      List.fold_left
        (fun acc op -> match op with Types.Access _ -> acc + 1 | _ -> acc)
        acc program)
    0 programs
