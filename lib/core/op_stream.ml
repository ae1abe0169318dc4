(* Packed streaming operation feed.

   One processor operation is one OCaml int: the low two bits are the
   tag, the rest the payload.  [next node] pulls the node's next op (or
   [end_of_stream]) without allocating, which is what lets trace-fed and
   generator-fed runs of 10^8+ events stay on the allocation-gated hot
   path.  Line payloads fit comfortably: [Types.Layout] packs a line
   into home_shift + 36 bits, leaving room for the 2-bit tag in a 63-bit
   OCaml int. *)

type t = { nodes : int; next : Types.node_id -> int }

let end_of_stream = -1

let tag_compute = 0

let tag_load = 1

let tag_store = 2

let tag_barrier = 3

(* Compute is clamped at 0 like the run loop always did, so every packed
   op is non-negative and [end_of_stream] stays unambiguous. *)
let compute cycles = max 0 cycles lsl 2

let access kind line =
  (line lsl 2) lor (match kind with Types.Load -> tag_load | Types.Store -> tag_store)

let barrier id = (id lsl 2) lor tag_barrier

let pack_op = function
  | Types.Compute c -> compute c
  | Types.Access (k, l) -> access k l
  | Types.Barrier id -> barrier id

let tag packed = packed land 3

let payload packed = packed asr 2

let unpack_op packed =
  match packed land 3 with
  | 0 -> Types.Compute (packed asr 2)
  | 1 -> Types.Access (Types.Load, packed asr 2)
  | 2 -> Types.Access (Types.Store, packed asr 2)
  | _ -> Types.Barrier (packed asr 2)

let of_programs programs =
  let nodes = Array.length programs in
  let ops =
    Array.map (fun program -> Array.of_list (List.map pack_op program)) programs
  in
  let idx = Array.make nodes 0 in
  let next node =
    let arr = ops.(node) in
    let i = Array.unsafe_get idx node in
    if i >= Array.length arr then end_of_stream
    else begin
      Array.unsafe_set idx node (i + 1);
      Array.unsafe_get arr i
    end
  in
  { nodes; next }

(* Per-node cursor over a per-epoch refill buffer.  [refill node epoch
   buf] writes packed ops and returns the count; every epoch ends with
   at least a barrier, so refills always make progress. *)
type cursor = {
  buf : int array;
  mutable len : int;
  mutable pos : int;
  mutable epoch : int;
}

(* One pull from [node]'s cursor, refilling past each exhausted epoch.
   Top-level, so a pull allocates no closure. *)
let rec pull ~refill ~epochs node c =
  if c.pos < c.len then begin
    let v = Array.unsafe_get c.buf c.pos in
    c.pos <- c.pos + 1;
    v
  end
  else if c.epoch >= epochs then end_of_stream
  else begin
    c.len <- refill node c.epoch c.buf;
    c.pos <- 0;
    c.epoch <- c.epoch + 1;
    pull ~refill ~epochs node c
  end

let stream_of_epochs ~nodes ~epochs ~capacity ~refill () =
  let cursors =
    Array.init nodes (fun _ -> { buf = Array.make capacity 0; len = 0; pos = 0; epoch = 0 })
  in
  let next node = pull ~refill ~epochs node cursors.(node) in
  { nodes; next }

let to_programs t =
  Array.init t.nodes (fun node ->
      let rec pull acc =
        let packed = t.next node in
        if packed = end_of_stream then List.rev acc
        else pull (unpack_op packed :: acc)
      in
      pull [])
