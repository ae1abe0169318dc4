(* Binary min-heap over (time, seq); seq provides FIFO order within a
   cycle and makes the ordering total, hence deterministic.

   The heap holds only ints: parallel [times]/[seqs]/[slots] arrays,
   where [slots.(i)] names the payload slot of heap entry [i], and
   [pos.(slot)] is the heap index of the entry naming [slot] (-1 while
   the slot is free), so an entry can be found from its slot and taken
   out of the middle of the heap.  What an event runs lives in
   slot-indexed arrays beside the heap — a thunk in [thunks], or a typed
   handler in [handlers] with its int argument in [args] — so sifting
   moves three ints per level and never runs the write barrier.  A slot
   is taken from the [free] stack on [add] and returned on [run_next]
   before the event runs (the event may reuse it), or on [cancel], with
   its references overwritten so a dead closure is not kept alive.
   [add], [add_call], [add_timer] and [cancel] allocate nothing once the
   arrays have grown to the run's peak queue depth.

   A handle packs the event's slot (low [slot_bits]; a queue never holds
   2^30 events) with the low 32 bits of its insertion sequence number.
   The slot finds the entry; the sequence number tells the event apart
   from a later one that reuses the slot, so a spent handle cancels
   nothing as long as fewer than 2^32 events are scheduled between its
   event and the cancel. *)

(* Marks a slot whose event is a thunk; compared physically. *)
let thunk_slot : int -> unit = fun _ -> ()

type handle = int

let slot_bits = 30

let slot_mask = (1 lsl slot_bits) - 1

let stamp_mask = (1 lsl 32) - 1

let no_handle = -1

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;  (* slot -> heap index, -1 while free *)
  mutable thunks : (unit -> unit) array;
  mutable handlers : (int -> unit) array;
  mutable args : int array;
  mutable free : int array;  (* free.(0 .. free_top-1): unused slots *)
  mutable free_top : int;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let create () =
  {
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    slots = Array.make initial_capacity 0;
    pos = Array.make initial_capacity (-1);
    thunks = Array.make initial_capacity ignore;
    handlers = Array.make initial_capacity thunk_slot;
    args = Array.make initial_capacity 0;
    free = Array.init initial_capacity (fun i -> initial_capacity - 1 - i);
    free_top = initial_capacity;
    size = 0;
    next_seq = 0;
  }

let is_empty t = t.size = 0

let length t = t.size

(* Entry (time, seq) precedes heap entry [j]: earlier time, then earlier
   seq. *)
let before t ~time ~seq j =
  let tj = Array.unsafe_get t.times j in
  time < tj || (time = tj && seq < Array.unsafe_get t.seqs j)

(* Put (time, seq, slot) at heap index [i]. *)
let place t i ~time ~seq ~slot =
  t.times.(i) <- time;
  t.seqs.(i) <- seq;
  t.slots.(i) <- slot;
  t.pos.(slot) <- i

(* Move heap entry [j] to index [i]. *)
let move t ~from:j i = place t i ~time:t.times.(j) ~seq:t.seqs.(j) ~slot:t.slots.(j)

let extend a capacity filler =
  let b = Array.make capacity filler in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Heap and slot pool grow together: the heap is full exactly when every
   slot is taken, and the new slots are all free. *)
let grow t =
  let old = Array.length t.times in
  let capacity = 2 * old in
  t.times <- extend t.times capacity 0;
  t.seqs <- extend t.seqs capacity 0;
  t.slots <- extend t.slots capacity 0;
  t.pos <- extend t.pos capacity (-1);
  t.thunks <- extend t.thunks capacity ignore;
  t.handlers <- extend t.handlers capacity thunk_slot;
  t.args <- extend t.args capacity 0;
  t.free <- Array.init capacity (fun i -> capacity - 1 - i);
  t.free_top <- capacity - old

(* Sift (time, seq, slot) from the hole at [i] toward the root, moving
   each later parent down into the hole. *)
let rec sift_up t i ~time ~seq ~slot =
  if i > 0 && before t ~time ~seq ((i - 1) / 2) then begin
    let parent = (i - 1) / 2 in
    move t ~from:parent i;
    sift_up t parent ~time ~seq ~slot
  end
  else place t i ~time ~seq ~slot

(* Sift (time, seq, slot) from the hole at [i] toward the leaves, moving
   the earlier child up into the hole. *)
let rec sift_down t i ~time ~seq ~slot =
  let left = (2 * i) + 1 in
  if left >= t.size then place t i ~time ~seq ~slot
  else begin
    let right = left + 1 in
    let child =
      if
        right < t.size
        && before t ~time:(Array.unsafe_get t.times right)
             ~seq:(Array.unsafe_get t.seqs right) left
      then right
      else left
    in
    if before t ~time ~seq child then place t i ~time ~seq ~slot
    else begin
      move t ~from:child i;
      sift_down t child ~time ~seq ~slot
    end
  end

(* Take a free slot and insert a heap entry naming it; returns the new
   event's handle. *)
let push t ~time =
  if t.size = Array.length t.times then grow t;
  let top = t.free_top - 1 in
  let slot = t.free.(top) in
  t.free_top <- top;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  let i = t.size in
  t.size <- i + 1;
  sift_up t i ~time ~seq ~slot;
  ((seq land stamp_mask) lsl slot_bits) lor slot

(* Return [slot] to the free stack. *)
let release t slot =
  t.pos.(slot) <- -1;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1

(* Remove heap entry [i]: the last entry fills the hole and sifts
   whichever way restores heap order. *)
let remove_at t i =
  let last = t.size - 1 in
  t.size <- last;
  if i < last then begin
    let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
    if i > 0 && before t ~time ~seq ((i - 1) / 2) then sift_up t i ~time ~seq ~slot
    else sift_down t i ~time ~seq ~slot
  end

let add t ~time action =
  let slot = push t ~time land slot_mask in
  t.thunks.(slot) <- action

let add_timer t ~time handler arg =
  let handle = push t ~time in
  let slot = handle land slot_mask in
  t.handlers.(slot) <- handler;
  t.args.(slot) <- arg;
  handle

let add_call t ~time handler arg = ignore (add_timer t ~time handler arg : handle)

(* The handle is checked explicitly (slot in range, slot queued, same
   sequence number), not left to array bounds checks: a spent or
   cleared handle must fall through even where the build drops them. *)
let cancel t handle =
  if handle >= 0 then begin
    let slot = handle land slot_mask in
    if slot < Array.length t.pos then begin
      let i = t.pos.(slot) in
      if i >= 0 && i < t.size && t.seqs.(i) land stamp_mask = handle lsr slot_bits then begin
        remove_at t i;
        release t slot;
        t.thunks.(slot) <- ignore;
        t.handlers.(slot) <- thunk_slot
      end
    end
  end

let next_time t = if t.size = 0 then max_int else t.times.(0)

let min_time t = if t.size = 0 then None else Some t.times.(0)

let run_next t =
  if t.size = 0 then invalid_arg "Event_queue.run_next: queue is empty";
  let slot = t.slots.(0) in
  remove_at t 0;
  release t slot;
  let handler = t.handlers.(slot) in
  if handler == thunk_slot then begin
    let action = t.thunks.(slot) in
    t.thunks.(slot) <- ignore;
    action ()
  end
  else begin
    t.handlers.(slot) <- thunk_slot;
    handler t.args.(slot)
  end

let clear t =
  Array.fill t.thunks 0 (Array.length t.thunks) ignore;
  Array.fill t.handlers 0 (Array.length t.handlers) thunk_slot;
  Array.fill t.pos 0 (Array.length t.pos) (-1);
  let capacity = Array.length t.times in
  for i = 0 to capacity - 1 do
    t.free.(i) <- capacity - 1 - i
  done;
  t.free_top <- capacity;
  t.size <- 0
