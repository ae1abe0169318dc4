(* Binary min-heap over (time, seq); seq provides FIFO order within a
   cycle and makes the ordering total, hence deterministic.

   The heap holds only ints: parallel [times]/[seqs]/[slots] arrays,
   where [slots.(i)] names the payload slot of heap entry [i].  What an
   event runs lives in slot-indexed arrays beside the heap — a thunk in
   [thunks], or a typed handler in [handlers] with its int argument in
   [args] — so sifting moves three ints per level and never runs the
   write barrier.  A slot is taken from the [free] stack on [add] and
   returned on [run_next] before the event runs (the event may reuse it),
   with its references overwritten so a dead closure is not kept alive.
   [add] and [add_call] allocate nothing once the arrays have grown to
   the run's peak queue depth. *)

(* Marks a slot whose event is a thunk; compared physically. *)
let thunk_slot : int -> unit = fun _ -> ()

type t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
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

(* [i] precedes [j] in heap order: earlier time, then earlier seq. *)
let precedes t i j =
  let ti = Array.unsafe_get t.times i and tj = Array.unsafe_get t.times j in
  ti < tj || (ti = tj && Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j)

let swap t i j =
  let tmp = t.times.(i) in
  t.times.(i) <- t.times.(j);
  t.times.(j) <- tmp;
  let tmp = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- tmp;
  let tmp = t.slots.(i) in
  t.slots.(i) <- t.slots.(j);
  t.slots.(j) <- tmp

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
  t.thunks <- extend t.thunks capacity ignore;
  t.handlers <- extend t.handlers capacity thunk_slot;
  t.args <- extend t.args capacity 0;
  t.free <- Array.init capacity (fun i -> capacity - 1 - i);
  t.free_top <- capacity - old

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if precedes t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let left = (2 * i) + 1 and right = (2 * i) + 2 in
  let smallest = ref i in
  if left < t.size && precedes t left !smallest then smallest := left;
  if right < t.size && precedes t right !smallest then smallest := right;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

(* Take a free slot and insert a heap entry naming it. *)
let push t ~time =
  if t.size = Array.length t.times then grow t;
  let top = t.free_top - 1 in
  let slot = t.free.(top) in
  t.free_top <- top;
  let i = t.size in
  t.times.(i) <- time;
  t.seqs.(i) <- t.next_seq;
  t.slots.(i) <- slot;
  t.next_seq <- t.next_seq + 1;
  t.size <- i + 1;
  sift_up t i;
  slot

let add t ~time action =
  let slot = push t ~time in
  t.thunks.(slot) <- action

let add_call t ~time handler arg =
  let slot = push t ~time in
  t.handlers.(slot) <- handler;
  t.args.(slot) <- arg

let next_time t = if t.size = 0 then max_int else t.times.(0)

let min_time t = if t.size = 0 then None else Some t.times.(0)

let run_next t =
  if t.size = 0 then invalid_arg "Event_queue.run_next: queue is empty";
  let slot = t.slots.(0) in
  let last = t.size - 1 in
  t.size <- last;
  t.times.(0) <- t.times.(last);
  t.seqs.(0) <- t.seqs.(last);
  t.slots.(0) <- t.slots.(last);
  if last > 0 then sift_down t 0;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
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
  let capacity = Array.length t.times in
  for i = 0 to capacity - 1 do
    t.free.(i) <- capacity - 1 - i
  done;
  t.free_top <- capacity;
  t.size <- 0
