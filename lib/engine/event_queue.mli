(** Priority queue of timestamped simulation events.

    Events fire in nondecreasing time order; events scheduled for the same
    cycle fire in insertion order (FIFO), which keeps simulations
    deterministic without requiring callers to break ties.

    An event is either a thunk ({!add}) or a {e typed event}
    ({!add_call}): a preallocated [int -> unit] handler plus one int
    argument.  Both kinds share one insertion sequence, so FIFO holds
    across them.  The heap itself holds only ints (time, insertion
    sequence, payload slot); thunks, handlers and arguments sit in
    slot-indexed arrays beside it, so reordering the heap never touches
    a pointer, and a typed event costs no allocation at all.

    A typed event scheduled with {!add_timer} comes with a {e handle}
    that can {!cancel} it: a timer whose work is done leaves the queue
    at once instead of running to find nothing to do.  A handle names
    one event, not the slot it sits in, so cancelling an event that
    already ran or was cancelled is a no-op even after a later event
    reuses its slot (as long as fewer than 2{^32} events are scheduled
    in between). *)

type t

type handle = private int
(** Names one event scheduled by {!add_timer}.  An immediate int, so an
    array of handles holds no pointers. *)

val no_handle : handle
(** A handle that names no event: cancelling it does nothing. *)

val create : unit -> t

val is_empty : t -> bool

val length : t -> int

val add : t -> time:int -> (unit -> unit) -> unit
(** [add q ~time f] schedules [f] to run at [time]. *)

val add_call : t -> time:int -> (int -> unit) -> int -> unit
(** [add_call q ~time handler arg] schedules [handler arg] at [time].
    Allocation-free once the queue has grown to its peak depth, provided
    [handler] is a closure built once, not per event. *)

val add_timer : t -> time:int -> (int -> unit) -> int -> handle
(** {!add_call} that returns the event's handle. *)

val cancel : t -> handle -> unit
(** Take the event the handle names out of the queue, so it never runs.
    A handle whose event already ran or was cancelled, one taken before
    a {!clear}, and {!no_handle} cancel nothing.  Costs one sift;
    allocation-free. *)

val min_time : t -> int option
(** Timestamp of the next event, if any. *)

val next_time : t -> int
(** Unboxed {!min_time}: timestamp of the next event, or [max_int] when
    the queue is empty.  Allocation-free. *)

val run_next : t -> unit
(** Remove the earliest event and run it.  The event's slot is released
    before it runs, so it may schedule further events freely.  Raises
    [Invalid_argument] on an empty queue; pair with
    {!is_empty}/{!next_time}. *)

val clear : t -> unit
(** Drop every pending event (and the references they hold).  Every
    handle taken before the clear is spent. *)
