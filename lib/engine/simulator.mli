(** Discrete-event simulation driver.

    A simulator owns a clock (measured in processor cycles) and an event
    queue.  Components schedule closures at future cycles; [run] executes
    them in deterministic timestamp order until the queue drains, a time
    limit is hit, or a component calls [stop].

    Hot, high-volume event kinds use {e typed events} instead
    ({!schedule_call}): a handler closure built once by the component,
    called with one int argument that names the event's state (a packet
    slot, a packed timer key).  Scheduling one allocates nothing.  Both
    kinds share one (time, insertion) order, so switching an event kind
    from a closure to a typed event, scheduled at the same moment,
    leaves every simulated result unchanged.

    A timer that usually finds its work done (a retransmission after the
    ack, a completion timeout after the commit) is scheduled with
    {!schedule_timer}, whose handle {!cancel}s it once the work is done:
    it leaves the queue instead of running as a no-op.  Cancelling only
    such a timer leaves every event that does work in its order. *)

type t

type outcome =
  | Drained  (** the event queue emptied *)
  | Stopped  (** a component called {!stop} *)
  | Time_limit_reached
  | Event_limit_reached
  | Stalled
      (** the progress watchdog saw no progress for its configured number
          of consecutive check intervals (livelock: events keep executing
          but nothing commits) *)

val create : unit -> t

val now : t -> int
(** Current simulated cycle. *)

val schedule : t -> delay:int -> (unit -> unit) -> unit
(** [schedule t ~delay f] runs [f] at [now t + delay].  [delay] must be
    nonnegative; a zero delay runs after currently queued same-cycle
    events. *)

val schedule_at : t -> time:int -> (unit -> unit) -> unit
(** Absolute-time variant; [time] must not be in the past. *)

val schedule_call : t -> delay:int -> (int -> unit) -> int -> unit
(** [schedule_call t ~delay handler arg] runs [handler arg] at
    [now t + delay], in the same order as {!schedule} would have run a
    closure scheduled at this moment.  Allocation-free when [handler] is
    preallocated. *)

val schedule_call_at : t -> time:int -> (int -> unit) -> int -> unit
(** Absolute-time variant of {!schedule_call}. *)

type handle = Event_queue.handle
(** Names one event scheduled by {!schedule_timer}; an immediate int. *)

val no_handle : handle
(** Names no event: cancelling it does nothing. *)

val schedule_timer : t -> delay:int -> (int -> unit) -> int -> handle
(** {!schedule_call} that returns the event's handle. *)

val cancel : t -> handle -> unit
(** Take the named event out of the queue before it runs.  A handle
    whose event already ran or was cancelled, or {!no_handle}, cancels
    nothing.  Allocation-free. *)

val stop : t -> unit
(** Request that [run] return after the current event. *)

val events_executed : t -> int

val pending_events : t -> int

val peak_pending : t -> int
(** High-water mark of the event-queue length over the whole run (the
    self-profiler's "peak queue depth"). *)

val on_event : t -> (unit -> unit) -> unit
(** Register an observer called after {e every} executed event (in
    registration order), once that event's action has fully run.  This is
    the hook runtime verification tools use to audit component state at
    event granularity; observers must not schedule or mutate simulation
    state.  An observer may raise to abort the run. *)

val run : ?until:int -> ?max_events:int -> t -> outcome
(** Execute events in order.  [until] bounds simulated time (events at
    cycles > [until] are left queued); [max_events] bounds work. *)

(** {2 Progress watchdog}

    Detects livelock — the event queue never drains because components
    keep scheduling (retry storms, retransmissions) while no useful work
    completes — and makes {!run} return {!Stalled} instead of hanging. *)

val set_watchdog :
  t ->
  interval:int ->
  stall_checks:int ->
  progress:(unit -> int) ->
  unit
(** Every [interval] executed events the watchdog samples [progress] (any
    monotone counter of useful work, e.g. committed operations); after
    [stall_checks] consecutive samples without change, {!run} returns
    {!Stalled}.  The engine keeps no event history: stall reports read
    the machine's flight recorder ([Pcc_core.Flight_ring]). *)

val pp_outcome : Format.formatter -> outcome -> unit
