(** Online coherence auditing.

    {!attach} hooks a {!Pcc_core.System.t} (before running it) and checks
    structural coherence invariants {e continuously} — after every
    simulator event, not just at quiescence like
    {!Pcc_core.Node.check_invariants}.  The per-event invariants are
    necessarily weaker than the quiescent ones (requests, invalidations
    and handshakes are legitimately in flight), but they hold at every
    event boundary:

    + at most one node holds a line L2-Exclusive;
    + an exclusive holder is accounted for by its home directory entry
      (owner in [Excl]/[Busy_shared]/[Dele], or owner/requester in
      [Busy_excl]);
    + at most one node holds a producer-table entry per line; a producer
      entry implies the home is [Dele]/[Busy_excl] with that owner, and a
      pinned RAC backing copy exists (and conversely, a pinned RAC entry
      implies a producer entry);
    + a line whose home says [Unowned] has no copies anywhere;
    + [Shared_s]: no exclusive copies, every copy holder is in the
      sharing vector, and every copy equals home memory;
    + [Excl]: {e once the owner actually holds the exclusive copy} (i.e.
      its invalidation acks were collected), no other node has a copy;
    + [Dele] with the producer in its exclusive phase: no foreign copies
      — the invariant the injected stale-update fault violates; in its
      shared phase: holders are covered by the producer's vector and
      match its RAC backing value.

    The run also aborts at the first commit the machine's
    {!Pcc_core.Sc_check} flags (store serialization, per-node
    monotonicity, load-window legality).

    Cost is kept off the critical path by auditing incrementally: message
    and commit hooks mark the affected lines dirty, and the post-event
    hook checks only dirty lines (plus a periodic and final full sweep).

    A violation raises {!Violation} out of the simulator's [run],
    carrying the flight recorder's last events ({!System.recent}) for the
    failure artifact (see {!Trace}). *)

open Pcc_core

exception
  Violation of { message : string; time : int; events : Flight_ring.event list }

type t

val attach : ?full_check_period:int -> System.t -> t
(** Register the auditor's observers on a freshly created system,
    {!abort_on_violation} included.  [full_check_period] is the event
    interval between full sweeps of all known lines (default 10000). *)

val abort_on_violation : System.t -> unit
(** Raise {!Violation} at the first commit the machine's checker flags,
    with the checker's report and the flight window: the online oracle
    of a backend whose structure the auditor cannot read. *)

val events_seen : t -> int

val check_all : t -> unit
(** Sweep every line known to any cache, directory, or producer table;
    raises {!Violation} on the first failure.  Called automatically on a
    period; call it once more after the run completes. *)
