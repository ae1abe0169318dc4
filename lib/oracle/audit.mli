(** Online coherence auditing.

    {!attach} hooks a {!Pcc_core.System.t} (before running it) and checks
    the adaptive protocol's structural invariants {e continuously} —
    after every simulator event, not just at quiescence like
    {!Pcc_core.Node.check_invariants}.  Both read the same line view
    ({!Pcc_core.Node.line_view}) and the same statement of the
    invariants, {!Pcc_core.Dir_invariants}: "single writer exists",
    "consistency within the directory" and "delegation consistency".
    The auditor checks them at the event-boundary strength, answering
    "may this still be in transit" from directory and producer state: an
    [Excl] whose owner does not yet hold E, any Busy entry, and a [Dele]
    whose producer entry is missing or busy leave every copy to the
    messages in flight, and a [Busy_excl] home accounts for its
    requester's exclusive copy.

    The run also aborts at the first commit the machine's
    {!Pcc_core.Sc_check} flags (store serialization, per-node
    monotonicity, load-window legality).

    Cost is kept off the critical path by auditing incrementally: the
    send, receive and commit hooks mark the affected lines dirty, and the
    post-event hook checks only dirty lines (plus a full sweep every
    10,000 events, and a final one the caller runs).

    A violation raises {!Violation} out of the simulator's [run], naming
    the broken invariant; {!Runner} turns it into the run's failure and
    its flight dump. *)

open Pcc_core

exception Violation of string

type t

val attach : System.t -> t
(** Register the auditor's observers on a freshly created adaptive
    system, {!abort_on_violation} included. *)

val abort_on_violation : System.t -> unit
(** Raise {!Violation} at the first commit the machine's checker flags,
    with the checker's report: the online oracle of a backend whose
    structure the auditor cannot read. *)

val check_all : t -> unit
(** Sweep every line known to any cache or directory; raises
    {!Violation} on the first failure.  Called automatically on a
    period; call it once more after the run completes. *)
