(** Fixed-size domain pool for embarrassingly parallel experiment fan-out.

    Submit a keyed list of thunks; results come back in submission order
    regardless of which domain ran which job or in what order they
    finished.  Jobs must be self-contained: they may not share mutable
    state with each other or with the submitting domain, and they must
    not print (confine output to the collected results, which the caller
    prints from the main domain — that is what keeps parallel runs
    byte-identical to sequential ones).

    With [jobs <= 1] (or fewer than two jobs) everything runs in the
    calling domain and no pool domain is ever spawned — the sequential
    fallback path is the exact loop a pre-parallel harness would have
    executed. *)

exception Job_failed of { key : string; exn : exn; backtrace : string }
(** Raised (in the submitting domain) when a job raised.  [key] names the
    failing job; [backtrace] is the raw backtrace text.  When several
    jobs fail, the one earliest in submission order wins. *)

val available_cores : unit -> int
(** [Domain.recommended_domain_count ()], at least 1. *)

val jobs_from_env : unit -> int option
(** Parse [PCC_JOBS] (a positive integer) from the environment.
    Returns [None] when unset; raises [Invalid_argument] on garbage so
    a typo'd knob fails loudly instead of silently running sequentially. *)

val default_jobs : unit -> int
(** [PCC_JOBS] if set, else {!available_cores}. *)

(** {2 Job accounting (metrics registry)} *)

type stats = { completed : int; failed : int }

val stats : unit -> stats
(** Process-wide pool totals since start: jobs that returned a value and
    jobs that raised.  Identical at any pool size — the tallies happen at
    collection time in the submitting domain — so metric exports stay
    byte-identical at [--jobs] 1 vs N. *)

val run_keyed : jobs:int -> (string * (unit -> 'a)) list -> 'a list
(** [run_keyed ~jobs tasks] executes every thunk on a pool of at most
    [jobs] domains (the calling domain counts as one worker) and
    returns the results in submission order.  Raises {!Job_failed} if
    any job raised. *)
