(** Reconstructs per-transaction {!Span}s and periodic occupancy samples
    from a {!Pcc_core.System}'s observer hooks.

    The recorder is a pure observer: it registers composing hooks
    (issue, send, receive, retransmit, commit, post-event) and never
    schedules events or touches protocol state, so an instrumented run
    executes the exact same event sequence as a bare one.  When no
    recorder is attached the hooks are empty lists and the run pays
    nothing. *)

open Pcc_core

type t

(** One fail-stop crash's recovery span, reconstructed from
    {!Pcc_core.System.on_crash}: the outage runs from the fail-stop to
    the restart (or to detection for a victim that never returns). *)
type recovery = {
  r_victim : Types.node_id;
  r_crash_at : int;  (** cycle the node fail-stopped *)
  mutable r_detected_at : int option;
      (** cycle the machine-wide recovery sweep completed *)
  mutable r_restarted_at : int option;
      (** cycle the node was re-admitted cold; [None] for permanent death *)
  r_aborted_txn : bool;
      (** the victim had an open transaction span when it died (the span
          is aborted, not closed — see {!aborted_span_count}) *)
}

val outage_cycles : recovery -> int
(** Crash to restart, or crash to detection when the victim never
    restarts (0 while neither mark has been recorded yet). *)

(** One reading of the machine's live occupancy gauges. *)
type sample = {
  s_time : int;
  s_in_flight_txns : int;  (** nodes with an outstanding transaction *)
  s_delegated_lines : int;  (** producer-table entries machine-wide *)
  s_rac_occupancy : int;  (** valid RAC entries machine-wide *)
  s_event_queue_depth : int;
  s_link_in_flight : int;  (** unacknowledged hub-link packets *)
  s_network_in_flight : int;  (** scheduled, undelivered network packets *)
  s_retransmits : int;  (** cumulative hub-link retransmissions *)
}

val attach : ?sample_every:int -> ?max_samples:int -> System.t -> t
(** Register the recorder's hooks on a freshly created system (before
    running; spans of transactions already in flight are not recovered).
    [sample_every] > 0 also samples the occupancy gauges every that many
    cycles, piggybacking on executed events — never scheduling any — so
    the run still drains and stays bit-identical.  Default 0: no
    sampling.

    The retained series is bounded by [max_samples] (default 4096,
    clamped to at least 2): on hitting the cap the recorder keeps the
    oldest-aligned every-other sample and doubles its cadence, so the
    series is always a uniform grid over the whole run and a
    streaming-scale run ([10^8]+ events) still yields a small artifact. *)

val spans : t -> Span.t list
(** Closed spans, oldest first. *)

val span_count : t -> int

val recoveries : t -> recovery list
(** Recovery spans, oldest first (empty unless the fault profile
    scheduled crashes). *)

val aborted_span_count : t -> int
(** Transaction spans aborted because their node fail-stopped mid-flight.
    Aborted spans are excluded from {!spans} and {!open_span_count}: the
    post-restart re-submission opens a fresh span. *)

val samples : t -> sample list
(** Occupancy samples, oldest first (empty unless [sample_every] > 0).
    At most [max_samples]; see {!attach} for the decimation rule. *)

val open_span_count : t -> int
(** Transactions issued but not yet committed (0 once a run drains). *)

val retransmits_by_link : t -> (Types.node_id * Types.node_id * int) list
(** Cumulative [(src, dst, count)] hub-link retransmission totals. *)
