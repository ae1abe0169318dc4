(** Unified metrics registry.

    One labeled namespace for every counter, gauge and latency summary
    the tools expose, with two deterministic renderings: a JSON snapshot
    and an OpenMetrics text exposition.  All five CLIs accept
    [--metrics FILE] and write one of the two (chosen by file
    extension), so any run — simulation, parameter sweep, checked
    sweep (chaos campaigns included), model check — leaves a
    machine-readable scrape behind.

    Determinism contract: exports are sorted by (name, labels) and every
    bridge below derives its numbers from run results collected on the
    submitting domain, so a [--jobs N] run writes a byte-identical file
    to the same run at [--jobs 1] (CI diffs this).

    Naming: metrics carry a [pcc_] prefix; counters gain the OpenMetrics
    [_total] suffix in text exposition only.  Re-adding a counter sums
    (so per-run bridges aggregate naturally across a sweep); gauges and
    summaries overwrite.  A name is bound to one metric type; mixing
    types under one name raises [Invalid_argument]. *)

type t

type summary = {
  s_count : int;
  s_sum : int;
  s_p50 : float;
  s_p95 : float;
  s_p99 : float;
}

type value = Counter of int | Gauge of int | Summary of summary

val create : unit -> t

(** {2 Raw registration} *)

val counter : t -> ?labels:(string * string) list -> string -> int -> unit
(** Add to the named counter (created at 0). *)

val gauge : t -> ?labels:(string * string) list -> string -> int -> unit
(** Set the named gauge (last write wins). *)

val summary :
  t -> ?labels:(string * string) list -> string -> Pcc_stats.Histogram.t -> unit
(** Snapshot a histogram as count/sum/p50/p95/p99 (last write wins). *)

val items : t -> (string * (string * string) list * value) list
(** Registry contents sorted by (name, labels) — the export order. *)

(** {2 Bridges from the instrumented subsystems} *)

val add_run_stats : ?summaries:bool -> t -> Pcc_core.Run_stats.t -> unit
(** Register every {!Pcc_core.Run_stats} counter, the per-class message
    counters ([pcc_messages{class=...}]), and — when [summaries] (default
    [true]) — the per-miss-class latency summaries and the
    consumers-per-epoch summary.  Aggregating CLIs that fold many runs
    into one registry pass [~summaries:false] (counters sum; summaries
    would just keep the last run). *)

val add_result : ?summaries:bool -> t -> Pcc_core.System.result -> unit
(** {!add_run_stats} on the result's stats plus the run-level counters:
    cycles, network messages/bytes, violations, invariant errors, update
    economics and the RAC / delegate-cache pressure counters. *)

val add_system : t -> Pcc_core.System.t -> unit
(** Point-in-time gauges from a live (normally quiesced) system: the
    occupancy sampler set ({!Pcc_core.System.in_flight_txns} etc.),
    simulator totals ([pcc_sim_events_executed], [pcc_sim_peak_pending])
    and the per-link retransmit counters
    ([pcc_link_retransmits{src=...,dst=...}]). *)

val add_pool : t -> unit
(** Process-wide {!Pcc_parallel.Pool.stats} job accounting
    ([pcc_pool_jobs_completed] / [_failed] / [_attempts]). *)

(** {2 Exports} *)

val to_json : t -> Pcc_stats.Jsonl.t
(** [{"kind":"pcc-metrics","version":1,"metrics":[...]}], metrics sorted
    by (name, labels). *)

val to_openmetrics : t -> string
(** OpenMetrics text exposition ending with [# EOF]. *)

val write : t -> path:string -> unit
(** Atomic write: [*.json] gets the JSON snapshot (one line), anything
    else the OpenMetrics text. *)
