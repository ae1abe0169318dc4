(** Umbrella module: the stable public API of the library.

    {[
      let programs = Pcc.Workloads.(programs em3d) ~nodes:16 () in
      let result = Pcc.System.run ~config:(Pcc.Config.full ~nodes:16 ()) ~programs () in
      Format.printf "%a@." Pcc.System.pp_result result
    ]}

    (The example above is pinned as [examples/facade_example.ml], so
    facade drift fails the build.) *)

(** Machine configurations (Table 1 + the evaluated variants). *)
module Config = Pcc_core.Config

(** Whole-machine simulation: build, run, measure. *)
module System = Pcc_core.System

(** The per-location SC checker every commit feeds (§2.5). *)
module Sc_check = Pcc_core.Sc_check

(** Pluggable coherence backends: the interface every state machine
    implements, plus backend-name parsing for CLIs. *)
module Protocol = Pcc_core.Protocol

(** Bus-snooping MSI/MESI backend. *)
module Snoop = Pcc_core.Snoop

(** Memory operations, line layout, miss classification. *)
module Types = Pcc_core.Types

(** Per-run statistics. *)
module Run_stats = Pcc_core.Run_stats

(** Canonical machine-readable encoding of run results; the encoding the
    determinism tests and CI byte-diff jobs pin. *)
module Run_export = Pcc_core.Run_export

(** Individual node inspection (tests, tools). *)
module Node = Pcc_core.Node

(** Sharing-vector sets. *)
module Nodeset = Pcc_core.Nodeset

(** Protocol messages (for traces). *)
module Message = Pcc_core.Message

(** The always-on flight recorder: int-packed recent protocol events and
    the one printer every tool renders them with. *)
module Flight_ring = Pcc_core.Flight_ring

(** The producer-consumer sharing detector (§2.2). *)
module Predictor = Pcc_core.Predictor

(** SRAM overhead model (§3.3.1). *)
module Hw_cost = Pcc_core.Hw_cost

(** Reliable per-link sequencing/retransmission layer between node and
    interconnect (hardened mode). *)
module Hub_link = Pcc_core.Hub_link

(** Analytical speedup model (§5). *)
module Analytic = Pcc_core.Analytic

(** Named monotone counters (protocol event accounting). *)
module Counter = Pcc_stats.Counter

(** Exact integer-valued histograms (latency distributions). *)
module Histogram = Pcc_stats.Histogram

(** Fixed-width text tables for CLI reports. *)
module Table = Pcc_stats.Table

(** Minimal JSON encoding used by every machine-readable artifact. *)
module Jsonl = Pcc_stats.Jsonl

(** Crash-safe artifact writes (temp file + atomic rename). *)
module Atomic_file = Pcc_stats.Atomic_file

(** Scalar summaries (geometric mean and friends). *)
module Summary = Pcc_stats.Summary

(** Discrete-event simulation core. *)
module Simulator = Pcc_engine.Simulator

(** Deterministic SplitMix64 random streams. *)
module Rng = Pcc_engine.Rng

(** Seeded fault injection for the interconnect (drops, duplicates,
    delays, reorders, outages). *)
module Fault = Pcc_interconnect.Fault

(** The seven evaluation workloads (Table 2) and their generators. *)
module Workloads = Pcc_workload.Apps

(** First-class workloads: the streaming interface every workload
    implements, and the registry behind the [--workload] spec
    grammar. *)
module Workload = Pcc_workload.Workload

(** Streaming datacenter-shaped workload generators (sharded KV,
    pub/sub fan-out, work stealing, MPSC log ingestion). *)
module Dcgen = Pcc_workload.Dcgen

(** Compact binary program traces: atomic writer, seekable chunked
    streaming reader, record/replay. *)
module Btrace = Pcc_workload.Btrace

(** Packed streaming operation feeds (the input side of
    {!System.run_stream}). *)
module Op_stream = Pcc_core.Op_stream

(** Build-your-own workload machinery. *)
module Workload_gen = Pcc_workload.Gen

(** Explicit-state model checker (§2.5). *)
module Checker = Pcc_mcheck.Checker

(** Abstract protocol model for verification. *)
module Protocol_model = Pcc_mcheck.Protocol_model

(** Abstract atomic-bus model of the snooping backends. *)
module Snoop_model = Pcc_mcheck.Snoop_model

(** The litmus corpus: per-location SC tests, run as [litmus:test=ID]
    workloads and judged by [Oracle.Runner]. *)
module Litmus = Pcc_workload.Litmus

(** Online coherence oracle: per-event invariant auditing, per-address
    order checking, differential replay through the model checker. *)
module Oracle = Pcc_oracle

(** Transaction-level telemetry: coherence spans, Perfetto export,
    occupancy sampling, latency/phase reports. *)
module Telemetry = Pcc_telemetry

(** Fixed-size domain pool running independent jobs with
    submission-order (bit-identical) results. *)
module Pool = Pcc_parallel.Pool
