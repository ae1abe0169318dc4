(** Chrome trace-event ("Perfetto") export: the one module that knows
    the format.

    Produces the JSON object format ([{"traceEvents": [...]}]) that
    [ui.perfetto.dev] and [chrome://tracing] load directly, written
    atomically as one line.  Each node gets one track (pid 0, tid = node
    id), and timestamps are simulation cycles presented as trace
    microseconds, so a flight-recorder window lines up under a full span
    capture.

    Spans: a complete ("X") slice per phase segment on the requester's
    track, plus an async begin/end ("b"/"e") pair per transaction keyed
    by its line address, so all traffic on one cache line lines up on a
    single async track. *)

val json_of_spans : ?recoveries:Recorder.recovery list -> Span.t list -> Pcc_stats.Jsonl.t
(** [recoveries] additionally renders each fail-stop crash as a
    "crash-outage" slice on the victim's track (crash to restart, or to
    detection for permanent death) plus a "recovery-sweep" instant
    marker at detection time.  Default: none. *)

val write : ?recoveries:Recorder.recovery list -> path:string -> Span.t list -> unit
(** Write the trace JSON (one line + newline) to [path]. *)

val json_of_flight : Pcc_core.Flight_ring.dump -> Pcc_stats.Jsonl.t
(** A flight-recorder window: one instant event per record on the source
    node's track; [otherData] carries the dump's reason and config. *)

val write_flight : path:string -> Pcc_core.Flight_ring.dump -> unit
(** Write {!json_of_flight} (one line + newline) to [path]. *)
