(** Flight-recorder post-mortem decoding.

    {!Pcc_core.Flight_ring} owns the hot recording path, the raw dump
    format and the one-line event printer; this module loads a dump
    file, renders the retained window as a human-readable timeline, and
    emits a Perfetto fragment so the same window can be inspected next
    to a full [pcc_trace] capture.  Entry point: [pcc_trace --flight FILE]. *)

type dump = Pcc_core.Flight_ring.dump

type event = Pcc_core.Flight_ring.event

val load : string -> (dump, string) result
(** Read and decode a one-line JSON flight dump written by
    {!Pcc_core.System.arm_flight_dump}. *)

val pp_timeline : Format.formatter -> dump -> unit
(** Dump header (reason, config, window coverage) followed by every
    retained event, oldest first, each rendered by
    {!Pcc_core.Flight_ring.pp_event}. *)

val perfetto_json : dump -> Pcc_stats.Jsonl.t
(** The retained window as a Perfetto [traceEvents] object: one instant
    event per flight record on the source node's track (pid 0, tid =
    node id, sim cycles as microseconds — the same conventions as
    {!Perfetto}). *)

val write_perfetto : path:string -> dump -> unit
(** Atomic write of {!perfetto_json} (one line). *)
