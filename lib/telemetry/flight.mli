(** Flight-recorder post-mortem decoding.

    {!Pcc_core.Flight_ring} owns the hot recording path, the raw dump
    format and the one-line event printer; this module loads a dump
    file and renders the retained window as a human-readable timeline
    ({!Perfetto.write_flight} renders it for the trace viewer).  Entry
    point: [pcc_trace --flight FILE]. *)

type dump = Pcc_core.Flight_ring.dump

type event = Pcc_core.Flight_ring.event

val load : string -> (dump, string) result
(** Read and decode a one-line JSON flight dump written by
    {!Pcc_core.System.arm_flight_dump}. *)

val pp_timeline : Format.formatter -> dump -> unit
(** Dump header (reason, config, window coverage) followed by every
    retained event, oldest first, each rendered by
    {!Pcc_core.Flight_ring.pp_event}. *)
