(** Always-on flight recorder: a fixed-size ring of int-packed protocol
    events.

    Every {!System} keeps one of these running from cycle zero, owned by
    its {!Probe}; the record path stores four ints into preallocated
    arrays and allocates nothing, so the recorder can stay on for every
    run (the [test_alloc] budgets enforce this).  The ring is the
    machine's only recent-event window: stall reports and oracle
    failures carry its last events ({!recent}), and when a run ends
    badly — stalled, node crash, uncaught exception, or a checked run
    with any failure — the retained window is dumped atomically as a
    JSON post-mortem, the repository's one failure artifact.
    [pcc_trace --flight] decodes it into a timeline ({!pp_dump}) and a
    Perfetto fragment ({!Pcc_telemetry.Perfetto}); [pcc_oracle --replay]
    re-runs a checked run's dump from its descriptor.  Every tool renders
    events through {!describe}. *)

type t

val create : ?capacity:int -> unit -> t
(** Ring holding the last [capacity] events (rounded up to a power of
    two; default 4096). *)

(** {2 Event kinds}

    Each recorded event is [(time, kind, detail, src, dst, arg, line)]
    packed into four ints.  [kind] says which hook fired; [detail]
    refines it (message class, operation kind, crash phase or note
    code); [line] is the affected line or [-1]. *)

val k_send : int  (** coherence message sent; detail = message class *)

val k_recv : int  (** coherence message delivered; detail = message class *)

val k_retransmit : int  (** hub-link retransmission (no line) *)

val k_issue : int  (** processor op submitted; detail = 0 load / 1 store *)

val k_commit : int
(** processor op committed; detail = 0 load / 1 store, arg = value *)

val k_crash : int  (** fail-stop phase; detail = 0 down / 1 detected / 2 restarted *)

val crash_phase_name : int -> string

val k_note : int  (** protocol decision point; detail = note code below *)

val kind_count : int

val kind_name : int -> string

(** {2 Note codes} (the [detail] of a [k_note] event) *)

val n_timeout : int  (** completion timeout; arg = strikes so far *)

val n_fallback : int  (** line demoted to the base 3-hop protocol *)

val n_delegate : int  (** delegation granted; arg = consumers this epoch *)

val n_delegation_refused : int  (** producer refused the delegation *)

val n_undelegate : int  (** producer gave the line back to its home *)

val n_revoke : int  (** delegation revoked by crash recovery *)

val n_predictor : int
(** predictor consulted on a write; arg = 1 if classified
    producer-consumer *)

val n_dir_state : int
(** directory entry changed state; arg = {!Directory.state_code} *)

val note_name : int -> string

val dstate_name : int -> string

(** {2 Recording (hot path — allocation free)} *)

val record :
  t -> time:int -> kind:int -> detail:int -> src:int -> dst:int -> line:int ->
  arg:int -> unit

val total : t -> int
(** Events ever recorded (may exceed capacity). *)

val capacity : t -> int

(** {2 Decoding} *)

type event = {
  e_time : int;
  e_kind : int;
  e_detail : int;
  e_src : int;
  e_dst : int;
  e_arg : int;
  e_line : int;  (** -1 when the event has no line *)
}

val pack_code : kind:int -> detail:int -> src:int -> dst:int -> int
(** The packed second word of an event, as stored in the ring and in
    dump files. *)

val unpack : time:int -> code:int -> arg:int -> line:int -> event

val events : t -> event list
(** The retained window (last [min total capacity] events), oldest
    first — wrap-around is resolved here. *)

val recent : t -> int -> event list
(** [recent t n]: the last [n] retained events, oldest first (the whole
    window when [n] exceeds it). *)

val describe : event -> string
(** One human-readable line for one event (no timestamp), e.g.
    ["send get-shared 3->0 line 5@0"] or ["dir-state node 0 line 5@0 -> Dele"]. *)

val pp_event : Format.formatter -> event -> unit
(** ["[%8d] %s"] — timestamp column plus {!describe}. *)

val line_name : int -> string
(** A line as ["index@home"], or ["-"] for [-1] (no line). *)

val event_to_json : event -> Pcc_stats.Jsonl.t
(** The [[time, code, arg, line]] int quad a dump stores. *)

val event_of_json : Pcc_stats.Jsonl.t -> event option
(** Inverse of {!event_to_json}; [None] on anything but an int quad. *)

(** {2 Post-mortem dumps}

    A dump is one JSON object on one line.  A machine's own dumps (a
    stall, a crash phase, an uncaught exception) carry the retained
    window and why it was written.  A checked run's dump
    ({!Pcc_oracle.Runner}) adds the run descriptor that rebuilds the run
    and its failure messages, so one file is both the timeline
    [pcc_trace --flight] decodes and the input [pcc_oracle --replay]
    re-runs. *)

type dump = {
  d_reason : string;
  d_time : int;  (** simulation time of the dump *)
  d_nodes : int;
  d_config : string;
  d_recorded : int;  (** events ever recorded *)
  d_capacity : int;
  d_events : event list;  (** retained window, oldest first *)
  d_run : Pcc_stats.Jsonl.t option;
      (** the checked run's descriptor ({!Pcc_oracle.Trace.desc_of_json}) *)
  d_failures : string list;  (** the checked run's failures, in verdict order *)
}

val dump_to_json :
  ?run:Pcc_stats.Jsonl.t -> ?failures:string list -> t -> reason:string -> time:int ->
  nodes:int -> config:string -> Pcc_stats.Jsonl.t
(** [run] and [failures] become fields only when given (non-empty). *)

val dump_of_json : Pcc_stats.Jsonl.t -> (dump, string) result

val write_dump :
  ?run:Pcc_stats.Jsonl.t -> ?failures:string list -> t -> path:string -> reason:string ->
  time:int -> nodes:int -> config:string -> unit
(** Atomic temp+rename write of {!dump_to_json} (one line). *)

val read_dump : string -> (dump, string) result
(** Read and decode a dump file; an [Error] names the file. *)

val pp_dump : Format.formatter -> dump -> unit
(** The timeline [pcc_trace --flight] prints: the reason, the config,
    the checked run's descriptor and failures when present, the window's
    coverage, then every retained event, oldest first, by {!pp_event}. *)
