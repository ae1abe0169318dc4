(** Per-address coherence-order checking.

    Store values in the simulator are drawn from one globally increasing
    version counter, so for any line the store order {e is} the version
    order.  This module consumes the machine-wide commit stream and
    checks, per line:

    - {e store serialization}: store versions on a line strictly increase;
    - {e per-node monotonicity}: no node observes an older version after a
      newer one (load or own store);
    - {e window legality}: a load may return a version only if that
      version was still the newest at some point during the load's
      lifetime — i.e. the {e next} store committed after the load started.
      A load of the initial value (0) is legal only if the first store
      committed after the load started.

    Violations raise {!Violation}.  With [keep_history] (the default) the
    full per-line history is retained so {!linearize} can extract, for
    each line, a serial order of its operations consistent with every
    check above — the input the differential driver replays through the
    model checker's transition system. *)

open Pcc_core

exception Violation of string

type t

val create : ?keep_history:bool -> unit -> t

val record_store : t -> node:int -> line:Types.line -> value:int -> time:int -> unit

val record_load :
  t -> node:int -> line:Types.line -> value:int -> started:int -> time:int -> unit

val record_commit : t -> Probe.commit_event -> unit
(** {!record_store} or {!record_load}, as the commit says: a
    [System.on_commit] subscriber. *)

val node_crashed : t -> dead:int -> surviving:(Types.line -> int) -> unit
(** Fail-stop recovery: drop the newest run of [dead]'s stores per line
    whose versions exceed [surviving line] (they vanished with its
    caches), forget the victim's own observation history (its restarted
    incarnation starts fresh), and cap every survivor's observed version
    at the surviving value so reading the rolled-back line is not flagged
    as a regression. *)

(** One operation in a line's extracted serial order. *)
type op =
  | O_store of { node : int; value : int; time : int }
  | O_load of { node : int; value : int; time : int }

val linearize : t -> (Types.line * op list) list
(** Per line: stores in version order, each followed by the loads that
    observed it (ordered by commit time, then node); loads of the initial
    value come first.  Requires [keep_history]. *)

val store_count : t -> Types.line -> int

val last_store : t -> Types.line -> int
(** Version of the newest store to the line; 0 if never written. *)

val lines : t -> Types.line list

val total_ops : t -> int
