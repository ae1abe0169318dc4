(** Per-location sequential consistency, checked at every commit (§2.5).

    The paper bridges the gap between the Murphi model and the simulator
    by checking invariants inside the simulator as each transaction
    completes.  This module is the data-value side of that check, and the
    machine's only one: {!Probe.commit} feeds it every committed load and
    store, on every run and every backend, before any subscriber sees the
    commit.

    Store values are drawn from one globally increasing version counter,
    so a line's store order {e is} its version order.  Per line, every
    commit is checked for:

    - {e store serialization}: store versions strictly increase;
    - {e per-node monotonicity}: no node observes an older version after
      a newer one (a node's own stores count as observations);
    - {e window legality}: a load returns a version that was the line's
      newest at some point during the load, i.e. the {e next} store
      committed after the load started; the initial value 0 counts as a
      store committed before time;
    - {e provenance}: a load returns a version some store produced.

    The checks run over a fixed window of each line's newest stores.  A
    blocking processor's load overlaps at most a handful of stores, so a
    legal load never reaches past the window in practice; a version that
    fell out of it reads as unproduced.  Each offending commit counts one
    violation and the first few are kept as reports.  A line's state is
    allocated at its first commit; after that, committing allocates
    nothing on the clean path. *)

type t

val create : nodes:int -> t

val keep_history : t -> unit
(** Also retain every line's full history from now on, for {!linearize}.
    Call it before the run; the oracle's differential replay is the one
    reader. *)

val commit :
  t ->
  node:Types.node_id ->
  kind:Types.op_kind ->
  line:Types.line ->
  value:int ->
  started:int ->
  time:int ->
  unit
(** One committed operation, in commit order: [value] is the version a
    store wrote or a load returned, [started] the cycle the operation was
    submitted and [time] the cycle it committed. *)

val crash : t -> dead:Types.node_id -> surviving:(Types.line -> int) -> unit
(** Fail-stop rollback, once per crash when recovery has rebuilt every
    line from [surviving line], the freshest value still materialized
    anywhere.  The victim's newest stores above that value vanished with
    its caches: they are stripped, so loads of the rebuilt value are not
    stale.  The victim's observations are forgotten (its restarted
    incarnation starts fresh), and every survivor's observed version is
    capped at the surviving value, so re-reading the rolled-back line is
    not a regression.  A survivor's store is never stripped. *)

val commits : t -> int
(** Commits seen so far: the machine's one commit counter. *)

val violations : t -> int

val violation_report : t -> string list
(** The first few violations, oldest first. *)

(** {2 History} *)

(** One operation in a line's extracted serial order. *)
type op =
  | O_store of { node : int; value : int; time : int }
  | O_load of { node : int; value : int; time : int }

val linearize : t -> (Types.line * op list) list
(** Per line: stores in version order, each followed by the loads that
    observed it (by commit time, then node); loads of the initial value
    come first.  A serial order consistent with every check above.
    Requires {!keep_history}. *)

val store_count : t -> Types.line -> int
(** Stores committed to the line, net of crash rollback. *)

val last_store : t -> Types.line -> int
(** Version of the newest store to the line; 0 if never written. *)
