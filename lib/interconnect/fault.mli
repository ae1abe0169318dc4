(** Seeded chaos/fault injection for the interconnect.

    A fault profile gives each remote packet an independent chance of
    being dropped, duplicated, delayed, or reordered, and can take whole
    links or whole nodes out: transient per-link outages (see {!field:outage})
    and scheduled fail-stop node crashes (see {!type:crash}).  The
    probabilistic layer is driven by its own SplitMix64 stream, so a
    chaotic run is exactly reproducible from [chaos_seed] and fault
    decisions never perturb the protocol RNGs.

    An all-zero profile draws nothing from the RNG and schedules every
    packet exactly as the fault-free network would: the chaos layer is
    bit-identical to no chaos layer when its probabilities are zero.

    A per-packet decision ({!plan}) allocates nothing: it writes its
    arrival offsets into the caller's buffer, keeps one outage clock per
    directed link in an int array, and draws from an unboxed
    {!Pcc_engine.Rng}. *)

type crash = {
  victim : int;  (** node that fail-stops *)
  crash_at : int;  (** simulated cycle at which the node dies *)
  restart_after : int option;
      (** cycles after [crash_at] at which the node rejoins with a cold
          cache and a fresh epoch; [None] means it never restarts *)
}
(** One scheduled fail-stop crash.  Crashes are a {e static} schedule —
    decided when the profile is built, not drawn per packet — so they
    coexist with the zero-probability bit-identity guarantee above. *)

type profile = {
  drop : float;  (** per-packet loss probability *)
  duplicate : float;  (** per-packet duplication probability *)
  delay : float;  (** per-packet chance of an extra delivery delay *)
  delay_max : int;  (** extra delay is uniform in [1, delay_max] cycles *)
  reorder : float;
      (** per-packet chance of jitter large enough to overtake later
          packets on the same link *)
  reorder_window : int;  (** jitter is uniform in [1, reorder_window] *)
  outage : float;
      (** Per-packet chance that sending on an up (src, dst) link starts a
          transient outage on that link; the triggering packet and every
          later packet on the link are lost until the outage ends.  A
          link that just came back is refractory — guaranteed up for at
          least [outage_cycles] — so the retransmit backlog an outage
          creates cannot immediately knock the link back down (duty
          cycle is bounded at 50%).  This field is the single source of
          truth for outage semantics. *)
  outage_cycles : int;  (** outage duration, in cycles *)
  crashes : crash list;  (** fail-stop schedule; [[]] = no node crashes *)
  chaos_seed : int;
}

val zero : profile
(** All probabilities zero: behaviourally identical to no fault layer. *)

val drops : seed:int -> profile
(** Moderate independent packet loss. *)

val storm : seed:int -> profile
(** Loss + duplication + delay + reordering all at once. *)

val outages : seed:int -> profile
(** Light loss plus long transient link outages. *)

val presets : (string * (seed:int -> profile)) list

val preset : string -> seed:int -> (profile, string) result
(** The named preset; [Error] names the offender and lists the
    {!presets}. *)

val crash_schedule :
  seed:int ->
  nodes:int ->
  victims:int ->
  ?window:int * int ->
  ?restart_after:int ->
  unit ->
  crash list
(** Deterministic fail-stop schedule: [victims] distinct nodes (clamped to
    [nodes - 1] so at least one node survives), each crashing at a seeded
    time uniform in [window] (default [6_000, 30_000]) and restarting
    [restart_after] cycles later (never, when omitted).  Pure function of
    its arguments; consumes no per-packet chaos randomness. *)

type stats = {
  mutable dropped : int;  (** packets lost (including outage losses) *)
  mutable duplicated : int;
  mutable delayed : int;  (** packets given extra delay or jitter *)
  mutable outages_started : int;
}

type t

val create : nodes:int -> profile -> t
(** Fault state for a [nodes]-node machine: the profile's RNG stream and
    one outage clock per directed link. *)

val stats : t -> stats

val max_copies : int
(** Most arrivals {!plan} ever writes for one packet (2: a duplicate). *)

val plan : t -> src:int -> dst:int -> now:int -> int array -> int
(** Fault decision for one packet.  [plan t ~src ~dst ~now arrivals]
    writes into [arrivals.(0 .. n-1)] the extra delays (in cycles,
    relative to the undisturbed arrival time) at which copies of the
    packet should be delivered, and returns [n]: [0] means the packet is
    lost, [1] with offset [0] means undisturbed delivery, and [2] means
    duplication.  [arrivals] must hold at least {!max_copies} slots; it
    is the caller's buffer, so a decision allocates nothing (outage
    clocks live in an int array indexed by [src * nodes + dst], so
    [src] and [dst] must be nodes of the machine given to {!create}). *)
