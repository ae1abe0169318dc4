(** Machine configuration.

    Field defaults follow Table 1 of the paper: 2 GHz 4-issue processors,
    2 MB 4-way L2 with 128-byte lines and 10-cycle latency, 200-cycle DRAM,
    100-cycle network hops, a 1 GHz hub.  The protocol-extension fields
    (RAC, delegation, speculative updates) correspond to the machine
    variants evaluated in §3. *)

type fault =
  | Stale_update_no_resharing
      (** pushed consumers are not re-added to the producer's sharing
          vector, so the next upgrade skips their invalidations and a
          stale pushed copy survives — the simulator twin of the model
          checker's [Updates_without_resharing] bug, used to prove the
          runtime oracle detects real protocol errors *)
  | Snoop_upgr_skips_invals
      (** snoopers ignore BUS_UPGR commands, so an S->M upgrade leaves
          stale shared copies alive — a mutation of the {!Mesi} table,
          so the snooping backend and its model checker plant one
          definition; used to prove the litmus harness and the checker
          detect a broken bus protocol *)

type t = {
  nodes : int;
  protocol : Types.protocol;
      (** which backend {!Pcc_core.System.create} instantiates; the
          adaptive-extension fields below only apply to [Adaptive] *)
  (* Processor-side caches *)
  l2_bytes : int;
  l2_ways : int;
  l2_hit_latency : int;
  line_bytes : int;
  (* Remote access cache (§2.1) *)
  rac_enabled : bool;
  rac_bytes : int;
  rac_ways : int;
  rac_hit_latency : int;  (** a "local miss": hub + RAC lookup *)
  (* Directory *)
  dir_cache_entries : int;
  dir_cache_ways : int;
  dir_hit_latency : int;  (** directory-cache hit processing, cycles *)
  dir_miss_latency : int;  (** fetch directory entry from memory *)
  dram_latency : int;
  (* Delegation (§2.3) *)
  delegation_enabled : bool;
  delegate_entries : int;  (** producer- and consumer-table entries each *)
  delegate_ways : int;
  (* Speculative updates (§2.4) *)
  speculative_updates : bool;
  intervention_delay : int;  (** cycles between write grant and downgrade *)
  adaptive_intervention : bool;
      (** §5 future work: instead of the fixed delay, track each delegated
          line's write-burst span (EWMA) and downgrade shortly after the
          observed burst length *)
  (* Predictor (§2.2) *)
  write_repeat_threshold : int;  (** 2-bit saturating counter: saturates at 3 *)
  (* Miscellaneous protocol timing *)
  hub_latency : int;  (** per-message hub processing *)
  nack_retry_delay : int;
  barrier_latency : int;
  (* Interconnect *)
  network : Pcc_interconnect.Network.config;
  (* Fault injection and recovery (robustness layer) *)
  net_faults : Pcc_interconnect.Fault.profile option;
      (** chaos profile for the interconnect (default [None] = reliable
          network).  Setting it also arms the hub link layer, transaction
          timeouts, and the progress watchdog — see {!hardened}. *)
  link_rto : int;
      (** initial hub-link retransmission timeout, cycles *)
  link_rto_cap : int;
      (** ceiling for the link layer's exponential backoff *)
  txn_timeout : int;
      (** cycles a pending transaction may sit without completing before
          the node re-attempts it and records a strike against the line
          (0 disables; only armed when {!hardened}) *)
  fallback_threshold : int;
      (** timeout strikes against a line before the node gives up on the
          optimized path for it: the line is undelegated, speculative
          updates are disabled, and future delegation requests are
          refused — falling back to the verified base 3-hop protocol *)
  seed : int;
  inject_fault : fault option;
      (** deliberately break the protocol (test-only, default [None]) *)
}

val base : ?nodes:int -> unit -> t
(** The baseline CC-NUMA system: no RAC, no delegation, no updates. *)

val rac_only : ?nodes:int -> ?rac_bytes:int -> unit -> t
(** Baseline plus a RAC used purely as a remote-data victim cache. *)

val delegation_only : ?nodes:int -> ?rac_bytes:int -> ?delegate_entries:int -> unit -> t
(** Delegation without speculative updates (§3.2 ablation). *)

val full : ?nodes:int -> ?rac_bytes:int -> ?delegate_entries:int -> unit -> t
(** Delegation + speculative updates.  Defaults to the small configuration
    (32-entry delegate tables, 32 KB RAC). *)

val small_full : ?nodes:int -> unit -> t
(** 32-entry delegate tables + 32 KB RAC, delegation + updates. *)

val snoop : ?nodes:int -> Types.protocol -> unit -> t
(** A bus-snooping machine ([Msi] or [Mesi]; [Adaptive] is rejected).
    Baseline timing parameters, adaptive extensions off. *)

val large_full : ?nodes:int -> unit -> t
(** 1K-entry delegate tables + 1 MB RAC, delegation + updates. *)

val names : string list
(** Every machine name {!of_name} accepts, in a fixed order. *)

val of_name : nodes:int -> string -> (t, string) result
(** The machine a CLI flag or an oracle artifact names: ["base"],
    ["rac"], ["delegation"], ["small"] or ["full"] (32-entry delegate
    tables + 32 KB RAC), ["large"], ["adaptive"] ([full] with the §5
    adaptive intervention delay), or a snooping backend (["msi"],
    ["mesi"]).  [Error] names the offender and lists {!names}. *)

val with_hop_latency : t -> int -> t
(** Functional update of the network hop latency (Fig. 10 sweeps). *)

val with_faults : t -> Pcc_interconnect.Fault.profile -> t
(** Enable interconnect fault injection with the given chaos profile
    (and with it the recovery machinery — see {!hardened}). *)

val hardened : t -> bool
(** True when a fault profile is configured: the hub link layer runs in
    reliable (seq/ack/retransmit) mode, transaction timeouts are armed,
    and {!Pcc_core.System.create} installs the progress watchdog. *)

val crash_capable : t -> bool
(** True when the fault profile schedules fail-stop node crashes.  Implies
    {!hardened}; additionally arms epoch-stamped packet filtering, the
    crash-recovery value escapes (transfer acks carry data, producers
    write their pushed value home on downgrade), and the directory
    recovery sweep. *)

val l2_lines : t -> int

val rac_lines : t -> int

val describe : t -> string
(** Short label such as "32-entry deledc & 32K RAC". *)

val table1 : (string * string) list
(** The system-configuration rows of Table 1, for report headers. *)
