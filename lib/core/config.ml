type fault = Stale_update_no_resharing | Snoop_upgr_skips_invals

type t = {
  nodes : int;
  protocol : Types.protocol;
  l2_bytes : int;
  l2_ways : int;
  l2_hit_latency : int;
  line_bytes : int;
  rac_enabled : bool;
  rac_bytes : int;
  rac_ways : int;
  rac_hit_latency : int;
  dir_cache_entries : int;
  dir_cache_ways : int;
  dir_hit_latency : int;
  dir_miss_latency : int;
  dram_latency : int;
  delegation_enabled : bool;
  delegate_entries : int;
  delegate_ways : int;
  speculative_updates : bool;
  intervention_delay : int;
  adaptive_intervention : bool;
  write_repeat_threshold : int;
  reader_count_bits : int;
  hub_latency : int;
  nack_retry_delay : int;
  barrier_latency : int;
  network : Pcc_interconnect.Network.config;
  net_faults : Pcc_interconnect.Fault.profile option;
  link_rto : int;
  link_rto_cap : int;
  txn_timeout : int;
  txn_timeout_cap : int;
  fallback_threshold : int;
  crash_detect_delay : int;
  watchdog_interval : int;
  watchdog_checks : int;
  seed : int;
  inject_fault : fault option;
}

let kib n = n * 1024

let mib n = n * 1024 * 1024

let base ?(nodes = 16) () =
  {
    nodes;
    protocol = Types.Adaptive;
    l2_bytes = mib 2;
    l2_ways = 4;
    l2_hit_latency = 10;
    line_bytes = Pcc_memory.Address.line_size;
    rac_enabled = false;
    rac_bytes = kib 32;
    rac_ways = 4;
    rac_hit_latency = 30;
    dir_cache_entries = 8192;
    dir_cache_ways = 4;
    dir_hit_latency = 8;
    dir_miss_latency = 60;
    dram_latency = 200;
    delegation_enabled = false;
    delegate_entries = 32;
    delegate_ways = 4;
    speculative_updates = false;
    intervention_delay = 50;
    adaptive_intervention = false;
    write_repeat_threshold = 3;
    reader_count_bits = 2;
    hub_latency = 4;
    nack_retry_delay = 50;
    barrier_latency = 200;
    network = Pcc_interconnect.Network.default_config;
    net_faults = None;
    link_rto = 500;
    link_rto_cap = 8_000;
    txn_timeout = 5_000;
    txn_timeout_cap = 80_000;
    fallback_threshold = 3;
    crash_detect_delay = 1_500;
    watchdog_interval = 100_000;
    watchdog_checks = 10;
    seed = 42;
    inject_fault = None;
  }

let rac_only ?nodes ?(rac_bytes = kib 32) () =
  { (base ?nodes ()) with rac_enabled = true; rac_bytes }

let delegation_only ?nodes ?(rac_bytes = kib 32) ?(delegate_entries = 32) () =
  {
    (base ?nodes ()) with
    rac_enabled = true;
    rac_bytes;
    delegation_enabled = true;
    delegate_entries;
    speculative_updates = false;
  }

let full ?nodes ?(rac_bytes = kib 32) ?(delegate_entries = 32) () =
  {
    (base ?nodes ()) with
    rac_enabled = true;
    rac_bytes;
    delegation_enabled = true;
    delegate_entries;
    speculative_updates = true;
  }

let small_full ?nodes () = full ?nodes ~rac_bytes:(kib 32) ~delegate_entries:32 ()

(* A snooping machine: the adaptive extensions are inert, so disable them
   to keep [describe] honest about what the run exercised. *)
let snoop ?nodes protocol () =
  assert (protocol <> Types.Adaptive);
  { (base ?nodes ()) with protocol }

let large_full ?nodes () = full ?nodes ~rac_bytes:(mib 1) ~delegate_entries:1024 ()

let machines =
  [
    ("base", fun nodes -> base ~nodes ());
    ("rac", fun nodes -> rac_only ~nodes ());
    ("delegation", fun nodes -> delegation_only ~nodes ());
    ("small", fun nodes -> small_full ~nodes ());
    ("full", fun nodes -> small_full ~nodes ());
    ("large", fun nodes -> large_full ~nodes ());
    ( "adaptive",
      fun nodes -> { (small_full ~nodes ()) with adaptive_intervention = true } );
    ("msi", fun nodes -> snoop ~nodes Types.Msi ());
    ("mesi", fun nodes -> snoop ~nodes Types.Mesi ());
  ]

let names = List.map fst machines

let of_name ~nodes name =
  match List.assoc_opt name machines with
  | Some make -> Ok (make nodes)
  | None ->
      Error
        (Printf.sprintf "unknown machine %S; valid machines: %s" name
           (String.concat ", " names))

let with_hop_latency t hop_latency = { t with network = { t.network with hop_latency } }

let with_faults t profile = { t with net_faults = Some profile }

let hardened t = t.net_faults <> None

let crash_capable t =
  match t.net_faults with
  | Some p -> p.Pcc_interconnect.Fault.crashes <> []
  | None -> false

let l2_lines t = t.l2_bytes / t.line_bytes

let rac_lines t = t.rac_bytes / t.line_bytes

let size_label bytes =
  if bytes >= mib 1 && bytes mod mib 1 = 0 then Printf.sprintf "%dM" (bytes / mib 1)
  else Printf.sprintf "%dK" (bytes / kib 1)

let describe t =
  match t.protocol with
  | Types.Msi -> "MSI snoop"
  | Types.Mesi -> "MESI snoop"
  | Types.Adaptive ->
  if not t.rac_enabled then "Base"
  else if not t.delegation_enabled then Printf.sprintf "%s RAC" (size_label t.rac_bytes)
  else
    Printf.sprintf "%d-entry deledc & %s RAC%s" t.delegate_entries (size_label t.rac_bytes)
      (if t.speculative_updates then "" else " (no updates)")

let table1 =
  [
    ("Processor", "4-issue, 48-entry active list, 2GHz");
    ("L1 I-cache", "2-way, 32KB, 64B lines, 1-cycle lat.");
    ("L1 D-cache", "2-way, 32KB, 32B lines, 2-cycle lat.");
    ("L2 cache", "4-way, 2MB, 128B lines, 10-cycle lat.");
    ("System bus", "16B CPU to system, 8B system to CPU");
    ("Hub clock", "1GHz, max 16 outstanding L2C misses");
    ("DRAM", "4 16-byte-data DDR channels, 200 cycles");
    ("Network", "100 processor cycles latency per hop");
  ]
