(* Allocation-regression gate for the simulator hot path.

   The hot-path work (bench/micro.ml) holds minor-heap allocation to a
   few hundred words per committed processor operation; an accidental
   closure, boxed option, or list append in the event loop shows up here
   as an order-of-magnitude jump.  Budgets are deliberately loose (~2x
   the measured value) so they only trip on real regressions, never on
   GC accounting noise. *)

open Pcc_core

let nodes = 8

let programs () = Pcc_workload.Apps.(programs em3d) ~scale:0.1 ~nodes ()

let words_per_commit config =
  let sys = System.create ~config () in
  let commits = ref 0 in
  System.on_commit sys (fun _ -> incr commits);
  Gc.full_major ();
  let before = Gc.minor_words () in
  let (_ : System.result) = System.run_programs sys (programs ()) in
  let words = Gc.minor_words () -. before in
  (words /. float_of_int (max 1 !commits), !commits)

let check name budget config () =
  let per_commit, commits = words_per_commit config in
  if commits < 100 then
    Alcotest.failf "%s: only %d commits — workload too small to measure" name commits;
  if per_commit > budget then
    Alcotest.failf
      "%s: %.1f minor words per committed op exceeds the %.0f-word budget — a hot-path \
       change added allocation"
      name per_commit budget

(* The model checker's per-state cost: canonical encoding (a symmetry
   orbit walk) plus successor generation plus dedup bookkeeping.  Holding
   this to a budget keeps the 10x-scale explorations (multi-line, 4-5
   nodes) feasible. *)
let checker_words_per_state () =
  let params =
    { Pcc_mcheck.Protocol_model.default_params with nodes = 3; max_ops_per_node = 1 }
  in
  let (module M) = Pcc_mcheck.Protocol_model.make params in
  Gc.full_major ();
  let before = Gc.minor_words () in
  match Pcc_mcheck.Checker.run (module M) () with
  | Pcc_mcheck.Checker.Ok stats ->
      let words = Gc.minor_words () -. before in
      ( words /. float_of_int (max 1 stats.Pcc_mcheck.Checker.states_explored),
        stats.Pcc_mcheck.Checker.states_explored )
  | _ -> Alcotest.fail "checker baseline must verify clean"

let check_checker budget () =
  let per_state, states = checker_words_per_state () in
  if states < 1000 then
    Alcotest.failf "checker: only %d states — model too small to measure" states;
  if per_state > budget then
    Alcotest.failf
      "checker: %.0f minor words per explored state exceeds the %.0f-word budget — \
       canonicalization or expansion added allocation"
      per_state budget

(* The model checker's memory per explored state, at the benchmark's
   bound: the heap's high-water mark during the run, as the alarm at
   the end of each major cycle and the heap right after the run see
   it, less the heap before.  Flat digests, int parent edges and
   packed frontier states hold this at ~43 words/state; two hash
   tables of boxed digests and edges plus a boxed frontier took 96–105. *)
let checker_peak_words_per_state () =
  let (module M) = Pcc_mcheck.Protocol_model.make Pcc_mcheck.Protocol_model.default_params in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.heap_words in
  let peak = ref before in
  let note () = peak := max !peak (Gc.quick_stat ()).Gc.heap_words in
  let alarm = Gc.create_alarm note in
  let outcome = Pcc_mcheck.Checker.run (module M) ~max_states:30_000 () in
  note ();
  Gc.delete_alarm alarm;
  match outcome with
  | Pcc_mcheck.Checker.Ok stats ->
      let states = stats.Pcc_mcheck.Checker.states_explored in
      (float_of_int (!peak - before) /. float_of_int states, states)
  | _ -> Alcotest.fail "checker baseline must verify clean"

let check_checker_memory budget () =
  let per_state, states = checker_peak_words_per_state () in
  if states < 30_000 then
    Alcotest.failf "checker: only %d states — bound not reached" states;
  if per_state > budget then
    Alcotest.failf
      "checker: peak heap of %.1f words per explored state exceeds the %.0f-word \
       budget — the visited set or the frontier went back to boxed storage"
      per_state budget

(* The flight recorder's whole value proposition is that it can stay on
   for every run: the record path must store its four ints and touch the
   minor heap not at all.  The tiny slack absorbs Gc accounting, not
   per-event allocation (100k events would turn one boxed word into
   100k). *)
let check_flight_record () =
  let ring = Flight_ring.create ~capacity:1024 () in
  let events = 100_000 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for i = 0 to events - 1 do
    Flight_ring.record ring ~time:i ~kind:Flight_ring.k_send ~detail:(i land 0xff)
      ~src:(i land 7)
      ~dst:((i + 1) land 7)
      ~line:i ~arg:(2 * i)
  done;
  let words = Gc.minor_words () -. before in
  if words > 256.0 then
    Alcotest.failf
      "flight record path allocated %.0f minor words over %d events — the \
       always-on recorder must stay allocation-free"
      words events

(* Every fault decision and every random-replacement victim draws from
   [Rng]: a draw must keep the 64-bit SplitMix64 state unboxed, or each
   one leaves a boxed [Int64] behind (3 words per draw). *)
let check_rng_draws () =
  let rng = Pcc_engine.Rng.create ~seed:5 in
  let draws = 1_000_000 in
  let hits = ref 0 and sum = ref 0 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for _ = 1 to draws do
    if Pcc_engine.Rng.bool rng ~p:0.3 then incr hits;
    sum := !sum + Pcc_engine.Rng.int rng ~bound:17
  done;
  let words = Gc.minor_words () -. before in
  if !hits = 0 || !sum = 0 then Alcotest.fail "rng draws degenerate";
  if words > 256.0 then
    Alcotest.failf
      "Rng.bool/Rng.int allocated %.0f minor words over %d draws of each — the \
       generator state must stay unboxed"
      words draws

(* The fault planner runs once per remote packet on a chaotic network: it
   must write its arrival offsets into the caller's buffer and key link
   outages by an int, touching the minor heap not at all. *)
let check_fault_plan () =
  let module Fault = Pcc_interconnect.Fault in
  let nodes = 8 in
  let faults = Fault.create ~nodes (Fault.storm ~seed:3) in
  let outages = Fault.create ~nodes (Fault.outages ~seed:3) in
  let buf = Array.make Fault.max_copies 0 in
  let packets = 200_000 in
  let copies = ref 0 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for i = 0 to packets - 1 do
    let src = i land 7 and dst = (i lsr 3) land 7 in
    copies := !copies + Fault.plan faults ~src ~dst ~now:(4 * i) buf;
    copies := !copies + Fault.plan outages ~src ~dst ~now:(4 * i) buf
  done;
  let words = Gc.minor_words () -. before in
  if !copies = 0 then Alcotest.fail "fault planner delivered nothing";
  if (Fault.stats outages).Fault.outages_started = 0 then
    Alcotest.fail "outage profile never took a link down";
  if words > 256.0 then
    Alcotest.failf
      "Fault.plan allocated %.0f minor words over %d packets — the per-packet \
       fault decision must stay allocation-free"
      words (2 * packets)

(* Every commit of every run passes through the machine's SC checker: once
   a line's state exists, checking a store, a load in flight across it
   and a load of the newest version must touch the minor heap not at
   all. *)
let check_sc_checker () =
  let lines = 256 in
  let c = Sc_check.create ~nodes:8 in
  let version = ref 0 and time = ref 0 in
  let newest = Array.make lines 0 in
  let round line =
    let reader = 4 + (line land 3) in
    time := !time + 3;
    incr version;
    let older = newest.(line) in
    newest.(line) <- !version;
    Sc_check.commit c ~node:(!version land 3) ~kind:Types.Store ~line ~value:!version
      ~started:(!time - 10) ~time:!time;
    Sc_check.commit c ~node:reader ~kind:Types.Load ~line ~value:older
      ~started:(!time - 1) ~time:(!time + 1);
    Sc_check.commit c ~node:reader ~kind:Types.Load ~line ~value:!version
      ~started:(!time + 1) ~time:(!time + 2)
  in
  for line = 0 to lines - 1 do
    round line
  done;
  let rounds = 40_000 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for i = 0 to rounds - 1 do
    round (i mod lines)
  done;
  let words = Gc.minor_words () -. before in
  if Sc_check.violations c <> 0 then
    Alcotest.failf "legal history flagged: %s"
      (String.concat "; " (Sc_check.violation_report c));
  if words > 256.0 then
    Alcotest.failf
      "the SC checker allocated %.0f minor words over %d commits — checking a \
       commit must stay allocation-free"
      words (3 * rounds)

(* The adaptive protocol's invariants run on every line the auditor
   marks, every line at drain and every model state: checking a clean
   line must touch the minor heap not at all, whether the simulator or
   the model filled its view. *)
let rec model_holds st = function
  | [] -> true
  | (_, holds) :: rest -> holds st && model_holds st rest

let rec clean_views = function
  | [] -> true
  | v :: rest ->
      Dir_invariants.violations Dir_invariants.Quiescent v = []
      && Dir_invariants.violations Dir_invariants.Event_boundary v = []
      && clean_views rest

let check_dir_invariants () =
  let sys = System.create ~config:(Config.small_full ~nodes ()) () in
  let (_ : System.result) = System.run_programs sys (programs ()) in
  let machine = System.nodes sys in
  let views = ref [] in
  Node.iter_lines machine (fun line ->
      let v = Dir_invariants.create nodes in
      Node.line_view machine line v;
      views := v :: !views);
  let module Step = Pcc_mcheck.Protocol_model.Step in
  let params =
    { Pcc_mcheck.Protocol_model.default_params with nodes = 3; max_ops_per_node = 1 }
  in
  (* the first 3,000 states of a breadth-first walk, repeats included *)
  let queue = Queue.create () in
  Queue.add (Step.initial params) queue;
  let states =
    Array.init 3_000 (fun _ ->
        let st = Queue.pop queue in
        List.iter (fun (_, next) -> Queue.add next queue) (Step.successors params st);
        st)
  in
  let rounds = 20 in
  let clean = ref true in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    clean := !clean && clean_views !views;
    for i = 0 to Array.length states - 1 do
      clean := !clean && model_holds states.(i) Step.invariants
    done
  done;
  let words = Gc.minor_words () -. before in
  if not !clean then Alcotest.fail "a clean line or model state broke an invariant";
  if List.length !views < 100 then Alcotest.fail "too few lines to measure";
  if words > 256.0 then
    Alcotest.failf
      "checking %d simulator lines and %d model states %d times allocated %.0f minor \
       words — a clean invariant check must stay allocation-free"
      (List.length !views) (Array.length states) rounds words

(* Every L2, RAC, directory-cache and producer-table probe goes through
   [Cache]'s LRU ways: a hit, a peek, an overwrite of the resident
   payload, a removal and the re-insert that refills the freed way must
   touch the minor heap not at all once every way has held a key. *)
let check_cache_probes () =
  let module Cache = Pcc_memory.Cache in
  let keys = 256 in
  let c = Cache.create ~sets:256 ~ways:8 () in
  let payloads = Array.init keys (fun k -> ref k) in
  let round () =
    for k = 0 to keys - 1 do
      ignore (Cache.insert c k payloads.(k));
      ignore (Cache.find c k);
      ignore (Cache.peek c k);
      ignore (Cache.insert c k payloads.(k));
      ignore (Cache.remove c k);
      ignore (Cache.insert c k payloads.(k))
    done
  in
  round ();
  if Cache.size c <> keys then Alcotest.fail "the keys do not all fit";
  let rounds = 2_000 in
  let hits = ref 0 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ();
    for k = 0 to keys - 1 do
      match Cache.find c k with Some p when p == payloads.(k) -> incr hits | _ -> ()
    done
  done;
  let words = Gc.minor_words () -. before in
  if !hits <> rounds * keys then Alcotest.fail "a resident key went missing";
  if words > 256.0 then
    Alcotest.failf
      "Cache find/peek/remove/insert on resident keys allocated %.0f minor words over \
       %d probes — a cache probe must stay allocation-free"
      words (7 * rounds * keys)

(* The hub link wraps no record around a payload: a round of send ->
   deliver (-> ack, on a reliable link) between two hubs, pass-through
   or reliable, must touch the minor heap not at all.  The two hubs
   ping-pong one payload; a reliable round also arms a retransmit timer
   that fires after the ack and finds nothing to resend. *)
let check_hub_link ~reliable () =
  let module Network = Pcc_interconnect.Network in
  let module Sim = Pcc_engine.Simulator in
  let sim = Sim.create () in
  let net =
    Network.create sim (Pcc_interconnect.Topology.fat_tree ~nodes:2 ~radix:8)
      Network.default_config
  in
  let delivered = ref 0 and limit = ref 0 in
  let links = Array.make 2 None in
  let link n = match links.(n) with Some l -> l | None -> assert false in
  for id = 0 to 1 do
    links.(id) <-
      Some
        (Hub_link.create ~sim ~network:net ~id ~nodes:2 ~reliable ~rto:500 ~rto_cap:8000
           ~ack_bytes:16
           ~on_retransmit:(fun ~dst:_ -> Alcotest.fail "retransmitted on a clean network")
           ~on_duplicate:(fun () -> Alcotest.fail "duplicate on a clean network")
           ~deliver:(fun ~src payload ->
             incr delivered;
             if !delivered < !limit then
               Hub_link.send (link id) ~dst:src ~bytes:48 payload))
  done;
  let payload = Some "payload" in
  let rounds n =
    limit := !limit + n;
    Hub_link.send (link 0) ~dst:1 ~bytes:48 payload;
    ignore (Sim.run sim)
  in
  rounds 100;
  let n = 50_000 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  rounds n;
  let words = Gc.minor_words () -. before in
  if !delivered <> !limit then
    Alcotest.failf "%d of %d rounds delivered" !delivered !limit;
  if Hub_link.in_flight (link 0) + Hub_link.in_flight (link 1) <> 0 then
    Alcotest.fail "frames left unacknowledged";
  let packets = if reliable then 2 * !limit else !limit in
  if Network.messages_sent net <> packets then
    Alcotest.failf "%d packets for %d rounds" (Network.messages_sent net) !limit;
  if words > 256.0 then
    Alcotest.failf
      "%s hub link allocated %.0f minor words over %d send/deliver%s rounds — a frame \
       must not allocate"
      (if reliable then "reliable" else "pass-through")
      words n
      (if reliable then "/ack" else "")

(* A generator feed's pull is an array read, plus a refill at each
   epoch's end: with a refill that allocates nothing, pulling every
   node's ops must touch the minor heap not at all. *)
let check_dcgen_pull () =
  let nodes = 4 and per_epoch = 64 in
  let refill node epoch buf =
    for i = 0 to per_epoch - 2 do
      let line = Types.Layout.make_line ~home:node ~index:(epoch + i) in
      buf.(i) <- Op_stream.access Types.Load line
    done;
    buf.(per_epoch - 1) <- Op_stream.barrier epoch;
    per_epoch
  in
  let epochs = 4_000 in
  let feed =
    Pcc_workload.Dcgen.stream_of_epochs ~nodes ~epochs ~capacity:per_epoch ~refill ()
  in
  let pulls = ref 0 in
  Gc.full_major ();
  let before = Gc.minor_words () in
  for node = 0 to nodes - 1 do
    while feed.Op_stream.next node <> Op_stream.end_of_stream do
      incr pulls
    done
  done;
  let words = Gc.minor_words () -. before in
  if !pulls <> nodes * epochs * per_epoch then
    Alcotest.failf "%d pulls, expected %d" !pulls (nodes * epochs * per_epoch);
  if words > 256.0 then
    Alcotest.failf
      "Dcgen pulls allocated %.0f minor words over %d pulls — a feed pull must stay \
       allocation-free"
      words !pulls

(* The streaming feed path: a run fed by Workload.stream — generator
   refills or binary-trace chunk decoding included — must hold the same
   order of per-commit allocation as the materialized path, or 10^8-event
   runs stop being feasible.  Measured 40 words/commit for the kv
   generator and 91 for the trace replay (the machine itself
   dominates). *)
let streaming_words_per_commit ?(config = fun nodes -> Config.small_full ~nodes ())
    workload =
  let w = workload () in
  let config = config (Pcc_workload.Workload.nodes w) in
  let sys = System.create ~config () in
  let commits = ref 0 in
  System.on_commit sys (fun _ -> incr commits);
  let feed = Pcc_workload.Workload.stream w in
  Gc.full_major ();
  let before = Gc.minor_words () in
  let (_ : System.result) = System.run_stream sys feed in
  let words = Gc.minor_words () -. before in
  (words /. float_of_int (max 1 !commits), !commits)

let check_streaming ?config name budget workload () =
  let per_commit, commits = streaming_words_per_commit ?config workload in
  if commits < 1000 then
    Alcotest.failf "%s: only %d commits — feed too small to measure" name commits;
  if per_commit > budget then
    Alcotest.failf
      "%s: %.1f minor words per committed op exceeds the %.0f-word budget — the \
       streaming next_event path added allocation"
      name per_commit budget

let generator spec () =
  match Pcc_workload.Workload.of_spec ~nodes ~scale:0.1 ~seed:7 spec with
  | Ok w -> w
  | Error m -> Alcotest.fail m

(* staged through a temp file so the budget covers varint decode and
   chunk refill, not just the generator arithmetic *)
let trace_workload () =
  let path = Filename.temp_file "pcc_alloc" ".pcct" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  Pcc_workload.Btrace.write ~path
    (Pcc_workload.Apps.(programs em3d) ~scale:0.3 ~nodes ());
  match
    Pcc_workload.Workload.of_spec ~nodes ~scale:0.1 ~seed:7 ("trace:file=" ^ path)
  with
  | Ok w -> w
  | Error m -> Alcotest.fail m

let suite =
  [
    Alcotest.test_case "flight record path allocation-free" `Quick check_flight_record;
    Alcotest.test_case "rng draws allocation-free" `Quick check_rng_draws;
    Alcotest.test_case "fault plan allocation-free" `Quick check_fault_plan;
    Alcotest.test_case "memory-model checker allocation-free" `Quick check_sc_checker;
    Alcotest.test_case "adaptive invariants allocation-free" `Quick check_dir_invariants;
    Alcotest.test_case "cache probes allocation-free" `Quick check_cache_probes;
    Alcotest.test_case "pass-through hub link allocation-free" `Quick
      (check_hub_link ~reliable:false);
    Alcotest.test_case "reliable hub link allocation-free" `Quick
      (check_hub_link ~reliable:true);
    Alcotest.test_case "generator pull allocation-free" `Quick check_dcgen_pull;
    (* the machine budgets below are about twice the measured words per
       commit, the em3d programs built inside the window included: base
       132, full 139, hardened 151; a closure per cache probe and a
       record per hub-link frame took them to 193, 251 and 267 *)
    Alcotest.test_case "base protocol under budget" `Quick
      (check "base" 260.0 (Config.base ~nodes ()));
    (* measured 637 words/state; 2,000 trips a return to a renamed copy
       of the state per permutation and a formatted label per successor,
       which cost 2,568 *)
    Alcotest.test_case "model checker under budget" `Quick (check_checker 2_000.0);
    Alcotest.test_case "model checker memory under budget" `Quick
      (check_checker_memory 60.0);
    Alcotest.test_case "full adaptive machine under budget" `Quick
      (check "full" 280.0 (Config.small_full ~nodes ()));
    (* reliable hub links over 8% loss *)
    Alcotest.test_case "hardened machine under budget" `Quick
      (check "hardened" 300.0
         (Config.with_faults
            (Config.small_full ~nodes ())
            (Pcc_interconnect.Fault.drops ~seed:7)));
    Alcotest.test_case "streaming generator feed under budget" `Quick
      (check_streaming "kv generator" 500.0 (generator "kv:events=60000"));
    (* broadcast snooping: measured 78 words/commit *)
    Alcotest.test_case "msi pubsub machine under budget" `Quick
      (check_streaming "msi pubsub" 160.0
         ~config:(fun nodes -> Config.snoop ~nodes Types.Msi ())
         (generator "pubsub:events=60000"));
    Alcotest.test_case "streaming trace feed under budget" `Quick
      (check_streaming "trace replay" 500.0 trace_workload);
  ]
