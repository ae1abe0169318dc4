(* Cross-backend conformance: the adaptive directory protocol and the
   bus-snooping MSI/MESI backends, driven over the same seeded
   workloads, must agree on everything a program can observe.

   Two layers:

   - a differential suite: phased racing workloads whose final phase has
     a designated last writer per line, so the final memory image has a
     backend-independent identity (writer node, per-node store index);
     every backend must drain cleanly, pass the machine's per-location
     SC checker, and produce the same final image.  Raw stored values are
     versions from a global counter and therefore timing-dependent, so
     images are compared after mapping each version back to the
     program-determined identity of the store that produced it;

   - a qcheck conformance suite: random legal op sequences against every
     backend, checking state-transition invariants online (never two
     exclusive copies of a line) and message-level contracts on the bus
     (a dirty BUS_FLUSH supplies the last committed store's data, an
     upgrade never carries data). *)

open Pcc_core
module Q = QCheck
module Rng = Pcc_engine.Rng

let backends = [ Types.Adaptive; Types.Msi; Types.Mesi ]

let config_for ~nodes protocol = { (Config.base ~nodes ()) with Config.protocol }

(* ---------------- differential suite ---------------- *)

(* Phased workload: [epochs] rounds of racing random loads/stores
   separated by barriers, then one deterministic closing phase — barrier,
   one designated writer per line, barrier, every node loads every line.
   The closing phase pins the final memory image and gives every node an
   observation of it. *)
let build_programs ~nodes ~nlines ~epochs ~ops_per_epoch ~seed =
  let root = Rng.create ~seed in
  let rngs = Array.init nodes (fun _ -> Rng.split root) in
  let lines = Array.init nlines (fun i -> Types.Layout.make_line ~home:(i mod nodes) ~index:i) in
  let next_barrier =
    let b = ref 0 in
    fun () ->
      incr b;
      !b
  in
  let programs = Array.init nodes (fun _ -> ref []) in
  let push node op = programs.(node) := op :: !(programs.(node)) in
  let all_barrier () =
    let b = next_barrier () in
    Array.iteri (fun node _ -> push node (Types.Barrier b)) programs
  in
  for _ = 1 to epochs do
    Array.iteri
      (fun node rng ->
        for _ = 1 to ops_per_epoch do
          let l = lines.(Rng.int rng ~bound:nlines) in
          let kind = if Rng.bool rng ~p:0.45 then Types.Store else Types.Load in
          push node (Types.Access (kind, l))
        done)
      rngs;
    all_barrier ()
  done;
  for i = 0 to nlines - 1 do
    push (((i * 7) + 3) mod nodes) (Types.Access (Types.Store, lines.(i)))
  done;
  all_barrier ();
  Array.iteri
    (fun node _ -> Array.iter (fun l -> push node (Types.Access (Types.Load, l))) lines)
    programs;
  (lines, Array.map (fun r -> List.rev !r) programs)

(* The backend-independent identity of a committed store: which node
   produced it and how many stores that node had committed to that line
   up to and including it.  Programs are fixed and every store commits,
   so identities are comparable across backends even though the raw
   version numbers are not. *)
type identity = Initial | Stored of { writer : int; nth : int }

let identity_pp = function
  | Initial -> "initial"
  | Stored { writer; nth } -> Printf.sprintf "node%d#%d" writer nth

let identity_testable =
  Alcotest.testable
    (fun ppf id -> Format.pp_print_string ppf (identity_pp id))
    (fun a b -> a = b)

(* Run one backend over the shared programs; return the final memory
   image as seen by the machine's SC checker (per line, the identity of
   the last store) plus every node's final observation of every line. *)
let run_backend ~lines ~nodes ~programs protocol =
  let config = config_for ~nodes protocol in
  let t = System.create ~config () in
  let store_counts = Hashtbl.create 64 in
  let version_identity = Hashtbl.create 64 in
  let last_load = Hashtbl.create 64 in
  System.on_commit t (fun (ev : Probe.commit_event) ->
      let node = ev.c_node and line = ev.c_line in
      (match ev.c_kind with
      | Types.Store ->
          let nth =
            (try Hashtbl.find store_counts (node, line) with Not_found -> 0) + 1
          in
          Hashtbl.replace store_counts (node, line) nth;
          Hashtbl.replace version_identity ev.c_value (Stored { writer = node; nth })
      | Types.Load -> Hashtbl.replace last_load (node, line) ev.c_value));
  let result = System.run_programs t programs in
  let name = Protocol.to_string protocol in
  Alcotest.(check bool)
    (name ^ ": drained") true
    (result.System.outcome = Pcc_engine.Simulator.Drained);
  Alcotest.(check int) (name ^ ": no SC violations") 0 result.System.violations;
  Alcotest.(check (list string))
    (name ^ ": invariants hold") [] result.System.invariant_errors;
  let identity_of version =
    if version = 0 then Initial else Hashtbl.find version_identity version
  in
  let image =
    Array.to_list lines
    |> List.map (fun l -> identity_of (Sc_check.last_store (System.checker t) l))
  in
  (* Every node's closing load must observe exactly the final image. *)
  Array.iteri
    (fun i l ->
      for node = 0 to nodes - 1 do
        Alcotest.check identity_testable
          (Printf.sprintf "%s: node %d final view of line %d" name node i)
          (List.nth image i)
          (identity_of (Hashtbl.find last_load (node, l)))
      done)
    lines;
  (image, result.System.stats.Run_stats.loads, result.System.stats.Run_stats.stores)

let differential_case ~nodes ~nlines ~epochs ~ops_per_epoch ~seed () =
  let lines, programs = build_programs ~nodes ~nlines ~epochs ~ops_per_epoch ~seed in
  match List.map (run_backend ~lines ~nodes ~programs) backends with
  | [ (adaptive_image, al, as_); (msi_image, ml, ms); (mesi_image, el, es) ] ->
      Alcotest.(check (list identity_testable))
        "adaptive vs msi final image" adaptive_image msi_image;
      Alcotest.(check (list identity_testable))
        "adaptive vs mesi final image" adaptive_image mesi_image;
      (* committed op counts are program-determined, so they must agree *)
      Alcotest.(check (pair int int)) "msi op counts" (al, as_) (ml, ms);
      Alcotest.(check (pair int int)) "mesi op counts" (al, as_) (el, es)
  | _ -> assert false

(* ---------------- backend-specific behaviour checks ---------------- *)

(* MESI's reason to exist: an unshared load fills Exclusive-clean, so the
   subsequent store upgrades silently; MSI must pay a bus transaction. *)
let test_mesi_silent_upgrade () =
  let l = Types.Layout.make_line ~home:1 ~index:0 in
  let programs = [| [ Types.Access (Types.Load, l); Types.Access (Types.Store, l) ]; [] |] in
  let count_upgrades protocol =
    let t = System.create ~config:(config_for ~nodes:2 protocol) () in
    let upgrades = ref 0 in
    System.on_message t (fun ~time:_ ~src:_ ~dst:_ msg ->
        match msg with
        | Message.Bus_upgr _ | Message.Bus_rdx _ -> incr upgrades
        | _ -> ());
    let r = System.run_programs t programs in
    Alcotest.(check int) "coherent" 0 r.System.violations;
    !upgrades
  in
  Alcotest.(check int) "MSI pays a bus upgrade" 1 (count_upgrades Types.Msi);
  Alcotest.(check int) "MESI upgrades silently" 0 (count_upgrades Types.Mesi)

(* Cache-to-cache transfer: with a dirty remote owner, the data crosses
   as a BUS_FLUSH and the requester never waits for home DRAM. *)
let test_c2c_transfer () =
  let l = Types.Layout.make_line ~home:0 ~index:0 in
  let programs =
    [|
      [ Types.Barrier 1 ];
      [ Types.Access (Types.Store, l); Types.Barrier 1 ];
      [ Types.Barrier 1; Types.Access (Types.Load, l) ];
    |]
  in
  List.iter
    (fun protocol ->
      let t = System.create ~config:(config_for ~nodes:3 protocol) () in
      let dirty_flushes = ref 0 in
      System.on_message t (fun ~time:_ ~src:_ ~dst:_ msg ->
          match msg with Message.Bus_flush { dirty = true; _ } -> incr dirty_flushes | _ -> ());
      let r = System.run_programs t programs in
      Alcotest.(check int) "coherent" 0 r.System.violations;
      Alcotest.(check bool)
        (Protocol.to_string protocol ^ ": dirty data moved cache-to-cache")
        true (!dirty_flushes >= 1))
    [ Types.Msi; Types.Mesi ]

let test_snoop_rejects_crash_configs () =
  let profile =
    {
      Pcc_interconnect.Fault.zero with
      Pcc_interconnect.Fault.crashes =
        [ { Pcc_interconnect.Fault.victim = 1; crash_at = 1000; restart_after = None } ];
    }
  in
  let config = Config.with_faults (Config.snoop ~nodes:4 Types.Msi ()) profile in
  Alcotest.check_raises "crash schedule rejected"
    (Invalid_argument "Snoop.create_machine: fail-stop crashes are not supported")
    (fun () -> ignore (System.create ~config ()))

(* Only the adaptive machine has a RAC and a delegate cache.  The same
   producer-consumer run, on a configuration whose RAC and delegation
   are on, reads those gauges and result fields as nonzero on the
   adaptive machine and as 0 on a snooping one, where the Node-typed
   accessors refuse. *)
let test_snoop_adaptive_gauges () =
  let nodes = 4 in
  let workload =
    match Pcc_workload.Workload.of_spec ~nodes ~scale:0.15 ~seed:1 "prodcons" with
    | Ok w -> w
    | Error m -> Alcotest.fail m
  in
  let run protocol =
    let config = { (Config.full ~nodes ()) with Config.protocol } in
    let t = System.create ~config () in
    let r = System.run_stream t (Pcc_workload.Workload.stream workload) in
    Alcotest.(check int) "coherent" 0 r.System.violations;
    Alcotest.(check (list string)) "invariants" [] r.System.invariant_errors;
    ( t,
      [
        ("delegated lines", System.delegated_lines t);
        ("rac occupancy", System.rac_occupancy t);
        ("rac capacity", System.rac_capacity t);
        ("updates consumed", r.System.updates_consumed);
        ("updates wasted", r.System.updates_wasted);
        ("rac pressure", r.System.rac_pressure);
        ("deledc pressure", r.System.deledc_pressure);
      ] )
  in
  let adaptive, gauges = run Types.Adaptive in
  List.iter
    (fun what ->
      Alcotest.(check bool) ("adaptive " ^ what ^ " > 0") true (List.assoc what gauges > 0))
    [ "delegated lines"; "rac occupancy"; "rac capacity"; "updates consumed" ];
  Alcotest.(check int) "adaptive nodes" nodes (Array.length (System.nodes adaptive));
  let refuses f = match f () with _ -> false | exception Invalid_argument _ -> true in
  List.iter
    (fun protocol ->
      let name = Protocol.to_string protocol in
      let t, gauges = run protocol in
      List.iter (fun (what, v) -> Alcotest.(check int) (name ^ " " ^ what) 0 v) gauges;
      Alcotest.(check bool) (name ^ ": nodes refuses") true
        (refuses (fun () -> System.nodes t));
      Alcotest.(check bool) (name ^ ": node refuses") true
        (refuses (fun () -> System.node t 0)))
    [ Types.Msi; Types.Mesi ]

(* ---------------- qcheck conformance suite ---------------- *)

(* Random legal op sequences against one backend.  Online checks:

   - single-writer: at every store commit, no other node holds the line
     exclusive ("no M+M on a line");
   - dirty BUS_FLUSH carries the last committed store's value for its
     line (cache-to-cache data is never stale);
   - BUS_UPGR transactions never move data for the upgraded line.

   Post-run: drained, zero memory-checker violations ("S readers see the
   last writer"), zero structural invariant errors. *)
let conformance_property protocol =
  let name = Printf.sprintf "conformance: random ops on %s" (Protocol.to_string protocol) in
  Q.Test.make ~count:30 ~name
    Q.(pair small_int small_int)
    (fun (seed, shape) ->
      let rand = Random.State.make [| seed; shape; 97 |] in
      let nodes = 2 + (shape mod 4) in
      let nlines = 1 + (seed mod 5) in
      let line i = Types.Layout.make_line ~home:(i mod nodes) ~index:i in
      let epochs = 1 + (shape mod 3) in
      let programs =
        Array.init nodes (fun _ ->
            List.concat
              (List.init epochs (fun e ->
                   List.init
                     (1 + Random.State.int rand 8)
                     (fun _ ->
                       let l = line (Random.State.int rand nlines) in
                       if Random.State.bool rand then Types.Access (Types.Load, l)
                       else Types.Access (Types.Store, l))
                   @ [ Types.Barrier (e + 1) ])))
      in
      let config = config_for ~nodes protocol in
      let t = System.create ~config () in
      let last_store = Hashtbl.create 16 in
      System.on_commit t (fun ev ->
          match ev.Probe.c_kind with
          | Types.Store ->
              Hashtbl.replace last_store ev.Probe.c_line ev.Probe.c_value;
              for other = 0 to nodes - 1 do
                if other <> ev.Probe.c_node then
                  match System.l2_entry t ~node:other ~line:ev.Probe.c_line with
                  | Some { L2.state = L2.Exclusive; _ } ->
                      Q.Test.fail_reportf
                        "two exclusive copies of line %d (nodes %d and %d)"
                        ev.Probe.c_line ev.Probe.c_node other
                  | _ -> ()
              done
          | Types.Load -> ());
      System.on_message t (fun ~time:_ ~src:_ ~dst:_ msg ->
          match msg with
          | Message.Bus_flush { line; value; dirty = true; _ } ->
              let expected = try Hashtbl.find last_store line with Not_found -> 0 in
              if value <> expected then
                Q.Test.fail_reportf
                  "dirty flush of line %d carried %d, last committed store was %d" line
                  value expected
          | Message.Bus_upgr { line; _ } when not (Hashtbl.mem last_store line) ->
              (* an upgrade implies the requester already holds the line
                 shared, which implies somebody stored or home served it;
                 upgrading a never-stored line is legal, so no check —
                 the arm exists to document the contract *)
              ()
          | _ -> ());
      let result = System.run_programs t programs in
      if result.System.violations <> 0 then
        Q.Test.fail_reportf "coherence violations on %s" (Config.describe config);
      if result.System.invariant_errors <> [] then
        Q.Test.fail_reportf "invariant errors on %s: %s" (Config.describe config)
          (String.concat "; " result.System.invariant_errors);
      if result.System.outcome <> Pcc_engine.Simulator.Drained then
        Q.Test.fail_reportf "did not drain on %s" (Config.describe config);
      true)

let conformance_tests =
  List.map (fun p -> QCheck_alcotest.to_alcotest (conformance_property p)) backends

let suite =
  [
    Alcotest.test_case "differential: small contended" `Quick
      (differential_case ~nodes:4 ~nlines:6 ~epochs:4 ~ops_per_epoch:5 ~seed:1);
    Alcotest.test_case "differential: wider machine" `Quick
      (differential_case ~nodes:8 ~nlines:12 ~epochs:3 ~ops_per_epoch:4 ~seed:2);
    Alcotest.test_case "differential: two-node ping-pong" `Quick
      (differential_case ~nodes:2 ~nlines:3 ~epochs:6 ~ops_per_epoch:6 ~seed:3);
    Alcotest.test_case "MESI silent upgrade vs MSI" `Quick test_mesi_silent_upgrade;
    Alcotest.test_case "cache-to-cache transfer" `Quick test_c2c_transfer;
    Alcotest.test_case "snoop rejects crash configs" `Quick test_snoop_rejects_crash_configs;
    Alcotest.test_case "RAC and delegation gauges read 0 when snooping" `Quick
      test_snoop_adaptive_gauges;
  ]
  @ conformance_tests
