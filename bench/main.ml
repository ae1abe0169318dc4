(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation section (Tables 1-3, Figures 7-12, plus the delegation-only
   ablation discussed in §3.2), printing our measurements next to the
   paper's published numbers.

     dune exec bench/main.exe                 # all experiments
     dune exec bench/main.exe -- fig7 fig9    # a subset
     dune exec bench/main.exe -- protocols    # backend head-to-head
     dune exec bench/main.exe -- fig10 --protocol msi   # rerun on a backend

   Environment: PCC_SCALE (default 0.5) stretches run lengths; PCC_JOBS
   (or --jobs N) fans independent simulations out across that many
   domains.  --protocol adaptive/msi/mesi selects the coherence backend
   every simulated configuration runs on (unknown names are rejected,
   never silently defaulted).  --workload SPEC restricts the [workloads]
   experiment to one registry spec (validated loudly, like every CLI).
   Unknown experiment names are a usage error before anything runs.
   Results are bit-identical at every jobs level: each simulation is
   self-contained, workers never print, and the --json artifact is
   sorted by run key.  Each experiment is one [experiment] record whose
   rows name the runs they read: the driver simulates all of them in one
   parallel prewarm, then renders every row from the finished results. *)

open Pcc_core
module Apps = Pcc_workload.Apps
module Table = Pcc_stats.Table
module Summary = Pcc_stats.Summary
module Jsonl = Pcc_stats.Jsonl
module Pool = Pcc_parallel.Pool

let nodes = 16

let scale =
  match Sys.getenv_opt "PCC_SCALE" with Some s -> float_of_string s | None -> 0.5

(* Coherence backend for every simulated configuration (--protocol).
   Adaptive, the default, reproduces the paper and keeps every artifact
   byte-identical to the committed goldens; msi / mesi rerun the matrix
   on the snooping backend so the same tables become head-to-head
   protocol comparisons.  Configurations that already name a snooping
   backend (the [protocols] experiment) are left alone, so that
   experiment always spans every backend. *)
let protocol = ref Types.Adaptive

(* --jobs (or PCC_JOBS), resolved in the driver; the [workloads]
   experiment fans its own matrix out with it. *)
let bench_jobs = ref 1

(* --workload SPEC: pin the [workloads] experiment to one registry spec
   instead of the generator x skew matrix.  Validated loudly up front. *)
let workload_override : string option ref = ref None

let apply_protocol config =
  match !protocol with
  | Types.Adaptive -> config
  | p when config.Config.protocol = Types.Adaptive -> { config with Config.protocol = p }
  | _ -> config

(* ------------------------------------------------------------------ *)
(* Run cache: many experiments share the same (app, config) runs        *)
(* ------------------------------------------------------------------ *)

let run_cache : (string, System.result) Hashtbl.t = Hashtbl.create 64

(* run key -> workload name recorded on its --json row, so multi-workload
   artifacts are self-describing (registered wherever a key is minted) *)
let workload_by_key : (string, string) Hashtbl.t = Hashtbl.create 64

let programs_cache = Hashtbl.create 16

let programs app =
  match Hashtbl.find_opt programs_cache app.Apps.name with
  | Some p -> p
  | None ->
      let p = Apps.programs app ~scale ~nodes () in
      Hashtbl.add programs_cache app.Apps.name p;
      p

(* Record a finished run: warnings print here, always from the main
   domain, so a parallel prewarm emits them in the same deterministic
   (submission) order as a sequential run. *)
let record_run key r =
  if r.System.violations > 0 then
    Format.eprintf "WARNING: %s: %d coherence violations!@." key r.System.violations;
  if r.System.invariant_errors <> [] then
    Format.eprintf "WARNING: %s: invariant errors: %s@." key
      (String.concat "; " r.System.invariant_errors);
  Hashtbl.add run_cache key r

(* One simulated run a row reads: (tag, app, config).  The tag tells
   apart runs whose configurations describe alike; --protocol applies
   when the key is minted. *)
type run = string * Apps.app * Config.t

let sim ?(tag = "") config app : run = (tag, app, config)

let key_of (tag, app, config) =
  let described = Config.describe (apply_protocol config) in
  let key = Printf.sprintf "%s/%s/%s" app.Apps.name described tag in
  Hashtbl.replace workload_by_key key (String.lowercase_ascii app.Apps.name);
  key

(* Rows only read runs the prewarm finished. *)
let result run = Hashtbl.find run_cache (key_of run)

(* ------------------------------------------------------------------ *)
(* Capacity dedup                                                       *)
(*
   The fig7/fig11/fig12 matrices vary only the two capacity knobs —
   delegate-cache entries and RAC bytes.  [System.result] records
   machine-wide capacity pressure for both structures, and zero pressure
   means a strictly larger structure would have run bit-identically: the
   cache never filled, no eviction happened, the eviction RNG was never
   drawn.  CG, LU and Ocean never fill either structure at the default
   scale, so their matrix rows in BENCH_pr3.json are byte-identical
   copies.  Rather than silently re-simulating those twins, the prewarm
   runs each family's smallest configurations first and collapses every
   larger configuration whose donor proves it redundant, recording the
   donor in [dedups] so the text and --json outputs say which rows were
   reused. *)

(* collapsed key -> donor key, in collapse order *)
let dedups : (string * string) list ref = ref []

(* Same machine except for the two capacity knobs.  Chaos profiles hold
   closures structural equality cannot inspect; the bench matrix never
   sets one, but stay out of the game entirely if it ever does. *)
let same_family (a : Config.t) (b : Config.t) =
  match (a.Config.net_faults, b.Config.net_faults) with
  | None, None ->
      { a with Config.delegate_entries = 0; rac_bytes = 0 }
      = { b with Config.delegate_entries = 0; rac_bytes = 0 }
  | _ -> false

(* [donor] no larger than [target] in either capacity dimension, with
   power-of-two alignment so set indexing nests. *)
let covers ~(donor : Config.t) ~(target : Config.t) =
  let le d t = d <= t && (d = 0 || t mod d = 0) in
  le donor.Config.delegate_entries target.Config.delegate_entries
  && le donor.Config.rac_bytes target.Config.rac_bytes

(* The donor's finished run proves the target redundant: every capacity
   dimension that actually differs recorded zero pressure. *)
let proves ~(donor : Config.t) ~(target : Config.t) (r : System.result) =
  (donor.Config.delegate_entries = target.Config.delegate_entries
  || r.System.deledc_pressure = 0)
  && (donor.Config.rac_bytes = target.Config.rac_bytes || r.System.rac_pressure = 0)

let prewarm ~jobs runs =
  let seen = Hashtbl.create 64 in
  let todo =
    List.filter_map
      (fun ((_, app, config) as run) ->
        let key = key_of run in
        if Hashtbl.mem run_cache key || Hashtbl.mem seen key then None
        else begin
          Hashtbl.add seen key ();
          Some (key, app, apply_protocol config)
        end)
      runs
  in
  (* Runs that actually executed, available as dedup donors. *)
  let completed = ref [] in
  let find_donor (_key, app, config) =
    let candidates =
      List.filter
        (fun (_, donor_app, donor_config, r) ->
          String.equal donor_app app.Apps.name
          && same_family donor_config config
          && covers ~donor:donor_config ~target:config
          && proves ~donor:donor_config ~target:config r)
        !completed
    in
    match
      List.sort
        (fun (ka, _, a, _) (kb, _, b, _) ->
          compare
            (a.Config.delegate_entries, a.Config.rac_bytes, ka)
            (b.Config.delegate_entries, b.Config.rac_bytes, kb))
        candidates
    with
    | (donor_key, _, _, r) :: _ -> Some (donor_key, r)
    | [] -> None
  in
  (* [o] should run before [c]: strictly smaller in some capacity
     dimension, or an identical configuration under a smaller key (the
     same run requested twice under different tags). *)
  let dominates (okey, oapp, oconfig) (key, app, config) =
    oapp.Apps.name = app.Apps.name
    && same_family oconfig config
    && covers ~donor:oconfig ~target:config
    && ((not (covers ~donor:config ~target:oconfig)) || okey < key)
  in
  (* Wave scheduling: collapse what finished donors already prove
     redundant, then run the minimal remaining cells of every family in
     one parallel wave; repeat.  Domination is a strict partial order,
     so each wave is non-empty and the loop terminates. *)
  let rec waves pending =
    if pending <> [] then begin
      let pending =
        List.filter
          (fun ((key, _, config) as c) ->
            match find_donor c with
            | Some (donor_key, r) ->
                dedups := (key, donor_key) :: !dedups;
                record_run key { r with System.config };
                false
            | None -> true)
          pending
      in
      let wave, rest =
        List.partition
          (fun ((key, _, _) as c) ->
            not
              (List.exists
                 (fun ((okey, _, _) as o) -> okey <> key && dominates o c)
                 pending))
          pending
      in
      (* Generate workloads once, in the main domain: the cache stays
         single-domain and workers capture the finished (immutable)
         program lists in their closures. *)
      let tasks =
        List.map
          (fun (key, app, config) ->
            let programs = programs app in
            (key, fun () -> System.run ~config ~programs ()))
          wave
      in
      let results = Pool.run_keyed ~jobs tasks in
      List.iter2
        (fun (key, app, config) r ->
          record_run key r;
          completed := (key, app.Apps.name, config, r) :: !completed)
        wave results;
      waves rest
    end
  in
  waves todo;
  let collapsed = List.length !dedups in
  if collapsed > 0 then
    Format.printf
      "capacity dedup: %d of %d matrix runs reused a byte-identical smaller-cache \
       result (zero capacity pressure; donor map in --json)@.@."
      collapsed (List.length todo)

let speedup ~base r = float_of_int base.System.cycles /. float_of_int r.System.cycles

let slowdown ~base r = float_of_int r.System.cycles /. float_of_int base.System.cycles

let msg_ratio ~base r =
  float_of_int r.System.network_messages /. float_of_int base.System.network_messages

let miss_ratio ~base r =
  float_of_int (Run_stats.remote_misses r.System.stats)
  /. float_of_int (max 1 (Run_stats.remote_misses base.System.stats))

(* ------------------------------------------------------------------ *)
(* Experiments                                                          *)
(* ------------------------------------------------------------------ *)

(* A table row: the runs it reads and a renderer over their results, in
   the same order. *)
type row = Row of run list * (System.result list -> Table.cell list) | Separator

(* [rows] is evaluated once per invocation, before the prewarm.  [note]
   is the text under the table; it is a function because it may read
   finished runs (Figure 7's geomean lines). *)
type experiment = {
  name : string;
  title : string;
  columns : string list;
  rows : unit -> row list;
  note : unit -> string;
}

let text s () = s

let fixed cells = Row ([], fun _ -> cells)

(* A row normalized to a reference run: reads [base], then [run]. *)
let against base run render =
  Row ([ base; run ], function [ base; r ] -> render ~base r | _ -> assert false)

let base_config = Config.base ~nodes ()

let small = Config.small_full ~nodes ()

let large = Config.large_full ~nodes ()

(* One row per app: [metric] (speedup by default) of each variant over
   the app's [base] run. *)
let per_app ?(metric = speedup) ?(base = sim base_config) variants =
  List.map
    (fun app ->
      Row
        ( base app :: List.map (fun variant -> variant app) variants,
          function
          | base :: rs ->
              Table.String app.Apps.name
              :: List.map (fun r -> Table.Float (metric ~base r)) rs
          | [] -> assert false ))
    Apps.all

(* One row per (name, config) variant of [app], normalized to its Base
   run; [tagged] keys each run by its variant name. *)
let per_variant ?(tagged = false) app variants render =
  List.map
    (fun (name, config) ->
      let tag = if tagged then name else "" in
      against (sim base_config app) (sim ~tag config app) (render name))
    variants

let table1 =
  {
    name = "table1";
    title = "Table 1: system configuration";
    columns = [ "Parameter"; "Value" ];
    rows = (fun () -> List.map (fun (k, v) -> fixed [ String k; String v ]) Config.table1);
    note = text "";
  }

let table2 =
  {
    name = "table2";
    title = "Table 2: applications and data sets";
    columns = [ "Application"; "Problem size (paper)"; "accesses (simulated)" ];
    rows =
      (fun () ->
        List.map
          (fun app ->
            fixed
              [
                Table.String app.Apps.name;
                String app.Apps.problem_size;
                Int (Pcc_workload.Gen.total_ops (programs app));
              ])
          Apps.all);
    note = text "";
  }

let paper_table3 =
  [
    ("Barnes", (13.9, 6.8, 9.4, 8.1, 61.7));
    ("Ocean", (97.7, 1.8, 0.5, 0.0, 0.0));
    ("Em3D", (67.8, 32.2, 0.0, 0.0, 0.0));
    ("LU", (99.4, 0.0, 0.0, 0.4, 0.1));
    ("CG", (0.1, 0.2, 0.0, 0.0, 99.7));
    ("MG", (0.0, 0.3, 6.7, 1.4, 91.6));
    ("Appbt", (51.0, 7.5, 2.9, 1.8, 36.7));
  ]

let table3 =
  {
    name = "table3";
    title = "Table 3: consumers per producer-consumer epoch (%) - measured vs [paper]";
    columns = [ "Application"; "1"; "2"; "3"; "4"; "4+" ];
    rows =
      (fun () ->
        List.map
          (fun app ->
            Row
              ( [ sim large app ],
                fun rs ->
                  let h = (List.hd rs).System.stats.Run_stats.consumer_hist in
                  let cell measured paper =
                    Table.String
                      (Printf.sprintf "%5.1f [%5.1f]" (100.0 *. measured) paper)
                  in
                  let p1, p2, p3, p4, p4p = List.assoc app.Apps.name paper_table3 in
                  let f n = Pcc_stats.Histogram.fraction h n in
                  [
                    Table.String app.Apps.name;
                    cell (f 1) p1;
                    cell (f 2) p2;
                    cell (f 3) p3;
                    cell (f 4) p4;
                    cell (Pcc_stats.Histogram.fraction_ge h 5) p4p;
                  ] ))
          Apps.all);
    note = text "";
  }

(* Figure 7: speedup / messages / remote misses across configurations. *)

let fig7_small = "32-entry deledc & 32K RAC"

let fig7_large = "1K-entry deledc & 1M RAC"

let fig7_configs =
  [
    ("Base", base_config);
    ("32K RAC", Config.rac_only ~nodes ());
    (fig7_small, small);
    (fig7_large, large);
    ( "1K-entry deledc & 32K RAC",
      Config.full ~nodes ~rac_bytes:(32 * 1024) ~delegate_entries:1024 () );
    ( "32-entry deledc & 1M RAC",
      Config.full ~nodes ~rac_bytes:(1024 * 1024) ~delegate_entries:32 () );
  ]

(* Paper speedups for the small and large configurations (§3.2 text). *)
let paper_fig7_speedups =
  [
    ("Barnes", (1.17, 1.23));
    ("Ocean", (1.08, 1.11));
    ("Em3D", (1.33, 1.40));
    ("LU", (1.31, 1.40));
    ("CG", (1.06, 1.06));
    ("MG", (1.09, 1.22));
    ("Appbt", (1.08, 1.24));
  ]

(* The geomean summary line of one configuration across every app. *)
let fig7_summary label config (paper_speedup, paper_msgs, paper_miss) =
  let pairs =
    List.rev_map
      (fun app -> (result (sim base_config app), result (sim config app)))
      Apps.all
  in
  let over f = List.map (fun (base, r) -> f ~base r) pairs in
  Printf.sprintf
    "%s config: geomean speedup %.2f [paper %.2f], msgs %.2f [%.2f], remote misses %.2f \
     [%.2f]"
    label
    (Summary.geometric_mean (over speedup))
    paper_speedup
    (Summary.arithmetic_mean (over msg_ratio))
    paper_msgs
    (Summary.arithmetic_mean (over miss_ratio))
    paper_miss

let fig7 =
  {
    name = "fig7";
    title = "Figure 7: speedup, network messages, remote misses (normalized to Base)";
    columns = [ "app"; "config"; "speedup"; "paper"; "msgs"; "remote misses" ];
    rows =
      (fun () ->
        List.concat_map
          (fun app ->
            let paper_small, paper_large = List.assoc app.Apps.name paper_fig7_speedups in
            per_variant app fig7_configs (fun name ~base r ->
                [
                  Table.String app.Apps.name;
                  String name;
                  Float (speedup ~base r);
                  String
                    (if name = fig7_small then Printf.sprintf "[%.2f]" paper_small
                     else if name = fig7_large then Printf.sprintf "[%.2f]" paper_large
                     else "");
                  Float (msg_ratio ~base r);
                  Float (miss_ratio ~base r);
                ])
            @ [ Separator ])
          Apps.all);
    note =
      (fun () ->
        fig7_summary "small" small (1.13, 0.83, 0.71)
        ^ "\n"
        ^ fig7_summary "large" large (1.21, 0.85, 0.60));
  }

(* Figure 8: smarter vs larger caches (equal silicon). *)
let fig8 =
  let l2 bytes config = { config with Config.l2_bytes = bytes } in
  let mib = 1024 * 1024 in
  let base = sim ~tag:"fig8-base" (l2 mib base_config) in
  {
    name = "fig8";
    title =
      "Figure 8: equal-silicon comparison (1MB L2 baseline vs extensions vs 1.04MB L2)";
    columns = [ "app"; "Base (1M L2)"; "ext (1M L2 + 32/32K)"; "equal area (1.04M L2)" ];
    rows =
      (fun () ->
        per_app ~base
          [
            base;
            sim ~tag:"fig8-smart" (l2 mib small);
            sim ~tag:"fig8-big" (l2 (mib + (40 * 1024)) base_config);
          ]);
    note = text "paper: extensions beat the equal-area larger L2 for every app but Appbt";
  }

(* Figure 9: sensitivity to the intervention delay, normalized to the
   5-cycle delay. *)
let fig9 =
  let delays = [ 5; 50; 500; 5_000; 50_000; 500_000; 5_000_000 ] in
  let at delay =
    sim
      ~tag:(Printf.sprintf "delay%d" delay)
      { small with Config.intervention_delay = delay }
  in
  let label d =
    if d >= 1_000_000 then Printf.sprintf "%dM" (d / 1_000_000)
    else if d >= 1_000 then Printf.sprintf "%dK" (d / 1_000)
    else string_of_int d
  in
  {
    name = "fig9";
    title =
      "Figure 9: execution time vs intervention delay (normalized to 5-cycle delay)";
    columns = "app" :: List.map label delays;
    rows = (fun () -> per_app ~metric:slowdown ~base:(at 5) (List.map at delays));
    note =
      text "paper: flat from 5..50K cycles, degrading beyond; 50 cycles works for all apps";
  }

(* Figure 10: sensitivity to network hop latency (Appbt). *)
let fig10 =
  {
    name = "fig10";
    title = "Figure 10: sensitivity to hop latency (Appbt; 2GHz => 1ns = 2 cycles)";
    columns =
      [ "hop (ns)"; "base cycles"; "enhanced cycles"; "speedup"; "paper speedup" ];
    rows =
      (fun () ->
        List.map
          (fun (ns, paper) ->
            let at label config =
              sim
                ~tag:(Printf.sprintf "hop%d-%s" ns label)
                (Config.with_hop_latency config (2 * ns))
                Apps.appbt
            in
            against (at "base" base_config) (at "small" small) (fun ~base r ->
                [
                  Table.Int ns;
                  Int base.System.cycles;
                  Int r.System.cycles;
                  Float (speedup ~base r);
                  Float paper;
                ]))
          [ (25, 1.24); (50, 1.25); (100, 1.26); (200, 1.28) ]);
    note =
      text "paper: execution time ~doubles per hop-latency doubling; speedup grows slowly";
  }

(* Figures 11 and 12: one app against a sweep of one capacity knob. *)
let capacity_sweep ~name ~title app variants note =
  {
    name;
    title;
    columns = [ "config"; "speedup"; "network msgs (norm)" ];
    rows =
      (fun () ->
        per_variant ~tagged:true app variants (fun name ~base r ->
            [ Table.String name; Float (speedup ~base r); Float (msg_ratio ~base r) ]));
    note = text note;
  }

let sizes = [ 32; 64; 128; 256; 512; 1024 ]

let fig11 =
  capacity_sweep ~name:"fig11"
    ~title:"Figure 11: MG vs delegate-cache size (32K RAC unless noted)" Apps.mg
    (List.map
       (fun entries ->
         ( Printf.sprintf "%d-entry deledc & 32K RAC" entries,
           Config.full ~nodes ~delegate_entries:entries () ))
       sizes
    @ [
        (fig7_large, large);
        ("32-entry deledc & 1M RAC", Config.full ~nodes ~rac_bytes:(1024 * 1024) ());
      ])
    "paper: MG speedup grows 1.09 -> 1.22 with delegate entries; RAC size secondary"

let fig12 =
  capacity_sweep ~name:"fig12"
    ~title:"Figure 12: Appbt vs RAC size (32-entry deledc unless noted)" Apps.appbt
    (List.map
       (fun kb ->
         ( Printf.sprintf "32-entry deledc & %dK RAC" kb,
           Config.full ~nodes ~rac_bytes:(kb * 1024) () ))
       sizes
    @ [ (fig7_large, large) ])
    "paper: Appbt speedup grows 1.08 -> ~1.24 as the RAC grows to 1MB"

(* Ablation: delegation without updates (§3.2 prose). *)
let ablation =
  {
    name = "ablation";
    title = "Ablation: delegation-only vs delegation+updates (speedup over Base)";
    columns = [ "app"; "delegation only"; "delegation + updates" ];
    rows = (fun () -> per_app [ sim (Config.delegation_only ~nodes ()); sim small ]);
    note =
      text
        "paper: delegation alone performed within ~1% of baseline; updates provide the \
         gains";
  }

(* Analytical model (§5): speedup bound vs push accuracy. *)
let model =
  {
    name = "model";
    title = "Analytical model (Sec. 5): measured speedup vs 1/(1 - f*a) prediction";
    columns =
      [ "app"; "push acc"; "a (misses removed)"; "remote frac f"; "model"; "measured" ];
    rows =
      (fun () ->
        List.map
          (fun app ->
            against (sim base_config app) (sim large app) (fun ~base full ->
                let push_accuracy =
                  Analytic.accuracy
                    ~updates_sent:full.System.stats.Run_stats.updates_sent
                    ~updates_consumed:full.System.updates_consumed
                    ~updates_as_reply:full.System.stats.Run_stats.updates_as_reply
                in
                (* the model's "accuracy" is the fraction of remote misses
                   the mechanisms eliminate end to end *)
                let a = max 0.0 (1.0 -. miss_ratio ~base full) in
                let f =
                  Analytic.remote_time_fraction base.System.stats
                    ~cycles:base.System.cycles ~nodes
                in
                [
                  Table.String app.Apps.name;
                  Float push_accuracy;
                  Float a;
                  Float f;
                  Float (Analytic.speedup_model ~remote_time_fraction:f ~accuracy:a);
                  Float (speedup ~base full);
                ]))
          Apps.all);
    note =
      text "paper (Sec. 5): as network latency grows, speedup is bounded by 1/(1-accuracy)";
  }

(* Predictor-threshold ablation (design choice of §2.2). *)
let predictor =
  let at threshold =
    sim
      ~tag:(Printf.sprintf "thr%d" threshold)
      { small with Config.write_repeat_threshold = threshold }
  in
  {
    name = "predictor";
    title = "Ablation: write-repeat saturation threshold (speedup over Base)";
    columns = [ "app"; "t=1 (eager)"; "t=2"; "t=3 (paper)"; "t=5 (conservative)" ];
    rows = (fun () -> per_app (List.map at [ 1; 2; 3; 5 ]));
    note =
      text
        "an eager detector delegates unstable lines (extra churn); a conservative one misses \
         epochs";
  }

(* Adaptive intervention delay (§5 future work). *)
let adaptive =
  {
    name = "adaptive";
    title =
      "Extension: fixed 50-cycle vs adaptive intervention delay (speedup over Base)";
    columns = [ "app"; "fixed 50"; "adaptive" ];
    rows =
      (fun () ->
        per_app
          [
            sim small;
            sim ~tag:"adaptive" (Result.get_ok (Config.of_name ~nodes "adaptive"));
          ]);
    note =
      text "the adaptive mechanism tracks each line's write-burst span (EWMA) per Sec. 5";
  }

(* Backend head-to-head: the paper's protocol vs classic bus snooping. *)
let protocols =
  {
    name = "protocols";
    title =
      "Backend head-to-head: speedup, messages, remote misses (normalized to directory \
       base)";
    columns = [ "app"; "backend"; "speedup"; "msgs"; "remote misses" ];
    rows =
      (fun () ->
        List.concat_map
          (fun app ->
            per_variant app
              [
                ("directory base", base_config);
                ("adaptive 32/32K", small);
                ("MSI snoop", Config.snoop ~nodes Types.Msi ());
                ("MESI snoop", Config.snoop ~nodes Types.Mesi ());
              ]
              (fun name ~base r ->
                [
                  Table.String app.Apps.name;
                  String name;
                  Float (speedup ~base r);
                  Float (msg_ratio ~base r);
                  Float (miss_ratio ~base r);
                ])
            @ [ Separator ])
          Apps.all);
    note =
      text
        "the paper's adaptive directory protocol vs bus snooping on the same workloads;\n\
         the serialized bus pays arbitration on every miss, the directory pays 3-hop\n\
         forwarding only on remote ones";
  }

(* Hardware cost summary (§3.3.1). *)
let hwcost =
  {
    name = "hwcost";
    title = "Hardware overhead per node (Sec. 3.3.1)";
    columns = [ "config"; "component"; "bytes" ];
    rows =
      (fun () ->
        List.concat_map
          (fun (name, config) ->
            List.map
              (fun (component, bytes) -> fixed [ String name; String component; Int bytes ])
              (Hw_cost.breakdown config)
            @ [
                fixed [ String name; String "TOTAL"; Int (Hw_cost.per_node_bytes config) ];
                Separator;
              ])
          [ ("small", small); ("large", large) ]);
    note = text "paper: the small configuration costs < 40KB of SRAM per node";
  }

(* ------------------------------------------------------------------ *)
(* Datacenter workloads head-to-head (streaming generators)             *)
(* ------------------------------------------------------------------ *)

(* The four streaming generators, each swept through three settings of
   its consumer-distribution knob (Zipf skew: higher = hotter keys /
   more sharers per object), under the paper's adaptive machine and both
   snooping backends.  Streams are fed directly — no materialized
   program arrays — so the matrix exercises the same pull path a
   10^8-event run uses.  These runs fan out on their own when the rows
   are built, outside the prewarm and its capacity-dedup count. *)

let wl_events = 150_000

let wl_specs () =
  match !workload_override with
  | Some spec -> [ spec ]
  | None ->
      List.concat_map
        (fun name ->
          List.map
            (fun skew -> Printf.sprintf "%s:skew=%.1f,events=%d" name skew wl_events)
            [ 0.6; 1.0; 1.4 ])
        [ "kv"; "pubsub"; "worksteal"; "mpsc" ]

let wl_backends =
  [
    ("adaptive", small);
    ("msi", Config.snoop ~nodes Types.Msi ());
    ("mesi", Config.snoop ~nodes Types.Mesi ());
  ]

let wl_key spec backend = Printf.sprintf "wl/%s/%s" spec backend

let workload_rows () =
  (* Workloads resolve in the main domain; workers only call [stream],
     which builds fresh per-feed state (no lazies are forced). *)
  let resolved =
    List.map
      (fun spec ->
        (spec, Cli_common.resolve_workload ~tool:"workloads" ~nodes ~scale ~seed:7 spec))
      (wl_specs ())
  in
  let tasks =
    List.concat_map
      (fun (spec, workload) ->
        List.filter_map
          (fun (backend, config) ->
            let key = wl_key spec backend in
            Hashtbl.replace workload_by_key key (Pcc_workload.Workload.describe workload);
            if Hashtbl.mem run_cache key then None
            else
              Some
                ( key,
                  fun () ->
                    let sys = System.create ~config () in
                    System.run_stream sys (Pcc_workload.Workload.stream workload) ))
          wl_backends)
      resolved
  in
  let results = Pool.run_keyed ~jobs:!bench_jobs tasks in
  List.iter2 (fun (key, _) r -> record_run key r) tasks results;
  List.concat_map
    (fun (spec, _) ->
      let adaptive = Hashtbl.find run_cache (wl_key spec "adaptive") in
      List.map
        (fun (backend, _) ->
          let r = Hashtbl.find run_cache (wl_key spec backend) in
          fixed
            [
              Table.String spec;
              String backend;
              Int r.System.cycles;
              Float (slowdown ~base:adaptive r);
              Int r.System.network_messages;
              Int (Run_stats.remote_misses r.System.stats);
              Int r.System.stats.Run_stats.delegations;
            ])
        wl_backends
      @ [ Separator ])
    resolved

let workloads =
  {
    name = "workloads";
    title =
      Printf.sprintf "Datacenter workloads: adaptive vs snooping (%d nodes, %d events/run)"
        nodes wl_events;
    columns =
      [ "workload"; "backend"; "cycles"; "rel time"; "msgs"; "remote misses"; "deleg" ];
    rows = workload_rows;
    note =
      text
        "rel time = cycles / adaptive cycles (lower = faster than adaptive); skew is\n\
         each generator's consumer-distribution knob (Zipf theta over keys / topics /\n\
         victims / shards)";
  }

let experiments =
  [
    table1; table2; table3; fig7; fig8; fig9; fig10; fig11; fig12; ablation; model;
    predictor; adaptive; protocols; workloads; hwcost;
  ]

let print experiment rows =
  let t = Table.create ~title:experiment.title ~columns:experiment.columns in
  List.iter
    (function
      | Separator -> Table.add_separator t
      | Row (runs, render) -> Table.add_row t (render (List.map result runs)))
    rows;
  Table.print t;
  let note = experiment.note () in
  if note <> "" then print_endline note;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* JSON export (--json out.json)                                        *)
(* ------------------------------------------------------------------ *)

(* Machine-readable snapshot of every run the requested experiments
   performed, straight from the run cache, in the canonical Run_export
   encoding the determinism tests pin. *)
let write_json path =
  let runs = Hashtbl.fold (fun key r acc -> (key, r) :: acc) run_cache [] in
  (* An adaptive configuration whose run never delegated degenerated to
     the base protocol: the recorded numbers say nothing about the
     paper's mechanisms.  Seen when PCC_SCALE is so low the benchmarks
     produce fewer same-producer write epochs than the predictor's
     write-repeat threshold needs (detection requires threshold+1
     writes with intervening reads). *)
  List.iter
    (fun (key, r) ->
      if Run_export.delegation_expected r && r.System.stats.Run_stats.delegations = 0
      then
        if String.length key >= 3 && String.sub key 0 3 = "wl/" then
          (* generator runs are sized by their events= knob, not
             PCC_SCALE; zero delegations is a property of the access
             pattern (e.g. work stealing is migratory, not
             producer-consumer) worth noting, not a mis-sized run *)
          Format.eprintf
            "note: %s: adaptive config recorded zero delegations — this \
             generator's sharing pattern never triggered the \
             producer-consumer predictor@."
            key
        else
          Format.eprintf
            "WARNING: %s: ADAPTIVE CONFIG RECORDED ZERO DELEGATIONS — the \
             producer-consumer mechanism was never exercised and this run is \
             bit-identical to Base; raise PCC_SCALE (current %.2f) above the \
             predictor's detection threshold@."
            key scale)
    (List.sort (fun (a, _) (b, _) -> compare a b) runs);
  let doc =
    Run_export.document ~dedup:(List.rev !dedups)
      ~workload_of:(Hashtbl.find_opt workload_by_key)
      ~nodes ~scale runs
  in
  Pcc_stats.Atomic_file.write ~path (fun oc ->
      output_string oc (Jsonl.to_string doc);
      output_char oc '\n');
  Format.printf "wrote %s (%d runs)@." path (List.length runs)

(* ------------------------------------------------------------------ *)
(* Driver                                                               *)
(* ------------------------------------------------------------------ *)

let main selected jobs json_path backend workload =
  (* Same loud-rejection contract as the CLIs: an unknown workload name
     exits 2 with the suggestion list, never a silent default. *)
  Option.iter
    (fun spec ->
      ignore (Cli_common.resolve_workload ~tool:"--workload" ~nodes ~scale ~seed:7 spec))
    workload;
  protocol := backend;
  bench_jobs := jobs;
  workload_override := workload;
  let selected = match selected with [] -> experiments | selected -> selected in
  (* The jobs count goes to stderr: stdout and the --json artifact stay
     byte-identical across every jobs level. *)
  Format.eprintf "running with %d job(s) (set --jobs or PCC_JOBS to change)@." jobs;
  Format.printf
    "Reproduction harness: %d nodes, scale %.2f (set PCC_SCALE to change)%s@.@." nodes
    scale
    (match backend with
    | Types.Adaptive -> ""
    | p -> Printf.sprintf ", %s backend" (Protocol.to_string p));
  let tables = List.map (fun e -> (e, e.rows ())) selected in
  (* Unconditional (even at --jobs 1): the capacity dedup lives in the
     prewarm scheduler, and skipping it would silently re-simulate the
     collapsed matrix rows sequentially. *)
  prewarm ~jobs
    (List.concat_map
       (fun (_, rows) ->
         List.concat_map (function Row (runs, _) -> runs | Separator -> []) rows)
       tables);
  List.iter (fun (e, rows) -> print e rows) tables;
  Option.iter write_json json_path

let () =
  let open Cmdliner in
  let names =
    let doc = "Experiments to run, in order (default: all of them)." in
    let experiment = Arg.enum (List.map (fun e -> (e.name, e)) experiments) in
    Arg.(value & pos_all experiment [] & info [] ~docv:"EXPERIMENT" ~doc)
  in
  let workload =
    Cli_common.workload_spec ~doc:"Pin the $(b,workloads) experiment to one workload spec." ()
  in
  let term =
    Term.(
      const main $ names $ Cli_common.jobs () $ Cli_common.json () $ Cli_common.protocol ()
      $ workload)
  in
  exit (Cmd.eval (Cmd.v (Cmd.info "main" ~doc:"Reproduce the paper's tables and figures") term))
