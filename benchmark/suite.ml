(* The benchmark's workloads, the clocks every measurement reads, and
   the correctness gate a run must pass.

   Each workload is a closed-loop batch: one client (the run loop), a
   fixed input size built from the seed, and the work completed per host
   second at that size.  Sizes are chosen so one cold run takes about a
   second on a 2-core container, which lets a time-bounded benchmark run
   take several rounds of every workload. *)

open Pcc

external wall_ns : unit -> int = "pcc_bench_wall_ns" [@@noalloc]
(** Monotonic wall clock, nanoseconds. *)

let seconds_since t0 = float_of_int (wall_ns () - t0) *. 1e-9

let nodes = 16

type size = Full | Smoke

let size_name = function Full -> "full" | Smoke -> "smoke"

type sim = {
  spec : string;  (** [--workload] spec string; the seed is passed separately *)
  config : Config.t;
}

type mcheck = {
  params : Protocol_model.params;
  max_states : int;
  expected_states : int;
      (** the checker is seed-independent and deterministic: any other
          state count means the model or the checker changed *)
}

type kind = Sim of sim | Mcheck of mcheck

type t = { name : string; why : string; describe : string; kind : kind }

let adaptive = Config.small_full ~nodes ()

(* The loss pattern is part of the machine, not of the input: it stays
   fixed while the seed varies the workload. *)
let hardened = Config.with_faults adaptive (Fault.drops ~seed:7)

let msi = Config.snoop ~nodes Types.Msi ()

let all size =
  let pick full smoke = match size with Full -> full | Smoke -> smoke in
  let sim name why spec config =
    { name; why; describe = spec; kind = Sim { spec; config } }
  in
  let em3d = pick "em3d:scale=12" "em3d:scale=1" in
  let max_states, expected_states = pick (30_000, 47_898) (1_000, 1_003) in
  [
    sim "em3d-full"
      "the paper's mechanism: adaptive handlers, RAC and delegate cache do the work"
      em3d adaptive;
    sim "em3d-hardened"
      "same inputs over lossy links: reliable hub links and the fault layer dominate"
      em3d hardened;
    sim "kv-full"
      "streaming generator: the feed and Zipf keys do real work in flat memory"
      (pick "kv:events=1000000" "kv:events=20000") adaptive;
    sim "pubsub-msi"
      "broadcast snooping instead of the directory: the engine-heavy workload"
      (pick "pubsub:events=200000" "pubsub:events=4000") msi;
    {
      name = "mcheck-adaptive";
      why = "model-checker states per second; bypasses every simulator layer";
      describe = Printf.sprintf "checker:nodes=3,lines=1,ops=2,max_states=%d,jobs=1" max_states;
      kind =
        Mcheck { params = Protocol_model.default_params; max_states; expected_states };
    };
  ]

let find size name = List.find_opt (fun w -> w.name = name) (all size)

(* {2 Set-up} *)

(* The workload from its spec and the seed, with eagerly built programs
   materialized (asking for the access count forces them), and a feed. *)
let materialize ~seed sim =
  let workload =
    match Workload.of_spec ~nodes ~scale:1.0 ~seed sim.spec with
    | Ok w -> w
    | Error message -> failwith message
  in
  let accesses = Workload.total_accesses workload in
  (workload, accesses, Workload.stream workload)

(* {2 Correctness gate} *)

let commits (r : System.result) = r.System.stats.Run_stats.loads + r.System.stats.Run_stats.stores

(* Loads and stores are counted at issue; a drained run with no stall
   report has committed every issued operation. *)
let sim_failures ~accesses (r : System.result) =
  let n = commits r in
  List.filter_map Fun.id
    [
      (match r.System.outcome with
      | Simulator.Drained -> None
      | o -> Some (Format.asprintf "outcome %a, not drained" Simulator.pp_outcome o));
      Option.map
        (fun s -> Format.asprintf "stalled: %a" System.pp_stall_report s)
        r.System.stall;
      (if r.System.violations > 0 then
         Some (Printf.sprintf "%d coherence violations" r.System.violations)
       else None);
      (match r.System.invariant_errors with
      | [] -> None
      | e :: rest -> Some (Printf.sprintf "invariant: %s (+%d more)" e (List.length rest)));
      (match accesses with
      | Some a when a = n -> None
      | Some a -> Some (Printf.sprintf "%d commits, workload has %d accesses" n a)
      | None -> Some "workload does not declare its access count");
    ]

let mcheck_failures m (outcome : _ Checker.outcome) =
  match outcome with
  | Checker.Ok s when s.Checker.states_explored = m.expected_states -> []
  | Checker.Ok s ->
      [ Printf.sprintf "checker explored %d states, expected %d" s.Checker.states_explored
          m.expected_states ]
  | Checker.Invariant_violation { invariant; _ } -> [ "checker: invariant violated: " ^ invariant ]
  | Checker.Deadlock _ -> [ "checker: deadlock" ]

let checker_stats : _ Checker.outcome -> Checker.stats = function
  | Checker.Ok s -> s
  | Checker.Invariant_violation { stats; _ } | Checker.Deadlock { stats; _ } -> stats

(* {2 Host memory} *)

(* Peak resident set of this process (VmHWM), in MB; falls back to the
   OCaml heap's high-water mark where /proc is unavailable. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some l when String.starts_with ~prefix:"VmHWM:" l ->
                Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
                    Some (float_of_int kb /. 1024.0))
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ | Scanf.Scan_failure _ | End_of_file -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. (1024.0 *. 1024.0)
