open Pcc_core
module Fault = Pcc_interconnect.Fault
module Litmus = Pcc_workload.Litmus

type report = {
  result : System.result option;
  failures : string list;
  events : Flight_ring.event list;
  diff : Diff.outcome option;
  accesses : int;
  faults : Fault.stats option;
  dump : string option;
}

let now sys = Pcc_engine.Simulator.now (System.sim sys)

(* The directory-state auditor reads adaptive internals, so a snooping
   run gets the checker's online abort alone.  The returned function is
   the final sweep of a drained run. *)
let attach sys =
  match (System.config sys).Config.protocol with
  | Types.Adaptive -> (
      let audit = Audit.attach sys in
      fun () ->
        try
          Audit.check_all audit;
          []
        with Audit.Violation message ->
          [ Printf.sprintf "t=%d (final sweep): %s" (now sys) message ])
  | Types.Msi | Types.Mesi ->
      Audit.abort_on_violation sys;
      fun () -> []

(* A victim that never restarts abandons the rest of its program, so
   only a run whose every crash restarts owes every commit. *)
let owes_every_commit config =
  match config.Config.net_faults with
  | None -> true
  | Some profile ->
      List.for_all (fun (c : Fault.crash) -> c.restart_after <> None) profile.crashes

(* A litmus test's forbidden outcome, judged over the run's commits in
   commit order.  Only a run of a test that names one subscribes, so
   every other run builds no commit record. *)
let forbidden_check sys (litmus : Litmus.test option) =
  match Option.bind litmus (fun test -> test.forbidden) with
  | None -> fun () -> []
  | Some (description, reached) ->
      let observations = ref [] in
      System.on_commit sys (fun e ->
          observations :=
            {
              Litmus.o_node = e.Probe.c_node;
              o_kind = e.c_kind;
              o_loc = Types.Layout.index_of_line e.c_line;
              o_value = e.c_value;
            }
            :: !observations);
      fun () ->
        if reached (List.rev !observations) then
          [ "forbidden outcome reached: " ^ description ]
        else []

(* The one verdict on a finished run.  A run that did not drain fails
   once, with its stall report: the post-run checks hold only for a
   completed run. *)
let verdict ~sweep ~forbidden ~replay ~max_lines ~accesses sys (result : System.result) =
  match result.stall with
  | Some stall ->
      ([ "did not quiesce: " ^ Format.asprintf "%a" System.pp_stall_report stall ], None)
  | None -> (
      let commits = Sc_check.commits (System.checker sys) in
      let failures =
        (if commits <> accesses && owes_every_commit (System.config sys) then
           [ Printf.sprintf "committed %d of %d operations" commits accesses ]
         else [])
        @ (if result.violations > 0 then
             [ Printf.sprintf "%d memory-check violations" result.violations ]
           else [])
        @ forbidden ()
        @ result.invariant_errors
        @ List.map (fun v -> "stats: " ^ v) (Stats_check.check sys result)
        @ sweep ()
      in
      match failures with
      | [] when replay ->
          let outcome =
            Diff.replay ~max_lines ~seed:(System.config sys).Config.seed ~sys ()
          in
          ( List.map
              (fun (d : Diff.divergence) ->
                Printf.sprintf "diff: line %d@%d: %s"
                  (Types.Layout.index_of_line d.d_line)
                  (Types.Layout.home_of_line d.d_line)
                  d.d_detail)
              outcome.divergences,
            Some outcome )
      | failures -> (failures, None))

let judge ~diff ~max_lines ~max_events ~litmus sys programs =
  let replay = diff && (System.config sys).Config.protocol = Types.Adaptive in
  if replay then Sc_check.keep_history (System.checker sys);
  let sweep = attach sys in
  let forbidden = forbidden_check sys litmus in
  let report =
    {
      result = None;
      failures = [];
      events = [];
      diff = None;
      accesses = Pcc_workload.Gen.total_ops programs;
      faults = None;
      dump = None;
    }
  in
  match System.run_programs ~max_events sys programs with
  | exception Audit.Violation message ->
      (* the run stopped there: the clock and the ring are where it left them *)
      let failures = [ Printf.sprintf "t=%d: %s" (now sys) message ] in
      { report with failures; events = System.recent sys }
  | result ->
      let failures, diff =
        verdict ~sweep ~forbidden ~replay ~max_lines ~accesses:report.accesses sys
          result
      in
      {
        report with
        result = Some result;
        failures;
        events = (if failures = [] then [] else System.recent sys);
        diff;
        faults = System.fault_stats sys;
      }

let check ?litmus sys programs =
  judge ~diff:false ~max_lines:0 ~max_events:Trace.default.max_events ~litmus sys
    programs

let run ?(diff = true) ?(max_lines = 400) ?dump (desc : Trace.run_desc) =
  let sys = System.create ~config:(Trace.config_of_desc desc) () in
  let programs = Trace.programs_of_desc desc in
  let write failures =
    Option.iter
      (fun path ->
        let reason = List.hd (String.split_on_char '\n' (List.hd failures)) in
        System.write_flight_dump sys ~path ~reason ~run:(Trace.desc_to_json desc)
          ~failures)
      dump
  in
  let litmus = Pcc_workload.Workload.litmus desc.bench in
  match judge ~diff ~max_lines ~max_events:desc.max_events ~litmus sys programs with
  | exception exn ->
      let backtrace = Printexc.get_raw_backtrace () in
      write [ "uncaught exception: " ^ Printexc.to_string exn ];
      Printexc.raise_with_backtrace exn backtrace
  | { failures = []; _ } as report -> report
  | report ->
      write report.failures;
      { report with dump }

let clean report = report.failures = []
