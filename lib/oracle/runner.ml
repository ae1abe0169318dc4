open Pcc_core

type report = {
  desc : Trace.run_desc;
  result : System.result option;
  violations : string list;
  events : Flight_ring.event list;
  diff : Diff.outcome option;
}

(* The directory-state auditor reads adaptive internals, so a snooping
   run gets the checker's online abort alone. *)
let attach sys =
  match (System.config sys).Config.protocol with
  | Types.Adaptive -> (
      let audit = Audit.attach sys in
      fun () ->
        try
          Audit.check_all audit;
          []
        with Audit.Violation { message; time; _ } ->
          [ Printf.sprintf "t=%d (final sweep): %s" time message ])
  | Types.Msi | Types.Mesi ->
      Audit.abort_on_violation sys;
      fun () -> []

(* The model-checker replay reads adaptive internals too; either way a
   failed run carries the flight ring's last events. *)
let run ?(diff = true) ?(max_lines = 400) (desc : Trace.run_desc) =
  let config = Trace.config_of_desc desc in
  let programs = Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  let replay = diff && config.protocol = Types.Adaptive in
  if replay then Sc_check.keep_history (System.checker sys);
  let sweep = attach sys in
  match System.run_programs sys programs with
  | exception Audit.Violation { message; time; events } ->
      let violations = [ Printf.sprintf "t=%d: %s" time message ] in
      { desc; result = None; violations; events; diff = None }
  | result ->
      let stats = List.map (fun v -> "stats: " ^ v) (Stats_check.check sys result) in
      let violations = sweep () @ result.System.invariant_errors @ stats in
      let diff_outcome, violations =
        if replay && violations = [] then
          let outcome = Diff.replay ~max_lines ~seed:desc.seed ~sys () in
          ( Some outcome,
            List.map
              (fun (d : Diff.divergence) ->
                Printf.sprintf "diff: line %d@%d: %s"
                  (Types.Layout.index_of_line d.d_line)
                  (Types.Layout.home_of_line d.d_line)
                  d.d_detail)
              outcome.divergences )
        else (None, violations)
      in
      let events = if violations = [] then [] else System.recent sys in
      { desc; result = Some result; violations; events; diff = diff_outcome }

let clean report = report.violations = []

let save_artifact ~path report =
  Trace.write ~path ~desc:report.desc ~violations:report.violations
    ~events:report.events
