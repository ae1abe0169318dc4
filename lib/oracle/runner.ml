open Pcc_core

type report = {
  desc : Trace.run_desc;
  result : System.result option;
  violations : string list;
  events : Flight_ring.event list;
  diff : Diff.outcome option;
}

type checks = { order : Order.t; sweep : unit -> string list }

(* The directory-state auditor reads adaptive internals, so a snooping
   run gets the per-address order tracker alone. *)
let attach sys =
  match (System.config sys).Config.protocol with
  | Types.Adaptive ->
      let audit = Audit.attach sys in
      let sweep () =
        try
          Audit.check_all audit;
          []
        with Audit.Violation { message; time; _ } ->
          [ Printf.sprintf "t=%d (final sweep): %s" time message ]
      in
      { order = Audit.order audit; sweep }
  | Types.Msi | Types.Mesi ->
      let order = Order.create ~keep_history:false () in
      System.on_commit sys (Order.record_commit order);
      { order; sweep = (fun () -> []) }

(* The model-checker replay reads adaptive internals too; either way a
   failed run carries the flight ring's last events. *)
let run ?(diff = true) ?(max_lines = 400) (desc : Trace.run_desc) =
  let config = Trace.config_of_desc desc in
  let programs = Trace.programs_of_desc desc in
  let sys = System.create ~config () in
  let checks = attach sys in
  let aborted violations events =
    { desc; result = None; violations; events; diff = None }
  in
  match System.run_programs sys programs with
  | exception Audit.Violation { message; time; events } ->
      aborted [ Printf.sprintf "t=%d: %s" time message ] events
  | exception Order.Violation message ->
      aborted [ "order: " ^ message ] (System.recent sys)
  | result ->
      let memory =
        if result.System.violations = 0 then []
        else List.map (fun v -> "memory check: " ^ v) (System.violation_report sys)
      in
      let stats = List.map (fun v -> "stats: " ^ v) (Stats_check.check sys result) in
      let violations = checks.sweep () @ memory @ result.System.invariant_errors @ stats in
      let diff_outcome, violations =
        if diff && violations = [] && config.protocol = Types.Adaptive then
          let outcome = Diff.replay ~max_lines ~seed:desc.seed ~sys ~order:checks.order () in
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
