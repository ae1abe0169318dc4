(* Run one workload with the online coherence oracle attached, then
   replay its committed operations through the model checker — and watch
   the same oracle catch a deliberately planted protocol bug.

     dune exec examples/oracle_demo.exe *)

module Oracle = Pcc.Oracle

let () =
  (* a clean oracle-checked run: online invariants after every event,
     order checking on every commit, statistics identities at the end,
     then the differential replay against the abstract model *)
  let desc = { Oracle.Trace.default with bench = "em3d"; seed = 11 } in
  let report = Oracle.Runner.run desc in
  Format.printf "em3d under the full machine: %s@."
    (if Oracle.Runner.clean report then "oracle clean" else "ORACLE FAILED");
  (match report.diff with
  | Some outcome -> Format.printf "%a@." Oracle.Diff.pp_outcome outcome
  | None -> ());
  (* now plant the paper's nastiest class of bug: speculative updates
     that forget to re-add the pushed consumers to the sharing vector *)
  Format.printf "@.injecting the stale-update fault...@.";
  let rec hunt seed =
    if seed > 10 then Format.printf "fault not triggered in 10 seeds@."
    else
      let desc = { Oracle.Trace.default with seed; fault = true } in
      let report = Oracle.Runner.run ~diff:false desc in
      if Oracle.Runner.clean report then hunt (seed + 1)
      else begin
        Format.printf "caught at seed %d:@." seed;
        List.iter (Format.printf "  %s@.") report.failures;
        Format.printf "last %d events before the violation:@."
          (List.length report.events);
        List.iter (Format.printf "  %a@." Pcc.Flight_ring.pp_event) report.events
      end
  in
  hunt 1
