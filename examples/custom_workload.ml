(* Build a custom workload with the Gen API and run it across machine
   configurations — the template for studying your own sharing pattern.

     dune exec examples/custom_workload.exe

   Scenario: a software pipeline.  Stage k (node k) consumes buffers from
   stage k-1 and produces buffers for stage k+1 every iteration — one
   producer, one consumer per line, but the producer of a buffer is also
   the consumer of another, so every node is on both sides of the
   protocol at once.  A second line group models a "status board": one
   coordinator writes it, everyone polls it (wide sharing). *)

open Pcc
module Gen = Workload_gen

let nodes = 8

let spec =
  let pipeline_buffers =
    (* node k produces buffers homed at itself, consumed by node k+1 *)
    List.concat_map
      (fun node ->
        List.init 4 (fun i ->
            Gen.
              {
                line = Gen.shared_line ~home:node ((node * 4) + i);
                producer_of_phase = (fun _ -> node);
                consumers_of_phase = (fun _ -> [ (node + 1) mod nodes ]);
                writes_per_epoch = 1;
                reads_per_epoch = 1;
              }))
      (List.init nodes Fun.id)
  in
  let status_board =
    List.init 2 (fun i ->
        Gen.
          {
            line = Gen.shared_line ~home:0 (1000 + i);
            producer_of_phase = (fun _ -> 0);
            consumers_of_phase = (fun _ -> List.init (nodes - 1) (fun n -> n + 1));
            writes_per_epoch = 1;
            reads_per_epoch = 1;
          })
  in
  {
    Gen.name = "pipeline";
    nodes;
    phases = 1;
    epochs_per_phase = 30;
    lines = pipeline_buffers @ status_board;
    private_lines_per_node = 128;
    private_accesses_per_epoch = 8;
    private_write_fraction = 0.5;
    compute_per_epoch = 1500;
    seed = 7;
  }

let () =
  let programs = Gen.programs spec in
  Format.printf "Custom pipeline workload: %d nodes, %d memory accesses@.@." nodes
    (Gen.total_ops programs);
  (* Save/reload through a binary trace, proving the run is reproducible
     from the serialized trace alone (replay it with
     --workload trace:file=PATH on any CLI). *)
  let path = Filename.temp_file "pipeline" ".pcct" in
  Btrace.write ~path programs;
  let reloaded = Btrace.read ~path in
  Sys.remove path;
  assert (reloaded = Ok programs);
  let base = System.run ~config:(Config.base ~nodes ()) ~programs () in
  List.iter
    (fun (name, config) ->
      let r = System.run ~config ~programs () in
      Format.printf
        "%-24s %8d cycles  speedup %.2f  msgs %6d  remote misses %5d  rac hits %5d@."
        name r.System.cycles
        (float_of_int base.System.cycles /. float_of_int r.System.cycles)
        r.System.network_messages
        (Run_stats.remote_misses r.System.stats)
        r.System.stats.Run_stats.rac_hits)
    [
      ("base", Config.base ~nodes ());
      ("delegation only", Config.delegation_only ~nodes ());
      ("delegation+updates", Config.full ~nodes ());
    ];
  Format.printf "@.Every run is coherence-checked: %d violations.@." base.System.violations
