module Rng = Pcc_engine.Rng

type app = {
  name : string;
  problem_size : string;
  min_nodes : int;
  spec : scale:float -> nodes:int -> seed:int -> Gen.app_spec;
}

let scaled scale x = max 1 (int_of_float (Float.round (scale *. float_of_int x)))

(* Choose the home node for a line: first-touch places data at its
   producer; [remote_fraction] of lines end up homed elsewhere (initial
   touch by another thread, migrated producers, ...). *)
let choose_home rng ~nodes ~producer ~remote_fraction =
  if Rng.bool rng ~p:remote_fraction then begin
    let other = Rng.int rng ~bound:(nodes - 1) in
    if other >= producer then other + 1 else other
  end
  else producer

(* A line with a producer and consumer set fixed for the whole run. *)
let static_line ~line ~producer ~consumers ~writes ~reads =
  Gen.
    {
      line;
      producer_of_phase = (fun _ -> producer);
      consumers_of_phase = (fun _ -> consumers);
      writes_per_epoch = writes;
      reads_per_epoch = reads;
    }

(* A line whose producer and consumers are re-drawn every phase. *)
let phased_line ~line ~phases ~producer_of ~consumers_of ~writes ~reads =
  let producers = Array.init phases producer_of in
  let consumers = Array.init phases consumers_of in
  Gen.
    {
      line;
      producer_of_phase = (fun p -> producers.(p));
      consumers_of_phase = (fun p -> consumers.(p));
      writes_per_epoch = writes;
      reads_per_epoch = reads;
    }

(* ------------------------------------------------------------------ *)

let barnes =
  {
    name = "Barnes";
    problem_size = "16384 nodes, 123 seed";
    min_nodes = 2;
    spec =
      (fun ~scale ~nodes ~seed ->
        let rng = Rng.create ~seed:(seed + 0xB0) in
        let phases = 4 in
        let lines_per_node = 36 in
        (* octree cells: heavy multi-consumer sharing (Table 3: 61.7% of
           epochs have 4+ consumers), producers migrate as the tree is
           rebuilt every phase *)
        let dist = [ (1, 0.139); (2, 0.068); (3, 0.094); (4, 0.081); (6, 0.617) ] in
        let lines =
          List.init (lines_per_node * nodes) (fun i ->
              let home = i mod nodes in
              let line = Gen.shared_line ~home i in
              let base = Rng.int rng ~bound:nodes in
              let stride = 1 + Rng.int rng ~bound:(nodes - 1) in
              phased_line ~line ~phases
                ~producer_of:(fun p -> (base + (p * stride)) mod nodes)
                ~consumers_of:(fun p ->
                  let producer = (base + (p * stride)) mod nodes in
                  Gen.Consumers.sample_dist ~rng ~nodes ~exclude:producer ~dist)
                ~writes:1 ~reads:1)
        in
        {
          Gen.name = "Barnes";
          nodes;
          phases;
          epochs_per_phase = scaled scale 8;
          lines;
          private_lines_per_node = 256;
          private_accesses_per_epoch = 10;
          private_write_fraction = 0.4;
          compute_per_epoch = 5400;
          seed;
        });
  }

let ocean =
  {
    name = "Ocean";
    problem_size = "258*258 array, 1e-7 error tolerance";
    min_nodes = 1;
    spec =
      (fun ~scale ~nodes ~seed ->
        let rng = Rng.create ~seed:(seed + 0x0C) in
        let lines_per_node = 8 in
        (* strip partitioning: boundary rows produced by their owner and
           consumed by the single neighbouring processor; first touch
           homes each row at its producer *)
        let lines =
          List.concat_map
            (fun node ->
              List.init lines_per_node (fun i ->
                  let line = Gen.shared_line ~home:node ((node * lines_per_node) + i) in
                  let consumers =
                    if Rng.bool rng ~p:0.023 then
                      Gen.Consumers.sample ~rng ~nodes ~exclude:node ~count:2
                    else Gen.Consumers.ring_neighbor ~nodes node
                  in
                  static_line ~line ~producer:node ~consumers ~writes:1 ~reads:1))
            (List.init nodes Fun.id)
        in
        {
          Gen.name = "Ocean";
          nodes;
          phases = 1;
          epochs_per_phase = scaled scale 40;
          lines;
          private_lines_per_node = 256;
          private_accesses_per_epoch = 16;
          private_write_fraction = 0.5;
          compute_per_epoch = 5600;
          seed;
        });
  }

let em3d =
  {
    name = "Em3D";
    problem_size = "38400 nodes, degree 5, 15% remote";
    min_nodes = 2;
    spec =
      (fun ~scale ~nodes ~seed ->
        let rng = Rng.create ~seed:(seed + 0xE3) in
        (* communication-dominated bipartite graph; distribution span
           gives 1-2 consumers per produced value and 15% of the links
           put producer and home on different nodes *)
        let lines_per_node = 12 in
        let dist = [ (1, 0.678); (2, 0.322) ] in
        let lines =
          List.init (lines_per_node * nodes) (fun i ->
              let producer = i mod nodes in
              let home = choose_home rng ~nodes ~producer ~remote_fraction:0.15 in
              let line = Gen.shared_line ~home i in
              let consumers =
                Gen.Consumers.sample_dist ~rng ~nodes ~exclude:producer ~dist
              in
              static_line ~line ~producer ~consumers ~writes:1 ~reads:1)
        in
        {
          Gen.name = "Em3D";
          nodes;
          phases = 1;
          epochs_per_phase = scaled scale 40;
          lines;
          private_lines_per_node = 64;
          private_accesses_per_epoch = 2;
          private_write_fraction = 0.5;
          compute_per_epoch = 11000;
          seed;
        });
  }

let lu =
  {
    name = "LU";
    problem_size = "16*16*16 nodes, 50 testes";
    min_nodes = 1;
    spec =
      (fun ~scale ~nodes ~seed ->
        let rng = Rng.create ~seed:(seed + 0x10) in
        ignore rng;
        (* 2D partitioning: boundary columns flow to the successor
           processor in the SOR pipeline (99.4% single consumer) *)
        let lines_per_node = 10 in
        let lines =
          List.concat_map
            (fun node ->
              List.init lines_per_node (fun i ->
                  let line = Gen.shared_line ~home:node ((node * lines_per_node) + i) in
                  static_line ~line ~producer:node
                    ~consumers:(Gen.Consumers.ring_neighbor ~nodes node)
                    ~writes:1 ~reads:1))
            (List.init nodes Fun.id)
        in
        {
          Gen.name = "LU";
          nodes;
          phases = 1;
          epochs_per_phase = scaled scale 40;
          lines;
          private_lines_per_node = 128;
          private_accesses_per_epoch = 6;
          private_write_fraction = 0.5;
          compute_per_epoch = 500;
          seed;
        });
  }

let cg =
  {
    name = "CG";
    problem_size = "1400 nodes, 15 iteration";
    min_nodes = 2;
    spec =
      (fun ~scale ~nodes ~seed ->
        let rng = Rng.create ~seed:(seed + 0xC6) in
        let phases = scaled scale 30 in
        (* stable broadcast lines: the reduced vector fragments every
           processor reads (99.7% of detected epochs have 4+ consumers) *)
        let broadcast =
          List.init (2 * nodes) (fun i ->
              let producer = i mod nodes in
              let home = choose_home rng ~nodes ~producer ~remote_fraction:0.5 in
              let line = Gen.shared_line ~home i in
              let count = min (nodes - 1) (8 + Rng.int rng ~bound:7) in
              let consumers =
                Gen.Consumers.sample ~rng ~nodes ~exclude:producer ~count
              in
              static_line ~line ~producer ~consumers ~writes:1 ~reads:1)
        in
        (* false sharing in the sparse-matrix representation: several
           processors write disjoint words of one line, so the writer
           alternates and the detector (correctly) never marks it *)
        let false_shared =
          List.init (4 * nodes) (fun i ->
              let base = Rng.int rng ~bound:nodes in
              let home = Rng.int rng ~bound:nodes in
              let line = Gen.shared_line ~home ((2 * nodes) + i) in
              phased_line ~line ~phases
                ~producer_of:(fun p -> (base + p) mod nodes)
                ~consumers_of:(fun p ->
                  Gen.Consumers.sample ~rng ~nodes ~exclude:((base + p) mod nodes)
                    ~count:2)
                ~writes:1 ~reads:1)
        in
        {
          Gen.name = "CG";
          nodes;
          phases;
          epochs_per_phase = 1;
          lines = broadcast @ false_shared;
          private_lines_per_node = 512;
          private_accesses_per_epoch = 40;
          private_write_fraction = 0.3;
          compute_per_epoch = 100000;
          seed;
        });
  }

let mg =
  {
    name = "MG";
    problem_size = "32*32*32 nodes, 4 steps";
    min_nodes = 2;
    spec =
      (fun ~scale ~nodes ~seed ->
        let rng = Rng.create ~seed:(seed + 0x36) in
        (* V-cycle: wide sharing at coarse grids (91.6% 4+ consumers) and
           more producer-consumer lines per node than a 32-entry producer
           table can hold *)
        let lines_per_node = 44 in
        let dist = [ (2, 0.003); (3, 0.067); (4, 0.014); (5, 0.916) ] in
        let lines =
          List.init (lines_per_node * nodes) (fun i ->
              let producer = i mod nodes in
              let home = choose_home rng ~nodes ~producer ~remote_fraction:0.5 in
              let line = Gen.shared_line ~home i in
              let consumers =
                Gen.Consumers.sample_dist ~rng ~nodes ~exclude:producer ~dist
              in
              static_line ~line ~producer ~consumers ~writes:1 ~reads:1)
        in
        {
          Gen.name = "MG";
          nodes;
          phases = 1;
          epochs_per_phase = scaled scale 10;
          lines;
          private_lines_per_node = 256;
          private_accesses_per_epoch = 8;
          private_write_fraction = 0.4;
          compute_per_epoch = 90000;
          seed;
        });
  }

let appbt =
  {
    name = "Appbt";
    problem_size = "16*16*16 nodes, 60 timesteps";
    min_nodes = 2;
    spec =
      (fun ~scale ~nodes ~seed ->
        let rng = Rng.create ~seed:(seed + 0xAB) in
        (* subcube faces: half the traffic goes to one face neighbour,
           a third is broadcast widely (Table 3: 51% single consumer,
           36.7% 4+); per-consumer pushed-update working set exceeds a
           32 KB RAC *)
        let lines_per_node = 40 in
        let dist =
          [ (1, 0.51); (2, 0.075); (3, 0.029); (4, 0.018); (14, 0.367) ]
        in
        let lines =
          List.init (lines_per_node * nodes) (fun i ->
              let producer = i mod nodes in
              let home = choose_home rng ~nodes ~producer ~remote_fraction:0.4 in
              let line = Gen.shared_line ~home i in
              let consumers =
                Gen.Consumers.sample_dist ~rng ~nodes ~exclude:producer ~dist
              in
              static_line ~line ~producer ~consumers ~writes:1 ~reads:1)
        in
        {
          Gen.name = "Appbt";
          nodes;
          phases = 1;
          epochs_per_phase = scaled scale 10;
          lines;
          private_lines_per_node = 256;
          private_accesses_per_epoch = 8;
          private_write_fraction = 0.4;
          compute_per_epoch = 60000;
          seed;
        });
  }

let all = [ barnes; ocean; em3d; lu; cg; mg; appbt ]

let find name =
  let lowered = String.lowercase_ascii name in
  List.find_opt (fun app -> String.lowercase_ascii app.name = lowered) all

let programs app ?(scale = 1.0) ?(seed = 1) ~nodes () =
  Gen.programs (app.spec ~scale ~nodes ~seed)
