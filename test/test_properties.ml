(* Property-based tests (qcheck): random workloads must never violate
   coherence under any protocol configuration, and the core data
   structures must agree with simple reference models. *)

open Pcc_core
module Q = QCheck

(* ---------------- random-program coherence ---------------- *)

(* Generate a random barrier-synchronized program over a small set of
   shared lines and run it under a given machine configuration; the
   embedded memory checker and the quiescence invariants are the oracle. *)
let random_programs rand ~nodes ~lines ~epochs ~ops_per_epoch =
  let line i = Types.Layout.make_line ~home:(i mod nodes) ~index:i in
  Array.init nodes (fun _ ->
      List.concat
        (List.init epochs (fun e ->
             let ops =
               List.init ops_per_epoch (fun _ ->
                   let l = line (Random.State.int rand lines) in
                   if Random.State.bool rand then Types.Access (Types.Load, l)
                   else Types.Access (Types.Store, l))
             in
             ops @ [ Types.Barrier (e + 1) ])))

let coherence_property config_of_name name =
  Q.Test.make ~count:25 ~name
    Q.(pair small_int small_int)
    (fun (seed, shape) ->
      let rand = Random.State.make [| seed; shape |] in
      let nodes = 2 + (shape mod 3) in
      let programs =
        random_programs rand ~nodes
          ~lines:(1 + (shape mod 4))
          ~epochs:(2 + (seed mod 4))
          ~ops_per_epoch:(1 + (shape mod 5))
      in
      let config = config_of_name ~nodes in
      let result = System.run ~config ~programs () in
      if result.System.violations <> 0 then
        Q.Test.fail_reportf "coherence violations under %s" (Config.describe config);
      if result.System.invariant_errors <> [] then
        Q.Test.fail_reportf "invariant errors under %s: %s" (Config.describe config)
          (String.concat "; " result.System.invariant_errors);
      if result.System.outcome <> Pcc_engine.Simulator.Drained then
        Q.Test.fail_reportf "did not drain under %s" (Config.describe config);
      true)

let prop_base_coherent =
  coherence_property (fun ~nodes -> Config.base ~nodes ()) "random programs: base coherent"

let prop_rac_coherent =
  coherence_property
    (fun ~nodes -> Config.rac_only ~nodes ())
    "random programs: rac coherent"

let prop_delegation_coherent =
  coherence_property
    (fun ~nodes -> Config.delegation_only ~nodes ())
    "random programs: delegation coherent"

let prop_full_coherent =
  coherence_property
    (fun ~nodes -> Config.full ~nodes ())
    "random programs: full coherent"

let prop_full_tiny_structures_coherent =
  coherence_property
    (fun ~nodes ->
      {
        (Config.full ~nodes ()) with
        Config.l2_bytes = 4 * 128;
        l2_ways = 4;
        rac_bytes = 4 * 128;
        rac_ways = 4;
        delegate_entries = 4;
        delegate_ways = 4;
        intervention_delay = 10;
      })
    "random programs: tiny structures coherent"

(* an aggressive predictor (threshold 1) delegates constantly: races
   between delegation, recalls and updates get exercised hard *)
let prop_aggressive_delegation_coherent =
  coherence_property
    (fun ~nodes -> { (Config.full ~nodes ()) with Config.write_repeat_threshold = 1 })
    "random programs: aggressive delegation coherent"

(* ---------------- cache vs reference model ---------------- *)

let prop_cache_matches_reference =
  Q.Test.make ~count:200 ~name:"cache agrees with reference association list"
    Q.(list (pair (int_bound 40) (int_bound 1000)))
    (fun operations ->
      (* single-set fully-associative cache vs a recency list *)
      let ways = 4 in
      let cache =
        Pcc_memory.Cache.create ~rng:(Pcc_engine.Rng.create ~seed:1) ~sets:1 ~ways ()
      in
      (* reference: most-recent-first association list, bounded to [ways] *)
      let reference = ref [] in
      List.iter
        (fun (key, value) ->
          (match Pcc_memory.Cache.insert cache key value with
          | Pcc_memory.Cache.Inserted _ -> ()
          | Pcc_memory.Cache.All_ways_pinned -> failwith "nothing pinned");
          let without = List.remove_assoc key !reference in
          reference := (key, value) :: without;
          if List.length !reference > ways then
            reference :=
              List.filteri (fun i _ -> i < ways) !reference)
        operations;
      List.for_all
        (fun (key, value) -> Pcc_memory.Cache.peek cache key = Some value)
        !reference
      && Pcc_memory.Cache.size cache = List.length !reference)

(* ---------------- predictor hysteresis ---------------- *)

(* The write-repeat counter must saturate at the configured threshold and
   drop straight back to zero the moment a different node writes — the
   hysteresis that keeps one migratory write from flagging a block. *)
let prop_predictor_hysteresis =
  Q.Test.make ~count:300 ~name:"predictor: write-repeat bounded, resets on writer change"
    Q.(pair (int_range 1 3) (small_list (pair (int_bound 3) bool)))
    (fun (threshold, script) ->
      let params =
        { Predictor.write_repeat_threshold = threshold; reader_count_max = 3 }
      in
      let entry = Predictor.fresh () in
      let last_writer = ref None in
      List.for_all
        (fun (node, is_write) ->
          if is_write then begin
            let changed =
              match !last_writer with Some w -> w <> node | None -> false
            in
            Predictor.record_write params entry ~writer:node;
            last_writer := Some node;
            Predictor.write_repeat entry <= threshold
            && ((not changed) || Predictor.write_repeat entry = 0)
            && Predictor.is_producer_consumer params entry
               = (Predictor.write_repeat entry >= threshold)
          end
          else begin
            Predictor.record_read params entry ~reader:node ~unique:true;
            Predictor.write_repeat entry <= threshold
          end)
        script)

(* ---------------- nodeset vs stdlib Set ---------------- *)

module Int_set = Set.Make (Int)

let prop_nodeset_matches_set =
  Q.Test.make ~count:300 ~name:"nodeset agrees with stdlib Set"
    Q.(pair (small_list (int_bound 61)) (small_list (int_bound 61)))
    (fun (xs, ys) ->
      let ns_a = Nodeset.of_list xs and ns_b = Nodeset.of_list ys in
      let set_a = Int_set.of_list xs and set_b = Int_set.of_list ys in
      Nodeset.to_list (Nodeset.union ns_a ns_b) = Int_set.elements (Int_set.union set_a set_b)
      && Nodeset.to_list (Nodeset.diff ns_a ns_b) = Int_set.elements (Int_set.diff set_a set_b)
      && Nodeset.cardinal ns_a = Int_set.cardinal set_a
      && List.for_all (fun x -> Nodeset.mem ns_a x = Int_set.mem x set_a) (xs @ ys))

(* A second, independent reference: drive the same add/remove script
   through Nodeset and a sorted-unique list, comparing every observer
   after each step. *)
let prop_nodeset_add_remove_matches_list =
  Q.Test.make ~count:300 ~name:"nodeset add/remove agrees with a list reference"
    Q.(small_list (pair (int_bound 61) bool))
    (fun script ->
      let ns = ref Nodeset.empty and reference = ref [] in
      List.for_all
        (fun (x, add) ->
          if add then begin
            ns := Nodeset.add !ns x;
            reference := List.sort_uniq compare (x :: !reference)
          end
          else begin
            ns := Nodeset.remove !ns x;
            reference := List.filter (fun y -> y <> x) !reference
          end;
          Nodeset.to_list !ns = !reference
          && Nodeset.cardinal !ns = List.length !reference
          && Nodeset.is_empty !ns = (!reference = [])
          && Nodeset.mem !ns x = List.mem x !reference
          && Nodeset.fold (fun y acc -> y + acc) !ns 0
             = List.fold_left ( + ) 0 !reference
          && Nodeset.equal !ns (Nodeset.of_list !reference))
        script)

(* ---------------- histogram properties ---------------- *)

let prop_histogram_total =
  Q.Test.make ~count:200 ~name:"histogram total = sum of buckets"
    Q.(small_list (int_bound 20))
    (fun samples ->
      let h = Pcc_stats.Histogram.create () in
      List.iter (Pcc_stats.Histogram.observe h) samples;
      let bucket_sum =
        List.fold_left (fun acc (_, c) -> acc + c) 0 (Pcc_stats.Histogram.to_alist h)
      in
      Pcc_stats.Histogram.count h = List.length samples && bucket_sum = List.length samples)

(* ---------------- summary properties ---------------- *)

let prop_geomean_bounds =
  Q.Test.make ~count:200 ~name:"geometric mean within min..max"
    Q.(list_of_size (Gen.int_range 1 8) (float_range 0.1 100.0))
    (fun values ->
      let g = Pcc_stats.Summary.geometric_mean values in
      let lo = List.fold_left min infinity values in
      let hi = List.fold_left max neg_infinity values in
      g >= lo -. 1e-9 && g <= hi +. 1e-9)

(* ---------------- memory checker properties ---------------- *)

(* Operations take turns across four nodes, so the serial history also
   exercises per-node monotonicity. *)
let prop_memcheck_accepts_serial_execution =
  Q.Test.make ~count:200 ~name:"memcheck accepts any serial execution"
    Q.(small_list bool)
    (fun ops ->
      let m = Sc_check.create ~nodes:4 in
      let current = ref 0 and time = ref 0 in
      List.iter
        (fun is_store ->
          incr time;
          let node = !time land 3 in
          if is_store then begin
            current := !time;
            Sc_check.commit m ~node ~kind:Types.Store ~line:1 ~value:!current
              ~started:!time ~time:!time
          end
          else
            Sc_check.commit m ~node ~kind:Types.Load ~line:1 ~value:!current
              ~started:!time ~time:!time)
        ops;
      Sc_check.violations m = 0)

(* ---------------- rng properties ---------------- *)

let prop_rng_int_in_bounds =
  Q.Test.make ~count:500 ~name:"rng int stays in bounds"
    Q.(pair int (int_range 1 1_000_000))
    (fun (seed, bound) ->
      let rng = Pcc_engine.Rng.create ~seed in
      let v = Pcc_engine.Rng.int rng ~bound in
      v >= 0 && v < bound)

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_base_coherent;
      prop_rac_coherent;
      prop_delegation_coherent;
      prop_full_coherent;
      prop_full_tiny_structures_coherent;
      prop_aggressive_delegation_coherent;
      prop_cache_matches_reference;
      prop_predictor_hysteresis;
      prop_nodeset_matches_set;
      prop_nodeset_add_remove_matches_list;
      prop_histogram_total;
      prop_geomean_bounds;
      prop_memcheck_accepts_serial_execution;
      prop_rng_int_in_bounds;
    ]
