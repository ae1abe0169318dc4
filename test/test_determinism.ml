(* The determinism guarantees behind the parallel experiment engine:

   - Event_queue against a sorted-list reference model (total order,
     FIFO within a cycle, cancellation, behaviour across grow/clear) —
     the queue's total order is what makes every simulation a pure
     function of its inputs.
   - Parallel-vs-sequential bit-identity over the full app×config
     matrix: fanning runs out across domains must not change a single
     byte of any run's canonical export.
   - Repeated-run stability: the same submission under the job runner
     yields the same bytes, run after run. *)

module Q = QCheck
module Event_queue = Pcc_engine.Event_queue
module Pool = Pcc_parallel.Pool
module Apps = Pcc_workload.Apps
open Pcc_core

(* ------------------------------------------------------------------ *)
(* Event_queue vs a sorted-list reference model                         *)
(* ------------------------------------------------------------------ *)

(* [Add] schedules a thunk, [Call] a typed event (a shared handler plus
   an int argument) and [Timer] a typed event with a handle; all draw
   from one insertion sequence, so FIFO within a cycle must hold across
   the kinds.  [Cancel k] cancels the handle of the [k]th timer ever
   scheduled (modulo their number): still queued, spent by running or
   by an earlier cancel, or taken before a [Clear]. *)
type model_op = Add of int | Call of int | Timer of int | Cancel of int | Pop | Clear

let op_gen =
  Q.Gen.(
    frequency
      [
        (3, map (fun t -> Add t) (int_bound 10));
        (2, map (fun t -> Call t) (int_bound 10));
        (2, map (fun t -> Timer t) (int_bound 10));
        (2, map (fun k -> Cancel k) (int_bound 1000));
        (4, return Pop);
        (1, return Clear);
      ])

let print_op = function
  | Add t -> Printf.sprintf "Add %d" t
  | Call t -> Printf.sprintf "Call %d" t
  | Timer t -> Printf.sprintf "Timer %d" t
  | Cancel k -> Printf.sprintf "Cancel %d" k
  | Pop -> "Pop"
  | Clear -> "Clear"

let print_ops ops = String.concat "; " (List.map print_op ops)

let ops_arbitrary = Q.make ~print:print_ops Q.Gen.(list_size (int_range 0 400) op_gen)

(* Reference: a list of (time, id) where FIFO within a cycle means a new
   entry goes after every entry with time <= t. *)
let model_insert model t id =
  let rec insert = function
    | (t', id') :: rest when t' <= t -> (t', id') :: insert rest
    | rest -> (t, id) :: rest
  in
  insert model

let check_against_model ops =
  let q = Event_queue.create () in
  let model = ref [] in
  let next_id = ref 0 in
  let popped = ref (-1) in
  (* every timer's (handle, id), newest first, and the ids cancelled *)
  let timers = ref [] and cancelled = Hashtbl.create 16 in
  (* one handler for every typed event, as the simulator's callers do:
     the event's identity travels in the int argument *)
  let record id =
    if Hashtbl.mem cancelled id then Q.Test.fail_reportf "cancelled event %d ran" id;
    popped := id
  in
  let agree label =
    if Event_queue.length q <> List.length !model then
      Q.Test.fail_reportf "%s: length %d, model %d" label (Event_queue.length q)
        (List.length !model);
    let expected_min = match !model with [] -> None | (t, _) :: _ -> Some t in
    if Event_queue.min_time q <> expected_min then
      Q.Test.fail_reportf "%s: min_time disagrees" label;
    if Event_queue.next_time q <> Option.value expected_min ~default:max_int then
      Q.Test.fail_reportf "%s: next_time disagrees" label;
    if Event_queue.is_empty q <> (!model = []) then
      Q.Test.fail_reportf "%s: is_empty disagrees" label
  in
  let run_next label =
    match !model with
    | [] -> Q.Test.fail_reportf "%s: model is empty" label
    | (t, id) :: rest ->
        if Event_queue.next_time q <> t then
          Q.Test.fail_reportf "%s: time %d, model expected %d" label
            (Event_queue.next_time q) t;
        popped := -1;
        Event_queue.run_next q;
        if !popped <> id then
          Q.Test.fail_reportf "%s: ran event %d, model expected %d (FIFO broken)" label
            !popped id;
        model := rest
  in
  List.iter
    (fun op ->
      (match op with
      | Add t ->
          let id = !next_id in
          incr next_id;
          Event_queue.add q ~time:t (fun () -> popped := id);
          model := model_insert !model t id
      | Call t ->
          let id = !next_id in
          incr next_id;
          Event_queue.add_call q ~time:t record id;
          model := model_insert !model t id
      | Timer t ->
          let id = !next_id in
          incr next_id;
          timers := (Event_queue.add_timer q ~time:t record id, id) :: !timers;
          model := model_insert !model t id
      | Cancel k -> (
          match !timers with
          | [] -> ()
          | all ->
              let handle, id = List.nth all (k mod List.length all) in
              Event_queue.cancel q handle;
              (* a queued event leaves; a spent handle cancels nothing,
                 which [agree] checks through the length *)
              if List.exists (fun (_, id') -> id' = id) !model then begin
                Hashtbl.replace cancelled id ();
                model := List.filter (fun (_, id') -> id' <> id) !model
              end)
      | Pop -> if not (Event_queue.is_empty q) then run_next "pop"
      | Clear ->
          Event_queue.clear q;
          model := []);
      agree "after op")
    ops;
  (* drain what is left: total order must hold to the end *)
  while not (Event_queue.is_empty q) do
    run_next "drain"
  done;
  if !model <> [] then Q.Test.fail_reportf "drain: model has %d left" (List.length !model);
  true

let event_queue_model =
  Q.Test.make ~count:300 ~name:"event queue agrees with sorted-list model"
    ops_arbitrary check_against_model

let event_queue_model_growth =
  (* long same-time runs of every kind force grow, cancels take events
     out of the middle of the heap, and a clear in the middle recycles
     every slot (and spends every handle), while FIFO must survive *)
  let adds =
    Q.Gen.(
      list_repeat 300
        (map2
           (fun kind t ->
             match kind with
             | 0 -> Add (t mod 3)
             | 1 -> Call (t mod 3)
             | 2 -> Timer (t mod 3)
             | _ -> Cancel t)
           (int_bound 3) (int_bound 1000)))
  in
  Q.Test.make ~count:50 ~name:"event queue model across grow"
    (Q.make ~print:(fun (a, b) -> print_ops (a @ (Clear :: b))) Q.Gen.(pair adds adds))
    (fun (first, second) ->
      check_against_model
        (first @ List.init 100 (fun _ -> Pop) @ (Clear :: second)
        @ List.init 300 (fun _ -> Pop)))

(* ------------------------------------------------------------------ *)
(* Parallel-vs-sequential bit-identity over the app×config matrix       *)
(* ------------------------------------------------------------------ *)

let matrix_nodes = 8

let matrix_scale = 0.15

let matrix_configs () =
  let nodes = matrix_nodes in
  [
    Config.base ~nodes ();
    Config.rac_only ~nodes ();
    Config.small_full ~nodes ();
    Config.large_full ~nodes ();
    Config.full ~nodes ~rac_bytes:(32 * 1024) ~delegate_entries:1024 ();
    Config.full ~nodes ~rac_bytes:(1024 * 1024) ~delegate_entries:32 ();
  ]

(* One canonical byte string per cell, via the same encoder the bench
   --json artifact uses. *)
let matrix_tasks () =
  List.concat_map
    (fun app ->
      let programs = Apps.programs app ~scale:matrix_scale ~nodes:matrix_nodes () in
      List.map
        (fun config ->
          let key = Printf.sprintf "%s/%s" app.Apps.name (Config.describe config) in
          (key, fun () -> Run_export.to_string ~key (System.run ~config ~programs ())))
        (matrix_configs ()))
    Apps.all

let test_matrix_bit_identity () =
  let sequential = Pool.run_keyed ~jobs:1 (matrix_tasks ()) in
  let parallel = Pool.run_keyed ~jobs:4 (matrix_tasks ()) in
  List.iteri
    (fun i (s, p) ->
      if s <> p then
        Alcotest.failf "cell %d diverged between sequential and parallel runs:\n%s\n%s" i
          s p)
    (List.combine sequential parallel);
  Alcotest.(check int) "full matrix covered"
    (List.length Apps.all * List.length (matrix_configs ()))
    (List.length parallel)

let test_repeated_run_stability () =
  (* the same submission, three times, two pool widths: same bytes *)
  let subset () =
    List.filteri (fun i _ -> i mod 7 < 2) (matrix_tasks ())
  in
  let first = Pool.run_keyed ~jobs:4 (subset ()) in
  let second = Pool.run_keyed ~jobs:4 (subset ()) in
  let third = Pool.run_keyed ~jobs:2 (subset ()) in
  Alcotest.(check (list string)) "stable across repeats" first second;
  Alcotest.(check (list string)) "stable across widths" first third

(* ------------------------------------------------------------------ *)
(* Trace-driven runs: streaming replay is jobs-level bit-identical       *)
(* ------------------------------------------------------------------ *)

let test_trace_replay_bit_identity () =
  (* record an app to a binary trace, then fan trace-driven streaming
     runs across the pool: jobs 1 and jobs 2 must produce the same bytes
     as each other and as the direct materialized run *)
  let path = Filename.temp_file "pcc_det" ".pcct" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let programs =
        Apps.programs Apps.em3d ~scale:matrix_scale ~nodes:matrix_nodes ()
      in
      Pcc_workload.Btrace.write ~path programs;
      let spec = "trace:file=" ^ path in
      let tasks () =
        List.map
          (fun config ->
            let key = Printf.sprintf "trace/%s" (Config.describe config) in
            (* resolve per task in the main domain; the worker only pulls
               the stream (a fresh channel per call, no shared state) *)
            let workload =
              match
                Pcc_workload.Workload.of_spec ~nodes:matrix_nodes
                  ~scale:matrix_scale ~seed:1 spec
              with
              | Ok w -> w
              | Error m -> Alcotest.fail m
            in
            ( key,
              fun () ->
                let sys = System.create ~config () in
                Run_export.to_string ~key
                  (System.run_stream sys (Pcc_workload.Workload.stream workload)) ))
          (matrix_configs ())
      in
      let sequential = Pool.run_keyed ~jobs:1 (tasks ()) in
      let parallel = Pool.run_keyed ~jobs:2 (tasks ()) in
      Alcotest.(check (list string)) "jobs 1 = jobs 2" sequential parallel;
      let direct =
        List.map
          (fun config ->
            let key = Printf.sprintf "trace/%s" (Config.describe config) in
            Run_export.to_string ~key (System.run ~config ~programs ()))
          (matrix_configs ())
      in
      Alcotest.(check (list string)) "replay = direct materialized run" direct
        sequential)

let suite =
  [
    QCheck_alcotest.to_alcotest event_queue_model;
    QCheck_alcotest.to_alcotest event_queue_model_growth;
    Alcotest.test_case "parallel = sequential over app×config matrix" `Slow
      test_matrix_bit_identity;
    Alcotest.test_case "repeated runs stable under the pool" `Slow
      test_repeated_run_stability;
    Alcotest.test_case "trace replay bit-identical across jobs levels" `Quick
      test_trace_replay_bit_identity;
  ]
