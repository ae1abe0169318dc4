(* Unit tests for the domain-pool job runner: submission-order results,
   keyed exception propagation, and equality between the sequential
   fallback and every parallel width. *)

module Pool = Pcc_parallel.Pool

let jobs_levels = [ 1; 2; 4; 7 ]

(* A little deterministic busywork so jobs finish out of submission
   order when run concurrently. *)
let busywork n =
  let acc = ref 0 in
  for i = 1 to (n * 7919) mod 50_000 do
    acc := (!acc * 31) + i
  done;
  !acc

let test_submission_order () =
  let tasks =
    List.init 20 (fun i ->
        ( Printf.sprintf "job%d" i,
          fun () ->
            ignore (busywork (20 - i));
            i ))
  in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "order at jobs=%d" jobs)
        (List.init 20 Fun.id) (Pool.run_keyed ~jobs tasks))
    jobs_levels

let test_empty_and_singleton () =
  List.iter
    (fun jobs ->
      Alcotest.(check (list int)) "empty" [] (Pool.run_keyed ~jobs []);
      Alcotest.(check (list int)) "singleton" [ 7 ]
        (Pool.run_keyed ~jobs [ ("only", fun () -> 7) ]))
    jobs_levels

let test_exception_carries_key () =
  let tasks =
    List.init 10 (fun i ->
        ( Printf.sprintf "job%d" i,
          fun () -> if i = 6 then failwith "boom" else i ))
  in
  List.iter
    (fun jobs ->
      match Pool.run_keyed ~jobs tasks with
      | _ -> Alcotest.failf "jobs=%d: expected Job_failed" jobs
      | exception Pool.Job_failed { key; exn; _ } ->
          Alcotest.(check string) "failing key" "job6" key;
          Alcotest.(check bool) "original exception" true
            (match exn with Failure msg -> String.equal msg "boom" | _ -> false))
    jobs_levels

let test_first_failure_wins () =
  (* several failures: the one earliest in submission order is reported,
     independent of completion order *)
  let tasks =
    List.init 12 (fun i ->
        ( Printf.sprintf "job%d" i,
          fun () ->
            ignore (busywork (12 - i));
            if i mod 4 = 3 then failwith "boom" else i ))
  in
  List.iter
    (fun jobs ->
      match Pool.run_keyed ~jobs tasks with
      | _ -> Alcotest.failf "jobs=%d: expected Job_failed" jobs
      | exception Pool.Job_failed { key; _ } ->
          Alcotest.(check string)
            (Printf.sprintf "earliest failure at jobs=%d" jobs)
            "job3" key)
    jobs_levels

let test_all_jobs_run () =
  (* every thunk runs exactly once, whatever the pool width *)
  List.iter
    (fun jobs ->
      let ran = Array.make 50 0 in
      let tasks =
        List.init 50 (fun i ->
            ( string_of_int i,
              fun () ->
                (* distinct slots: no two jobs touch the same cell *)
                ran.(i) <- ran.(i) + 1 ))
      in
      ignore (Pool.run_keyed ~jobs tasks);
      Alcotest.(check (array int))
        (Printf.sprintf "each ran once at jobs=%d" jobs)
        (Array.make 50 1) ran)
    jobs_levels

let test_default_jobs_positive () =
  Alcotest.(check bool) "available_cores >= 1" true (Pool.available_cores () >= 1);
  (* PCC_JOBS is not set in the test environment, so default_jobs falls
     back to the core count *)
  match Sys.getenv_opt "PCC_JOBS" with
  | Some _ -> ()
  | None ->
      Alcotest.(check int) "default = cores" (Pool.available_cores ())
        (Pool.default_jobs ())

let suite =
  [
    Alcotest.test_case "results in submission order" `Quick test_submission_order;
    Alcotest.test_case "empty and singleton task lists" `Quick test_empty_and_singleton;
    Alcotest.test_case "exception carries failing key" `Quick test_exception_carries_key;
    Alcotest.test_case "earliest failure wins" `Quick test_first_failure_wins;
    Alcotest.test_case "every job runs exactly once" `Quick test_all_jobs_run;
    Alcotest.test_case "default jobs positive" `Quick test_default_jobs_positive;
  ]
