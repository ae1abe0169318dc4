exception Job_failed of { key : string; exn : exn; backtrace : string }

let () =
  Printexc.register_printer (function
    | Job_failed { key; exn; _ } ->
        Some (Printf.sprintf "Job_failed(%s: %s)" key (Printexc.to_string exn))
    | _ -> None)

let available_cores () = max 1 (Domain.recommended_domain_count ())

let jobs_from_env () =
  match Sys.getenv_opt "PCC_JOBS" with
  | None -> None
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n >= 1 -> Some n
      | Some _ | None ->
          invalid_arg (Printf.sprintf "PCC_JOBS=%S: expected a positive integer" s))

let default_jobs () =
  match jobs_from_env () with Some n -> n | None -> available_cores ()

(* Process-wide job accounting for the metrics registry, tallied at
   collection time in the submitting domain, so the totals are identical
   at any pool size (jobs-1-vs-N byte-identity of metric exports). *)
let jobs_completed = Atomic.make 0
let jobs_failed = Atomic.make 0

type stats = { completed : int; failed : int }

let stats () = { completed = Atomic.get jobs_completed; failed = Atomic.get jobs_failed }

(* One job's outcome, stored at its submission index: its value or its
   [Job_failed]. *)
let run_job key thunk =
  match thunk () with
  | v -> Ok v
  | exception exn -> Error (Job_failed { key; exn; backtrace = Printexc.get_backtrace () })

(* Collect in submission order; the earliest failure wins. *)
let collect outcomes =
  Array.iter
    (function Ok _ -> Atomic.incr jobs_completed | Error _ -> Atomic.incr jobs_failed)
    outcomes;
  Array.to_list outcomes |> List.map (function Ok v -> v | Error failure -> raise failure)

let run_keyed ~jobs tasks =
  let tasks = Array.of_list tasks in
  let n = Array.length tasks in
  if jobs <= 1 || n <= 1 then
    (* Sequential fallback: same loop, same order, no pool domains. *)
    collect (Array.map (fun (key, thunk) -> run_job key thunk) tasks)
  else begin
    let outcomes = Array.make n (Error Not_found) in
    let next = Atomic.make 0 in
    (* Each worker claims the next unclaimed submission index; distinct
       indices mean workers never write the same outcome slot, and
       Domain.join publishes every slot to the collector. *)
    let rec worker () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let key, thunk = tasks.(i) in
        outcomes.(i) <- run_job key thunk;
        worker ()
      end
    in
    let helpers = List.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join helpers;
    collect outcomes
  end
