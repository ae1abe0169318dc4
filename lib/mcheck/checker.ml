module type MODEL = sig
  type state

  val initial : state list

  val successors : state -> (string * state) list

  val por : (state -> (string * state) list list) option

  val invariants : (string * (state -> bool)) list

  val is_quiescent : state -> bool

  val encode : state -> string

  val pp : Format.formatter -> state -> unit
end

type stats = {
  states_explored : int;
  transitions : int;
  max_depth : int;
  complete : bool;
}

type 'state outcome =
  | Ok of stats
  | Invariant_violation of {
      invariant : string;
      state : 'state;
      trace : string list;
      stats : stats;
    }
  | Deadlock of { state : 'state; trace : string list; stats : stats }

let digest_bytes = 16 (* Digest.t = MD5 = 16 bytes *)

(* ------------------------------------------------------------------ *)
(* Visited set: in-memory hash table or a disk-resident sorted run     *)
(* ------------------------------------------------------------------ *)

(* The spilled representation is a single file of sorted 16-byte digests
   ("chunked hash file": each level contributes one sorted chunk, merged
   into the run so membership stays a single sequential scan).  Both
   operations — batch membership and batch insert — stream the run once
   per level, so resident memory is bounded by the frontier, never by
   the visited set. *)
module Spill = struct
  type t = { dir : string; mutable run : string; mutable generation : int }

  let create ~dir =
    let run = Filename.concat dir "visited-0.run" in
    Out_channel.with_open_bin run (fun _ -> ());
    { dir; run; generation = 0 }

  let read_digest ic = In_channel.really_input_string ic digest_bytes

  (* [sorted] must be strictly increasing.  Returns the members of
     [sorted] already present, as a hash table. *)
  let known d sorted =
    let hits = Hashtbl.create 1024 in
    In_channel.with_open_bin d.run (fun ic ->
        let rec walk current = function
          | [] -> ()
          | q :: rest as queries -> (
              match current with
              | None -> ()
              | Some existing ->
                  let c = String.compare existing q in
                  if c < 0 then walk (read_digest ic) queries
                  else if c = 0 then begin
                    Hashtbl.replace hits q ();
                    walk (read_digest ic) rest
                  end
                  else walk current rest)
        in
        walk (read_digest ic) sorted);
    hits

  (* [sorted] must be strictly increasing and disjoint from the set. *)
  let add d sorted =
    let next_gen = d.generation + 1 in
    let next = Filename.concat d.dir (Printf.sprintf "visited-%d.run" next_gen) in
    In_channel.with_open_bin d.run (fun ic ->
        Out_channel.with_open_bin next (fun oc ->
            let rec merge current queries =
              match (current, queries) with
              | None, [] -> ()
              | None, q :: rest ->
                  Out_channel.output_string oc q;
                  merge None rest
              | Some existing, [] ->
                  Out_channel.output_string oc existing;
                  merge (read_digest ic) []
              | Some existing, q :: rest ->
                  if String.compare existing q < 0 then begin
                    Out_channel.output_string oc existing;
                    merge (read_digest ic) queries
                  end
                  else begin
                    Out_channel.output_string oc q;
                    merge current rest
                  end
            in
            merge (read_digest ic) sorted));
    Sys.remove d.run;
    d.run <- next;
    d.generation <- next_gen

  let close d = if Sys.file_exists d.run then Sys.remove d.run
end

module Visited = struct
  type t = Mem of (string, unit) Hashtbl.t | Disk of Spill.t

  (* Whether [d] was visited before the current merge began.  The
     in-memory set answers on the spot; the spilled set answers only in
     sorted batches ([Spill.known]), so here it answers "not known". *)
  let seen t d = match t with Mem h -> Hashtbl.mem h d | Disk _ -> false

  let add t sorted =
    match t with
    | Mem h -> List.iter (fun d -> Hashtbl.replace h d ()) sorted
    | Disk d -> Spill.add d sorted

  let close = function Mem _ -> () | Disk d -> Spill.close d
end

(* ------------------------------------------------------------------ *)
(* Predecessor edges for counterexample reconstruction                 *)
(* ------------------------------------------------------------------ *)

(* In-memory: child digest -> (parent digest, label).  Spilled: an
   append-only log of fixed-framed records; reconstruction scans the log
   once per trace step, which is fine because counterexamples are
   shallow (BFS depth) and rare (one per run). *)
module Parents = struct
  type t =
    | Mem of (string, string * string) Hashtbl.t
    | Disk of { path : string; oc : Out_channel.t }

  let in_memory () = Mem (Hashtbl.create 65536)

  let on_disk ~path = Disk { path; oc = Out_channel.open_bin path }

  let add t ~child ~parent ~label =
    match t with
    | Mem h -> if not (Hashtbl.mem h child) then Hashtbl.add h child (parent, label)
    | Disk { oc; _ } ->
        Out_channel.output_string oc child;
        Out_channel.output_string oc parent;
        let len = String.length label in
        Out_channel.output_char oc (Char.chr (len land 0xff));
        Out_channel.output_char oc (Char.chr ((len lsr 8) land 0xff));
        Out_channel.output_string oc label

  let find t child =
    match t with
    | Mem h -> Hashtbl.find_opt h child
    | Disk { path; oc } ->
        Out_channel.flush oc;
        In_channel.with_open_bin path (fun ic ->
            let rec scan acc =
              match In_channel.really_input_string ic digest_bytes with
              | None -> acc
              | Some c -> (
                  match In_channel.really_input_string ic digest_bytes with
                  | None -> acc
                  | Some p -> (
                      let b0 = In_channel.input_char ic in
                      let b1 = In_channel.input_char ic in
                      match (b0, b1) with
                      | Some b0, Some b1 -> (
                          let len = Char.code b0 lor (Char.code b1 lsl 8) in
                          match In_channel.really_input_string ic len with
                          | None -> acc
                          | Some label ->
                              (* first writer wins, matching the in-memory
                                 Hashtbl.add-if-absent semantics *)
                              let acc =
                                if acc = None && String.equal c child then
                                  Some (p, label)
                                else acc
                              in
                              scan acc)
                      | _ -> acc))
            in
            scan None)

  let close = function
    | Mem _ -> ()
    | Disk { path; oc } ->
        Out_channel.close oc;
        if Sys.file_exists path then Sys.remove path
end

(* ------------------------------------------------------------------ *)
(* Level-synchronous exploration                                       *)
(* ------------------------------------------------------------------ *)

(* Per-state expansion result, computed in parallel.  Expansion only
   reads the in-memory visited set; the sequential merge below is the
   only code that mutates the visited set, parent edges and counters, and
   it runs in canonical-hash order — that is what makes jobs=1 and jobs=N
   byte-identical. *)
type 'state expansion = {
  x_violated : string option;
  x_deadlock : bool;
  x_transitions : int;  (** successors in the chosen group *)
  x_fresh : (string * 'state * string) list;
      (** the chosen group's successors the visited set did not hold when
          the state was expanded: (label, state, digest) *)
}

let split_chunks n jobs =
  (* contiguous [lo, hi) slices, at most [jobs] of them *)
  let chunks = max 1 (min jobs n) in
  List.init chunks (fun i ->
      let lo = n * i / chunks and hi = n * (i + 1) / chunks in
      (lo, hi))

(* States a level expands before merging them.  Merging soon after
   expanding keeps successors that turn out to be duplicates from
   outliving a minor collection.  With [jobs > 1] every batch also starts
   the pool's domains, so batches are larger. *)
let batch_size ~jobs = if jobs <= 1 then 64 else 512 * jobs

let run (type s) (module M : MODEL with type state = s) ?(max_states = 2_000_000)
    ?(jobs = 1) ?spill () : s outcome =
  let digest st = Digest.string (M.encode st) in
  let visited, parents =
    match spill with
    | None -> (Visited.Mem (Hashtbl.create 65536), Parents.in_memory ())
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        ( Visited.Disk (Spill.create ~dir),
          Parents.on_disk ~path:(Filename.concat dir "parents.log") )
  in
  Fun.protect ~finally:(fun () ->
      Visited.close visited;
      Parents.close parents)
  @@ fun () ->
  let trace_to key =
    let rec walk key acc =
      match Parents.find parents key with
      | None -> acc
      | Some (parent, label) -> walk parent (label :: acc)
    in
    walk key []
  in
  let explored = ref 0 in
  let transitions = ref 0 in
  let depth = ref 0 in
  let stats complete =
    {
      states_explored = !explored;
      transitions = !transitions;
      max_depth = !depth;
      complete;
    }
  in
  (* deduplicated initial frontier, in canonical-hash order *)
  let initial =
    let seen = Hashtbl.create 16 in
    List.filter_map
      (fun st ->
        let d = digest st in
        if Hashtbl.mem seen d then None
        else begin
          Hashtbl.replace seen d ();
          Some (d, st)
        end)
      M.initial
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  Visited.add visited (List.map fst initial);
  let per_state (_, st) =
    let x_violated =
      Option.map fst (List.find_opt (fun (_, p) -> not (p st)) M.invariants)
    in
    let chosen =
      match M.por with
      | None -> M.successors st
      | Some f -> (
          (* ample set: the first non-empty independence class.  Later
             classes run only once every earlier class is exhausted —
             strict component priority; see the .mli contract and
             DESIGN.md for why this preserves per-class invariants and
             deadlocks *)
          match List.find_opt (function [] -> false | _ :: _ -> true) (f st) with
          | Some g -> g
          | None -> [])
    in
    let x_deadlock =
      (match chosen with [] -> true | _ :: _ -> false) && not (M.is_quiescent st)
    in
    let x_fresh =
      List.filter_map
        (fun (label, st') ->
          let d = digest st' in
          if Visited.seen visited d then None else Some (label, st', d))
        chosen
    in
    { x_violated; x_deadlock; x_transitions = List.length chosen; x_fresh }
  in
  (* expand frontier.(lo) .. frontier.(hi - 1) *)
  let expand frontier lo hi =
    let n = hi - lo in
    let out = Array.make n None in
    Pcc_parallel.Pool.run_keyed ~jobs
      (List.map
         (fun (a, b) ->
           ( Printf.sprintf "expand[%d,%d)" (lo + a) (lo + b),
             fun () -> (a, Array.init (b - a) (fun k -> per_state frontier.(lo + a + k))) ))
         (split_chunks n jobs))
    |> List.iter (fun (a, slice) -> Array.iteri (fun k x -> out.(a + k) <- Some x) slice);
    Array.map Option.get out
  in
  (* verdict scan, canonical order: the minimal counterexample *)
  let verdict frontier lo expansions =
    let rec scan i =
      if i = Array.length expansions then None
      else
        let x = expansions.(i) in
        let key, state = frontier.(lo + i) in
        match x.x_violated with
        | Some invariant ->
            Some
              (Invariant_violation
                 { invariant; state; trace = trace_to key; stats = stats false })
        | None when x.x_deadlock ->
            Some (Deadlock { state; trace = trace_to key; stats = stats false })
        | None -> scan (i + 1)
    in
    scan 0
  in
  let rec level frontier =
    if Array.length frontier = 0 then Ok (stats true)
    else if !explored >= max_states then Ok (stats false)
    else begin
      depth := !depth + (if !explored = 0 then 0 else 1);
      explored := !explored + Array.length frontier;
      let n = Array.length frontier in
      (* a spilled visited set is queried once per level, so its level is
         one batch *)
      let batch =
        match visited with Visited.Mem _ -> batch_size ~jobs | Visited.Disk _ -> n
      in
      let level_transitions = ref 0 in
      let next = ref [] in
      let merge lo expansions =
        let fresh =
          match visited with
          | Visited.Mem h ->
              fun d ->
                (not (Hashtbl.mem h d))
                && begin
                     Hashtbl.replace h d ();
                     true
                   end
          | Visited.Disk spilled ->
              (* one batched membership query for the whole level *)
              let candidates =
                Array.to_list expansions
                |> List.concat_map (fun x -> List.map (fun (_, _, d) -> d) x.x_fresh)
                |> List.sort_uniq String.compare
              in
              let known = Spill.known spilled candidates in
              let added = Hashtbl.create 4096 in
              fun d ->
                (not (Hashtbl.mem known d || Hashtbl.mem added d))
                && begin
                     Hashtbl.replace added d ();
                     true
                   end
        in
        Array.iteri
          (fun i x ->
            let key, _ = frontier.(lo + i) in
            level_transitions := !level_transitions + x.x_transitions;
            List.iter
              (fun (label, st', d) ->
                if fresh d then begin
                  Parents.add parents ~child:d ~parent:key ~label;
                  next := (d, st') :: !next
                end)
              x.x_fresh)
          expansions
      in
      let rec batches lo =
        if lo >= n then None
        else
          let hi = min n (lo + batch) in
          let expansions = expand frontier lo hi in
          match verdict frontier lo expansions with
          | Some outcome -> Some outcome
          | None ->
              merge lo expansions;
              batches hi
      in
      match batches 0 with
      | Some outcome -> outcome
      | None ->
          transitions := !transitions + !level_transitions;
          let next = Array.of_list !next in
          Array.stable_sort (fun (a, _) (b, _) -> String.compare a b) next;
          (match visited with
          | Visited.Mem _ -> ()
          | Visited.Disk _ -> Visited.add visited (Array.to_list (Array.map fst next)));
          level next
    end
  in
  level (Array.of_list initial)

let pp_outcome pp_state ppf = function
  | Ok stats ->
      Format.fprintf ppf "OK: %d states, %d transitions, depth %d%s"
        stats.states_explored stats.transitions stats.max_depth
        (if stats.complete then " (exhaustive)" else " (bounded)")
  | Invariant_violation { invariant; state; trace; stats } ->
      Format.fprintf ppf
        "@[<v>INVARIANT '%s' VIOLATED after %d states@,trace (%d steps):@,  %a@,state: %a@]"
        invariant stats.states_explored (List.length trace)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,  ")
           Format.pp_print_string)
        trace pp_state state
  | Deadlock { state; trace; stats } ->
      Format.fprintf ppf
        "@[<v>DEADLOCK after %d states@,trace (%d steps):@,  %a@,state: %a@]"
        stats.states_explored (List.length trace)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,  ")
           Format.pp_print_string)
        trace pp_state state
