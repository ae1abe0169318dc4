open Pcc_core

exception Violation of string

let violation fmt = Printf.ksprintf (fun s -> raise (Violation s)) fmt

type store_rec = { s_node : int; s_value : int; s_time : int }

type load_rec = { l_node : int; l_value : int; l_started : int; l_time : int }

type line_hist = {
  mutable stores : store_rec list;  (* newest first *)
  mutable nstores : int;
  mutable loads : load_rec list;  (* retained only with keep_history *)
}

type t = {
  keep_history : bool;
  histories : (Types.line, line_hist) Hashtbl.t;
  last_seen : (Types.line * int, int) Hashtbl.t;
      (* newest version each node has observed of each line *)
  mutable ops : int;
}

let create ?(keep_history = true) () =
  { keep_history; histories = Hashtbl.create 256; last_seen = Hashtbl.create 1024; ops = 0 }

let hist t line =
  match Hashtbl.find_opt t.histories line with
  | Some h -> h
  | None ->
      let h = { stores = []; nstores = 0; loads = [] } in
      Hashtbl.add t.histories line h;
      h

let describe_line line =
  Printf.sprintf "%d@%d" (Types.Layout.index_of_line line)
    (Types.Layout.home_of_line line)

let seen t line node = Option.value (Hashtbl.find_opt t.last_seen (line, node)) ~default:0

let observe t line node value =
  let prev = seen t line node in
  if value < prev then
    violation "line %s: node %d observed version %d after version %d" (describe_line line)
      node value prev;
  Hashtbl.replace t.last_seen (line, node) (max prev value)

let record_store t ~node ~line ~value ~time =
  t.ops <- t.ops + 1;
  let h = hist t line in
  (match h.stores with
  | { s_value; s_node; _ } :: _ when value <= s_value ->
      violation "line %s: store version %d by node %d after version %d by node %d"
        (describe_line line) value node s_value s_node
  | _ -> ());
  observe t line node value;
  h.stores <- { s_node = node; s_value = value; s_time = time } :: h.stores;
  h.nstores <- h.nstores + 1

let record_load t ~node ~line ~value ~started ~time =
  t.ops <- t.ops + 1;
  let h = hist t line in
  observe t line node value;
  (* window legality: [value] must have been the newest version at some
     point during [started, time] — the next store must postdate the
     load's start. *)
  (match h.stores with
  | [] ->
      if value <> 0 then
        violation "line %s: node %d read version %d but no store produced it"
          (describe_line line) node value
  | { s_value; _ } :: _ when value = s_value -> ()
  | newest ->
      (* walk newest -> oldest tracking the immediate successor store *)
      let rec find successor = function
        | [] ->
            if value = 0 then
              if successor.s_time <= started then
                violation
                  "line %s: node %d read the initial value at start %d, after store \
                   version %d committed at %d"
                  (describe_line line) node started successor.s_value successor.s_time
              else ()
            else
              violation "line %s: node %d read version %d but no store produced it"
                (describe_line line) node value
        | s :: older ->
            if s.s_value = value then begin
              if successor.s_time <= started then
                violation
                  "line %s: node %d read stale version %d (load started %d, but version \
                   %d committed at %d)"
                  (describe_line line) node value started successor.s_value
                  successor.s_time
            end
            else find s older
      in
      (match newest with
      | s :: older -> find s older
      | [] -> assert false));
  if t.keep_history then
    h.loads <- { l_node = node; l_value = value; l_started = started; l_time = time } :: h.loads

let record_commit t (c : Probe.commit_event) =
  match c.c_kind with
  | Types.Store ->
      record_store t ~node:c.c_node ~line:c.c_line ~value:c.c_value ~time:c.c_time
  | Types.Load ->
      record_load t ~node:c.c_node ~line:c.c_line ~value:c.c_value ~started:c.c_started
        ~time:c.c_time

(* ------------------------------------------------------------------ *)
(* Fail-stop crashes                                                   *)
(* ------------------------------------------------------------------ *)

(* The victim's newest unflushed stores vanish with its caches: recovery
   rolls each line back to the freshest value still materialized anywhere
   ([surviving line]).  Those versions must stop anchoring the store
   order — a later load of the rebuilt value is not "stale" — and
   observations of them must stop binding anyone: survivors are capped at
   the surviving value (they can never see the vanished version again),
   and the victim's own observation history dies with it outright, so a
   restarted incarnation legally re-reads older values. *)
let node_crashed t ~dead ~surviving =
  let memo = Hashtbl.create 64 in
  let surviving line =
    match Hashtbl.find_opt memo line with
    | Some v -> v
    | None ->
        let v = surviving line in
        Hashtbl.add memo line v;
        v
  in
  Hashtbl.iter
    (fun line h ->
      let rec strip = function
        | { s_node; s_value; _ } :: rest when s_node = dead && s_value > surviving line
          ->
            h.nstores <- h.nstores - 1;
            strip rest
        | stores -> stores
      in
      h.stores <- strip h.stores)
    t.histories;
  let entries = Hashtbl.fold (fun key seen acc -> (key, seen) :: acc) t.last_seen [] in
  List.iter
    (fun (((line, node) as key), seen) ->
      if node = dead then Hashtbl.remove t.last_seen key
      else
        let v = surviving line in
        if seen > v then Hashtbl.replace t.last_seen key v)
    entries

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

type op =
  | O_store of { node : int; value : int; time : int }
  | O_load of { node : int; value : int; time : int }

let linearize t =
  if not t.keep_history then invalid_arg "Order.linearize: history not kept";
  Hashtbl.fold
    (fun line h acc ->
      let stores = List.rev h.stores in
      let by_value = Hashtbl.create 16 in
      List.iter
        (fun l ->
          Hashtbl.replace by_value l.l_value
            (l :: Option.value (Hashtbl.find_opt by_value l.l_value) ~default:[]))
        h.loads;
      let loads_of value =
        Option.value (Hashtbl.find_opt by_value value) ~default:[]
        |> List.sort (fun a b -> compare (a.l_time, a.l_node) (b.l_time, b.l_node))
        |> List.map (fun l -> O_load { node = l.l_node; value = l.l_value; time = l.l_time })
      in
      let ops =
        loads_of 0
        @ List.concat_map
            (fun s ->
              O_store { node = s.s_node; value = s.s_value; time = s.s_time }
              :: loads_of s.s_value)
            stores
      in
      (line, ops) :: acc)
    t.histories []

let store_count t line =
  match Hashtbl.find_opt t.histories line with Some h -> h.nstores | None -> 0

let last_store t line =
  match Hashtbl.find_opt t.histories line with
  | Some { stores = { s_value; _ } :: _; _ } -> s_value
  | _ -> 0

let lines t = Hashtbl.fold (fun line _ acc -> line :: acc) t.histories []

let total_ops t = t.ops
