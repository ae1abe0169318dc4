(* Per line, the newest stores live in a fixed circular window of three
   int arrays, newest at [head - 1]; slot 0 starts out as the initial
   value 0, written by no node "before time".  Each node's newest
   observed version sits in one int array per line.  Lookups, scans and
   updates are top-level functions over those arrays, so a clean commit
   touches the minor heap not at all. *)

let window = 32 (* power of two: slot arithmetic is a mask *)

let max_reports = 16

type op =
  | O_store of { node : int; value : int; time : int }
  | O_load of { node : int; value : int; time : int }

type line_state = {
  times : int array;
  values : int array;
  writers : int array;  (* committing node per slot; -1 = the initial value *)
  mutable head : int;  (* next slot to write *)
  mutable count : int;
  mutable stores : int;  (* net of crash rollback *)
  seen : int array;  (* per node: the newest version it has observed *)
  mutable store_log : (int * int * int) list;
      (* (node, version, time), newest first; only with [keep] *)
  mutable load_log : (int * int * int) list;
}

module Lines = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  let hash = Hashtbl.hash
end)

type t = {
  nodes : int;
  lines : line_state Lines.t;
  mutable keep : bool;
  mutable commits : int;
  mutable violations : int;
  mutable reports : string list;  (* newest first *)
}

let create ~nodes =
  {
    nodes;
    lines = Lines.create 256;
    keep = false;
    commits = 0;
    violations = 0;
    reports = [];
  }

let keep_history t = t.keep <- true

let state t line =
  match Lines.find t.lines line with
  | h -> h
  | exception Not_found ->
      let h =
        {
          times = Array.make window (-1);
          values = Array.make window 0;
          writers = Array.make window (-1);
          head = 1;
          count = 1;
          stores = 0;
          seen = Array.make t.nodes 0;
          store_log = [];
          load_log = [];
        }
      in
      Lines.add t.lines line h;
      h

(* the slot of the [k]th-newest entry, k in [0, count) *)
let slot h k = (h.head - 1 - k) land (window - 1)

(* How many entries are newer than the one holding [value]; -1 when no
   store in the window produced it. *)
let rec age_of h value k =
  if k >= h.count then -1
  else if h.values.(slot h k) = value then k
  else age_of h value (k + 1)

let describe line =
  Printf.sprintf "%d@%d" (Types.Layout.index_of_line line)
    (Types.Layout.home_of_line line)

(* Count one violation; format its report only while reports are kept. *)
let flag t fmt =
  t.violations <- t.violations + 1;
  if t.violations <= max_reports then
    Printf.ksprintf (fun s -> t.reports <- s :: t.reports) fmt
  else Printf.ikfprintf ignore () fmt

let load t h ~node ~line ~value ~started ~time =
  let prev = h.seen.(node) in
  if value < prev then
    flag t "line %s: node %d observed version %d after version %d" (describe line) node
      value prev
  else begin
    h.seen.(node) <- value;
    let age = age_of h value 0 in
    if age < 0 then
      flag t "line %s: node %d read version %d, which none of the line's last %d \
               stores produced"
        (describe line) node value h.count
    else if age > 0 then begin
      (* the store that superseded [value] must postdate the load's start *)
      let next = slot h (age - 1) in
      if h.times.(next) <= started then
        flag t
          "line %s: node %d read stale version %d (load started %d, committed %d, but \
           version %d committed at %d)"
          (describe line) node value started time h.values.(next) h.times.(next)
    end
  end;
  if t.keep then h.load_log <- (node, value, time) :: h.load_log

let store t h ~node ~line ~value ~time =
  let newest = slot h 0 in
  let prev = h.seen.(node) in
  if h.count > 0 && value <= h.values.(newest) then
    flag t "line %s: store version %d by node %d after version %d by node %d"
      (describe line) value node h.values.(newest) h.writers.(newest)
  else if value < prev then
    flag t "line %s: node %d stored version %d after observing version %d" (describe line)
      node value prev;
  if value > prev then h.seen.(node) <- value;
  h.times.(h.head) <- time;
  h.values.(h.head) <- value;
  h.writers.(h.head) <- node;
  h.head <- (h.head + 1) land (window - 1);
  if h.count < window then h.count <- h.count + 1;
  h.stores <- h.stores + 1;
  if t.keep then h.store_log <- (node, value, time) :: h.store_log

let commit t ~node ~kind ~line ~value ~started ~time =
  t.commits <- t.commits + 1;
  let h = state t line in
  match kind with
  | Types.Load -> load t h ~node ~line ~value ~started ~time
  | Types.Store -> store t h ~node ~line ~value ~time

(* ------------------------------------------------------------------ *)
(* Fail-stop crashes                                                   *)
(* ------------------------------------------------------------------ *)

(* Only the newest run of the victim's stores above the surviving value
   vanished: anything below a survivor's store, or a victim store that
   was materialized, had been globally visible. *)
let rec strip_window h ~dead ~surviving =
  let newest = slot h 0 in
  if h.count > 0 && h.writers.(newest) = dead && h.values.(newest) > surviving then begin
    h.head <- newest;
    h.count <- h.count - 1;
    h.stores <- h.stores - 1;
    strip_window h ~dead ~surviving
  end

let rec strip_log ~dead ~surviving = function
  | (node, value, _) :: older when node = dead && value > surviving ->
      strip_log ~dead ~surviving older
  | log -> log

let crash t ~dead ~surviving =
  Lines.iter
    (fun line h ->
      let surviving = surviving line in
      strip_window h ~dead ~surviving;
      if t.keep then h.store_log <- strip_log ~dead ~surviving h.store_log;
      Array.iteri
        (fun node seen ->
          if node = dead then h.seen.(node) <- 0
          else if seen > surviving then h.seen.(node) <- surviving)
        h.seen)
    t.lines

let commits t = t.commits

let violations t = t.violations

let violation_report t = List.rev t.reports

(* ------------------------------------------------------------------ *)
(* History                                                             *)
(* ------------------------------------------------------------------ *)

let linearize t =
  if not t.keep then invalid_arg "Sc_check.linearize: history not kept";
  Lines.fold
    (fun line h acc ->
      let by_value = Hashtbl.create 16 in
      List.iter
        (fun (node, value, time) ->
          let seen = Option.value (Hashtbl.find_opt by_value value) ~default:[] in
          Hashtbl.replace by_value value ((time, node) :: seen))
        h.load_log;
      let loads_of value =
        Option.value (Hashtbl.find_opt by_value value) ~default:[]
        |> List.sort compare
        |> List.map (fun (time, node) -> O_load { node; value; time })
      in
      let ops =
        loads_of 0
        @ List.concat_map
            (fun (node, value, time) -> O_store { node; value; time } :: loads_of value)
            (List.rev h.store_log)
      in
      (line, ops) :: acc)
    t.lines []

let store_count t line =
  match Lines.find_opt t.lines line with Some h -> h.stores | None -> 0

let last_store t line =
  match Lines.find_opt t.lines line with
  | Some h when h.count > 0 -> h.values.(slot h 0)
  | Some _ | None -> 0
