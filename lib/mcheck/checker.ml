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
(* Storage that grows in fixed-size chunks                             *)
(* ------------------------------------------------------------------ *)

(* Everything the checker keeps per state grows by whole chunks of about
   1 MB and never moves.  A doubling array would hold its old and new
   copies at once and then leave the old one to the major GC; at ten
   million states that lag, not the live data, would set the peak. *)

(* An append-only int vector.  [clear] keeps the chunks for reuse. *)
module Ints = struct
  let bits = 17 (* 128 Ki ints = 1 MB per chunk *)

  let mask = (1 lsl bits) - 1

  type t = { mutable chunks : int array array; mutable length : int }

  let create () = { chunks = [||]; length = 0 }

  let get t i = t.chunks.(i lsr bits).(i land mask)

  let set t i x = t.chunks.(i lsr bits).(i land mask) <- x

  let push t x =
    let c = t.length lsr bits in
    if c = Array.length t.chunks then
      t.chunks <- Array.append t.chunks [| Array.make (mask + 1) 0 |];
    t.chunks.(c).(t.length land mask) <- x;
    t.length <- t.length + 1

  let clear t = t.length <- 0
end

(* Interned transition labels: a parent edge stores a label's id, and
   only a counterexample turns ids back into strings. *)
module Labels = struct
  let bits = 20

  type t = { ids : (string, int) Hashtbl.t; mutable names : string array }

  let create () = { ids = Hashtbl.create 256; names = [||] }

  let intern t label =
    match Hashtbl.find t.ids label with
    | id -> id
    | exception Not_found ->
        let id = Hashtbl.length t.ids in
        if id lsr bits <> 0 then failwith "Checker: more than 2^20 distinct labels";
        Hashtbl.add t.ids label id;
        if id = Array.length t.names then
          t.names <- Array.append t.names (Array.make (max 64 id) "");
        t.names.(id) <- label;
        id

  let name t id = t.names.(id)
end

(* One int per state: the parent's id plus one (0 for an initial state)
   above the id of the label that first reached the state. *)
let edge ~parent ~label = ((parent + 1) lsl Labels.bits) lor label

let edge_parent e = (e lsr Labels.bits) - 1

let edge_label e = e land ((1 lsl Labels.bits) - 1)

(* The flat visited set.  A state's id is its insertion index: its
   16-byte digest sits at that position in fixed-size [Bytes] chunks and
   its parent edge in [edges].  An open-addressing index over the ids
   answers membership: each slot holds 0 or [(tag lsl 32) lor (id + 1)],
   where the tag is the digest's top 24 bits, so a probe reads the
   digest bytes only when the tags match.  MD5 digests are uniform, so
   their leading bits serve as the hash.  A digest to look up is 16
   bytes of a buffer, and probing and comparing read them one at a
   time: no boxed [Int64], no closure. *)
module Table = struct
  let chunk_bits = 16 (* 64 Ki digests = 1 MB per chunk *)

  let id_bits = 32

  let id_mask = (1 lsl id_bits) - 1

  type t = {
    mutable digests : Bytes.t array;
    mutable count : int;
    mutable slots : int array;
    edges : Ints.t;
  }

  let create () =
    { digests = [||]; count = 0; slots = Array.make 4096 0; edges = Ints.create () }

  let chunk t id = t.digests.(id lsr chunk_bits)

  let offset id = (id land ((1 lsl chunk_bits) - 1)) * digest_bytes

  let byte b i = Char.code (Bytes.unsafe_get b i)

  (* The first 62 bits of the digest at [b.[o]], as a non-negative int. *)
  let lead_at b o =
    (byte b o lsl 54) lor (byte b (o + 1) lsl 46) lor (byte b (o + 2) lsl 38)
    lor (byte b (o + 3) lsl 30) lor (byte b (o + 4) lsl 22) lor (byte b (o + 5) lsl 14)
    lor (byte b (o + 6) lsl 6)
    lor (byte b (o + 7) lsr 2)

  let lead t id = lead_at (chunk t id) (offset id)

  let tag lead = lead lsr 38

  (* [String.compare] of the digests at [a.[ao]] and [b.[bo]]. *)
  let rec compare_at a ao b bo i =
    if i = digest_bytes then 0
    else
      let c = byte a (ao + i) - byte b (bo + i) in
      if c <> 0 then c else compare_at a ao b bo (i + 1)

  (* The slot holding the digest at [b.[o]], or [lnot] of the free slot
     that would. *)
  let rec probe t b o tag i =
    let s = t.slots.(i) in
    if s = 0 then lnot i
    else
      let id = (s land id_mask) - 1 in
      if s lsr id_bits = tag && compare_at (chunk t id) (offset id) b o 0 = 0 then i
      else probe t b o tag ((i + 1) land (Array.length t.slots - 1))

  let find t b o =
    let lead = lead_at b o in
    let i = probe t b o (tag lead) (lead land (Array.length t.slots - 1)) in
    if i < 0 then -1 else (t.slots.(i) land id_mask) - 1

  let rec free_slot slots i =
    if slots.(i) = 0 then i else free_slot slots ((i + 1) land (Array.length slots - 1))

  let grow t =
    let slots = Array.make (2 * Array.length t.slots) 0 in
    let mask = Array.length slots - 1 in
    for id = 0 to t.count - 1 do
      let lead = lead t id in
      slots.(free_slot slots (lead land mask)) <- (tag lead lsl id_bits) lor (id + 1)
    done;
    t.slots <- slots

  (* Adds the digest at [b.[o]], with no parent edge yet, and returns its
     id, or -1 when the set already holds it.  The index stays at most
     three quarters full. *)
  let add t b o =
    let lead = lead_at b o in
    let i = probe t b o (tag lead) (lead land (Array.length t.slots - 1)) in
    if i >= 0 then -1
    else begin
      let id = t.count in
      if id lsr chunk_bits = Array.length t.digests then
        t.digests <- Array.append t.digests [| Bytes.create (digest_bytes lsl chunk_bits) |];
      Bytes.blit b o (chunk t id) (offset id) digest_bytes;
      Ints.push t.edges 0;
      t.slots.(lnot i) <- (tag lead lsl id_bits) lor (id + 1);
      t.count <- id + 1;
      if 4 * t.count > 3 * Array.length t.slots then grow t;
      id
    end

  let edge t id = Ints.get t.edges id

  let set_edge t id e = Ints.set t.edges id e

  let digest t id = Bytes.sub_string (chunk t id) (offset id) digest_bytes

  let output oc t id = Out_channel.output oc (chunk t id) (offset id) digest_bytes

  let compare t x y = compare_at (chunk t x) (offset x) (chunk t y) (offset y) 0

  (* Empties the set and keeps its storage. *)
  let clear t =
    Array.fill t.slots 0 (Array.length t.slots) 0;
    t.count <- 0;
    Ints.clear t.edges
end

(* Entries [0, n) sorted by the digest of state [base + k].  Each sort
   key packs the digest's leading bits above the entry number, so one
   int sort orders the entries; runs of equal leading bits, rare for
   MD5, are settled by full digest. *)
let sort_by_digest table ~base n =
  let rec width w = if 1 lsl w >= n then w else width (w + 1) in
  let w = width 1 in
  let low = (1 lsl w) - 1 in
  let keys = Array.init n (fun k -> Table.lead table (base + k) land lnot low lor k) in
  Array.sort Int.compare keys;
  let i = ref 0 in
  while !i < n do
    let j = ref (!i + 1) in
    while !j < n && keys.(!j) lsr w = keys.(!i) lsr w do
      incr j
    done;
    for a = !i to !j - 1 do
      keys.(a) <- keys.(a) land low
    done;
    if !j - !i > 1 then begin
      let run = Array.sub keys !i (!j - !i) in
      Array.sort (fun x y -> Table.compare table (base + x) (base + y)) run;
      Array.blit run 0 keys !i (!j - !i)
    end;
    i := !j
  done;
  keys

(* States stored as their [Marshal] images, without sharing, appended
   to 1 MB chunks and read back only when expanded.  An image is
   addressed by its chunk index above its position.  [clear] gives the
   chunks to [spare], where the next [Pack] drawing on it finds them. *)
module Pack = struct
  let chunk_bits = 20

  let chunk_bytes = 1 lsl chunk_bits

  type spare = { mutable free : Bytes.t list }

  type t = { spare : spare; mutable chunks : Bytes.t array; mutable used : int; mutable fill : int }

  let create spare = { spare; chunks = [||]; used = 0; fill = 0 }

  let flags = [ Marshal.No_sharing ]

  let next_chunk t =
    let c =
      match t.spare.free with
      | c :: rest ->
          t.spare.free <- rest;
          c
      | [] -> Bytes.create chunk_bytes
    in
    if t.used = Array.length t.chunks then t.chunks <- Array.append t.chunks [| c |]
    else t.chunks.(t.used) <- c;
    t.used <- t.used + 1;
    t.fill <- 0

  let rec add t v =
    if t.used = 0 then next_chunk t;
    match Marshal.to_buffer t.chunks.(t.used - 1) t.fill (chunk_bytes - t.fill) v flags with
    | n ->
        let at = ((t.used - 1) lsl chunk_bits) lor t.fill in
        t.fill <- t.fill + n;
        at
    | exception Failure _ when t.fill > 0 ->
        next_chunk t;
        add t v

  let get t at = Marshal.from_bytes t.chunks.(at lsr chunk_bits) (at land (chunk_bytes - 1))

  (* Appends the image [from] holds at [at] and returns where it went. *)
  let copy t ~from at =
    let src = from.chunks.(at lsr chunk_bits) and pos = at land (chunk_bytes - 1) in
    let len = Marshal.total_size src pos in
    if t.used = 0 || t.fill + len > chunk_bytes then next_chunk t;
    Bytes.blit src pos t.chunks.(t.used - 1) t.fill len;
    let dst = ((t.used - 1) lsl chunk_bits) lor t.fill in
    t.fill <- t.fill + len;
    dst

  let clear t =
    for i = 0 to t.used - 1 do
      t.spare.free <- t.chunks.(i) :: t.spare.free;
      t.chunks.(i) <- Bytes.empty
    done;
    t.used <- 0;
    t.fill <- 0
end

let repack v = Marshal.from_bytes (Marshal.to_bytes v Pack.flags) 0

(* One BFS level: entry [k] is state [base + k] of its table, packed at
   [Ints.get offsets k]; [order] lists the entries to expand, in digest
   order. *)
type level = { pack : Pack.t; offsets : Ints.t; mutable base : int; mutable order : int array }

let new_level spare = { pack = Pack.create spare; offsets = Ints.create (); base = 0; order = [||] }

let clear_level l ~base =
  Pack.clear l.pack;
  Ints.clear l.offsets;
  l.base <- base;
  l.order <- [||]

(* What one domain produced for its share of a batch, all of it flat: a
   domain's minor heap is promoted whole when the domain ends, so boxed
   results would be copied to the major heap and die there.  Expanded
   state [s] (frontier entry [first + s]) has its verdict, its
   transition count and the end of its candidates at
   [states.(3s .. 3s+2)]; a verdict is -1 (none), -2 (deadlock) or the
   index of the first violated invariant.  Candidate [c] has its digest
   at [digests.[16c]], its label and its image in [pack]. *)
module Slice = struct
  type t = {
    pack : Pack.t;
    mutable first : int;
    mutable states : int array;
    mutable expanded : int;
    mutable digests : Bytes.t;
    mutable labels : string array;
    mutable images : int array;
    mutable candidates : int;
  }

  let create () =
    {
      pack = Pack.create { Pack.free = [] };
      first = 0;
      states = Array.make 192 0;
      expanded = 0;
      digests = Bytes.create (256 * digest_bytes);
      labels = Array.make 256 "";
      images = Array.make 256 0;
      candidates = 0;
    }

  (* Room for one more candidate; returns its index. *)
  let reserve sl =
    let c = sl.candidates in
    if c = Array.length sl.images then begin
      sl.digests <- Bytes.extend sl.digests 0 (c * digest_bytes);
      sl.labels <- Array.append sl.labels (Array.make c "");
      sl.images <- Array.append sl.images (Array.make c 0)
    end;
    c

  let close_state sl ~verdict ~transitions =
    let i = 3 * sl.expanded in
    if i = Array.length sl.states then sl.states <- Array.append sl.states sl.states;
    sl.states.(i) <- verdict;
    sl.states.(i + 1) <- transitions;
    sl.states.(i + 2) <- sl.candidates;
    sl.expanded <- sl.expanded + 1

  let verdict sl s = sl.states.(3 * s)

  let transitions sl s = sl.states.((3 * s) + 1)

  let candidates_end sl s = sl.states.((3 * s) + 2)

  let clear sl =
    Pack.clear sl.pack;
    sl.expanded <- 0;
    sl.candidates <- 0
end

(* ------------------------------------------------------------------ *)
(* The spilled visited set and its parent log                          *)
(* ------------------------------------------------------------------ *)

(* The spilled representation is a single file of sorted 16-byte digests
   ("chunked hash file": each level contributes one sorted chunk, merged
   into the run so membership stays a single sequential scan).  The
   merge streams the run once per level, so resident memory is bounded
   by two levels, never by the visited set. *)
module Spill = struct
  type t = { dir : string; mutable run : string; mutable generation : int; buf : Bytes.t }

  let create ~dir =
    let run = Filename.concat dir "visited-0.run" in
    Out_channel.with_open_bin run (fun _ -> ());
    { dir; run; generation = 0; buf = Bytes.create digest_bytes }

  (* Merges ids [sorted.(0 .. n-1)] of [table], strictly increasing by
     digest, into the run.  The ones the run did not hold are moved, in
     order, to the front of [sorted], and [fresh] sees each of them;
     returns how many there are. *)
  let merge d table sorted n ~fresh =
    let next_gen = d.generation + 1 in
    let next = Filename.concat d.dir (Printf.sprintf "visited-%d.run" next_gen) in
    let kept = ref 0 in
    In_channel.with_open_bin d.run (fun ic ->
        Out_channel.with_open_bin next (fun oc ->
            let buf = d.buf in
            let read () = Option.is_some (In_channel.really_input ic buf 0 digest_bytes) in
            let against id = Table.compare_at (Table.chunk table id) (Table.offset id) buf 0 0 in
            let have = ref (read ()) in
            for j = 0 to n - 1 do
              let id = sorted.(j) in
              while !have && against id > 0 do
                Out_channel.output oc buf 0 digest_bytes;
                have := read ()
              done;
              if not (!have && against id = 0) then begin
                Table.output oc table id;
                fresh id;
                sorted.(!kept) <- id;
                incr kept
              end
            done;
            while !have do
              Out_channel.output oc buf 0 digest_bytes;
              have := read ()
            done));
    Sys.remove d.run;
    d.run <- next;
    d.generation <- next_gen;
    !kept

  let close d = if Sys.file_exists d.run then Sys.remove d.run
end

(* Predecessor edges of a spilled run: an append-only log of
   fixed-framed records (child digest, parent digest, label).
   Reconstruction scans the log once per trace step, which is fine
   because counterexamples are shallow (BFS depth) and rare (one per
   run). *)
module Parent_log = struct
  type t = { path : string; oc : Out_channel.t }

  let create ~path = { path; oc = Out_channel.open_bin path }

  let add t ~children ~child ~parents ~parent ~label =
    Table.output t.oc children child;
    Table.output t.oc parents parent;
    let len = String.length label in
    Out_channel.output_char t.oc (Char.chr (len land 0xff));
    Out_channel.output_char t.oc (Char.chr ((len lsr 8) land 0xff));
    Out_channel.output_string t.oc label

  let find t child =
    Out_channel.flush t.oc;
    In_channel.with_open_bin t.path (fun ic ->
        let rec scan () =
          match In_channel.really_input_string ic digest_bytes with
          | None -> None
          | Some c -> (
              match In_channel.really_input_string ic digest_bytes with
              | None -> None
              | Some p -> (
                  let b0 = In_channel.input_char ic in
                  let b1 = In_channel.input_char ic in
                  match (b0, b1) with
                  | Some b0, Some b1 -> (
                      let len = Char.code b0 lor (Char.code b1 lsl 8) in
                      match In_channel.really_input_string ic len with
                      | None -> None
                      | Some label -> if String.equal c child then Some (p, label) else scan ())
                  | _ -> None))
        in
        scan ())

  let close t =
    Out_channel.close t.oc;
    if Sys.file_exists t.path then Sys.remove t.path
end

(* Where reached states live.  [Memory]: one table of every state, whose
   edges give each state's parent.  [Disk]: the visited set is the
   spilled run; a level's distinct successors go to the [candidates]
   table, which becomes the [frontier] table once the level closes and
   is cleared once that frontier is expanded, and each fresh state's
   parent edge goes to the log. *)
type store =
  | Memory of Table.t
  | Disk of {
      run : Spill.t;
      log : Parent_log.t;
      mutable frontier : Table.t;
      mutable candidates : Table.t;
    }

(* ------------------------------------------------------------------ *)
(* Level-synchronous exploration                                       *)
(* ------------------------------------------------------------------ *)

let split_chunks n jobs =
  (* contiguous [lo, hi) slices, at most [jobs] of them *)
  let chunks = max 1 (min jobs n) in
  List.init chunks (fun i ->
      let lo = n * i / chunks and hi = n * (i + 1) / chunks in
      (lo, hi))

(* States a level expands before merging them.  With [jobs > 1] every
   batch starts the pool's domains, so batches are larger. *)
let batch_size ~jobs = if jobs <= 1 then 64 else 512 * jobs

let run (type s) (module M : MODEL with type state = s) ?(max_states = 2_000_000)
    ?(jobs = 1) ?spill () : s outcome =
  let store =
    match spill with
    | None -> Memory (Table.create ())
    | Some dir ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        Disk
          {
            run = Spill.create ~dir;
            log = Parent_log.create ~path:(Filename.concat dir "parents.log");
            frontier = Table.create ();
            candidates = Table.create ();
          }
  in
  Fun.protect ~finally:(fun () ->
      match store with
      | Memory _ -> ()
      | Disk d ->
          Spill.close d.run;
          Parent_log.close d.log)
  @@ fun () ->
  let labels = Labels.create () in
  let candidate_table () = match store with Memory t -> t | Disk d -> d.candidates in
  let trace_to id =
    match store with
    | Memory t ->
        let rec walk id acc =
          let e = Table.edge t id in
          let parent = edge_parent e in
          if parent < 0 then acc else walk parent (Labels.name labels (edge_label e) :: acc)
        in
        walk id []
    | Disk d ->
        let rec walk key acc =
          match Parent_log.find d.log key with
          | None -> acc
          | Some (parent, label) -> walk parent (label :: acc)
        in
        walk (Table.digest d.frontier id) []
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
  let spare = { Pack.free = [] } in
  let current = ref (new_level spare) and next = ref (new_level spare) in
  let slices = Array.init (max 1 jobs) (fun _ -> Slice.create ()) in
  (* A successor becomes a candidate unless the in-memory visited set
     already holds it.  The spilled set answers only in sorted batches
     ([Spill.merge]); there a successor is dropped only when the
     frontier's table holds it, since every state in that table was
     visited. *)
  let candidate (sl : Slice.t) (label, st) =
    let c = Slice.reserve sl in
    Bytes.blit_string (Digest.string (M.encode st)) 0 sl.digests (c * digest_bytes) digest_bytes;
    let known = match store with Memory t -> t | Disk d -> d.frontier in
    if Table.find known sl.digests (c * digest_bytes) < 0 then begin
      sl.labels.(c) <- label;
      sl.images.(c) <- Pack.add sl.pack st;
      sl.candidates <- c + 1
    end
  in
  (* Candidate [c] of [sl] joins the next level unless the candidates'
     table holds it: the first writer in merge order keeps its parent
     edge and its state. *)
  let offer (sl : Slice.t) c ~parent =
    let table = candidate_table () in
    let id = Table.add table sl.digests (c * digest_bytes) in
    if id >= 0 then begin
      if parent >= 0 then
        Table.set_edge table id (edge ~parent ~label:(Labels.intern labels sl.labels.(c)));
      Ints.push !next.offsets (Pack.copy !next.pack ~from:sl.pack sl.images.(c))
    end
  in
  (* Orders the next level by digest and, when spilled, drops the states
     an earlier level reached and logs the parent edges of the rest. *)
  let close_level () =
    let l = !next in
    let table = candidate_table () in
    let sorted = sort_by_digest table ~base:l.base (table.Table.count - l.base) in
    l.order <-
      (match store with
      | Memory _ -> sorted
      | Disk d ->
          let fresh id =
            let e = Table.edge table id in
            let parent = edge_parent e in
            if parent >= 0 then
              Parent_log.add d.log ~children:table ~child:id ~parents:d.frontier ~parent
                ~label:(Labels.name labels (edge_label e))
          in
          Array.sub sorted 0 (Spill.merge d.run table sorted (Array.length sorted) ~fresh))
  in
  (* [next] becomes the frontier; the old frontier's storage is reused
     for the level after it *)
  let advance () =
    let l = !current in
    current := !next;
    next := l;
    match store with
    | Memory t -> clear_level l ~base:t.Table.count
    | Disk d ->
        let t = d.frontier in
        d.frontier <- d.candidates;
        d.candidates <- t;
        Table.clear t;
        clear_level l ~base:0
  in
  (* deduplicated initial frontier, in canonical-hash order *)
  let sl = slices.(0) in
  List.iter (fun st -> candidate sl ("", st)) M.initial;
  for c = 0 to sl.candidates - 1 do
    offer sl c ~parent:(-1)
  done;
  Slice.clear sl;
  close_level ();
  advance ();
  let frontier_state i =
    let l = !current in
    (Pack.get l.pack (Ints.get l.offsets l.order.(i)) : s)
  in
  let rec first_violated st k = function
    | [] -> -1
    | (_, holds) :: rest -> if holds st then first_violated st (k + 1) rest else k
  in
  let expand_state sl i =
    let st = frontier_state i in
    let violated = first_violated st 0 M.invariants in
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
    let verdict =
      if violated >= 0 then violated
      else if (match chosen with [] -> true | _ :: _ -> false) && not (M.is_quiescent st)
      then -2
      else -1
    in
    List.iter (candidate sl) chosen;
    Slice.close_state sl ~verdict ~transitions:(List.length chosen)
  in
  (* expands frontier entries lo .. hi - 1, slice [j] on one domain,
     and returns how many slices it filled *)
  let expand lo hi =
    let chunks = split_chunks (hi - lo) jobs in
    List.iteri (fun j (a, _) -> slices.(j).first <- lo + a) chunks;
    let (_ : unit list) =
      Pcc_parallel.Pool.run_keyed ~jobs
        (List.mapi
           (fun j (a, b) ->
             ( Printf.sprintf "expand[%d,%d)" (lo + a) (lo + b),
               fun () ->
                 for i = lo + a to lo + b - 1 do
                   expand_state slices.(j) i
                 done ))
           chunks)
    in
    List.length chunks
  in
  (* verdict scan, canonical order: the minimal counterexample *)
  let verdict used =
    let l = !current in
    let rec scan j s =
      if j = used then None
      else
        let sl = slices.(j) in
        if s = sl.Slice.expanded then scan (j + 1) 0
        else
          let i = sl.first + s in
          let v = Slice.verdict sl s in
          if v = -1 then scan j (s + 1)
          else
            let trace = trace_to (l.base + l.order.(i)) and state = frontier_state i in
            if v = -2 then Some (Deadlock { state; trace; stats = stats false })
            else
              Some
                (Invariant_violation
                   { invariant = fst (List.nth M.invariants v); state; trace; stats = stats false })
    in
    scan 0 0
  in
  let merge used =
    let l = !current in
    let level_transitions = ref 0 in
    for j = 0 to used - 1 do
      let sl = slices.(j) in
      let c = ref 0 in
      for s = 0 to sl.expanded - 1 do
        let parent = l.base + l.order.(sl.first + s) in
        level_transitions := !level_transitions + Slice.transitions sl s;
        while !c < Slice.candidates_end sl s do
          offer sl !c ~parent;
          incr c
        done
      done;
      Slice.clear sl
    done;
    !level_transitions
  in
  let rec level () =
    let n = Array.length !current.order in
    if n = 0 then Ok (stats true)
    else if !explored >= max_states then Ok (stats false)
    else begin
      depth := !depth + (if !explored = 0 then 0 else 1);
      explored := !explored + n;
      let batch = batch_size ~jobs in
      let level_transitions = ref 0 in
      let rec batches lo =
        if lo >= n then None
        else
          let hi = min n (lo + batch) in
          let used = expand lo hi in
          match verdict used with
          | Some outcome -> Some outcome
          | None ->
              level_transitions := !level_transitions + merge used;
              batches hi
      in
      match batches 0 with
      | Some outcome -> outcome
      | None ->
          transitions := !transitions + !level_transitions;
          close_level ();
          advance ();
          level ()
    end
  in
  level ()

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
