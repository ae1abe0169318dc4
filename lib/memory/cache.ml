type policy = Lru | Random

type 'a entry = {
  key : int;
  mutable payload : 'a;
  mutable last_used : int;
  mutable pinned : bool;
}

(* LRU slot: the key lives in a separate unboxed array so lookups scan
   plain ints instead of chasing entry pointers.  The payload is kept
   already boxed as [Some payload], so a hit hands the box out as is.  A
   way keeps its slot (and box) when its key is removed, and the next
   key inserted there reuses both: probes and removals allocate
   nothing, and neither does re-inserting the resident payload. *)
type 'a slot = {
  mutable s_box : 'a option;  (* always [Some payload] *)
  mutable s_last_used : int;
  mutable s_pinned : bool;
}

(* Two representations:

   - [Ways]: LRU sets are flat [ways]-wide windows of parallel arrays; a
     lookup is a linear scan over unboxed int keys, which beats a hash
     table at cache associativities (4-8 ways).  The LRU victim is the
     unique minimum [s_last_used] tick, so scan order cannot change
     which entry is evicted.  A way is free when its key is [no_key];
     its slot may still hold the last occupant's record for reuse.

   - [Tables]: random replacement keeps the original per-set hash
     tables, because the victim is drawn by [Rng.pick] from candidates
     in [Hashtbl.fold] order — reproducing historical runs bit-for-bit
     requires preserving that enumeration exactly. *)
type 'a rep =
  | Ways of { keys : int array; slots : 'a slot option array }
  | Tables of (int, 'a entry) Hashtbl.t array

type 'a t = {
  sets : int;
  ways : int;
  policy : policy;
  rng : Pcc_engine.Rng.t;
  rep : 'a rep;
  mutable tick : int;
}

type 'a insert_result = Inserted of (int * 'a) option | All_ways_pinned

let no_key = min_int

let create ?(policy = Lru) ?rng ~sets ~ways () =
  assert (sets > 0 && ways > 0);
  let rng = match rng with Some r -> r | None -> Pcc_engine.Rng.create ~seed:0x5eed in
  let rep =
    match policy with
    | Lru ->
        Ways { keys = Array.make (sets * ways) no_key; slots = Array.make (sets * ways) None }
    | Random -> Tables (Array.init sets (fun _ -> Hashtbl.create 8))
  in
  { sets; ways; policy; rng; rep; tick = 0 }

(* Keys carry structure in high bits (e.g. the home-node field of line
   numbers), so the set index mixes the whole key rather than using the
   low bits directly — otherwise same-index lines of different homes
   would all alias into one set. *)
let mix key =
  let h = key * 0x9E3779B97F4A7C1 in
  let h = h lxor (h lsr 29) in
  let h = h * 0xBF58476D1CE4E5B in
  h lxor (h lsr 32)

let set_of t key = (mix key land max_int) mod t.sets

let bump t =
  t.tick <- t.tick + 1;
  t.tick

let touch t entry = entry.last_used <- bump t

(* Index of [key] in [keys.(i) .. keys.(stop - 1)], or -1.  Top-level:
   a local closure over the set's base would allocate ~7 words per
   probe.  The annotations keep [=] an int compare rather than a
   polymorphic [caml_equal] call. *)
let rec scan (keys : int array) (key : int) i stop =
  if i = stop then -1
  else if Array.unsafe_get keys i = key then i
  else scan keys key (i + 1) stop

(* index of [key] within its set's window, or -1 *)
let way_index t keys key =
  let base = set_of t key * t.ways in
  scan keys key base (base + t.ways)

let slot_exn slots i =
  match Array.unsafe_get slots i with Some s -> s | None -> assert false

let payload_of s = match s.s_box with Some p -> p | None -> assert false

(* Rebox only when the payload changes. *)
let set_payload s payload =
  match s.s_box with
  | Some p when p == payload -> ()
  | Some _ | None -> s.s_box <- Some payload

let find t key =
  match t.rep with
  | Ways { keys; slots } ->
      let i = way_index t keys key in
      if i < 0 then None
      else begin
        let s = slot_exn slots i in
        s.s_last_used <- bump t;
        s.s_box
      end
  | Tables data -> (
      match Hashtbl.find data.(set_of t key) key with
      | entry ->
          touch t entry;
          Some entry.payload
      | exception Not_found -> None)

let peek t key =
  match t.rep with
  | Ways { keys; slots } ->
      let i = way_index t keys key in
      if i < 0 then None else (slot_exn slots i).s_box
  | Tables data -> (
      match Hashtbl.find data.(set_of t key) key with
      | entry -> Some entry.payload
      | exception Not_found -> None)

let mem t key =
  match t.rep with
  | Ways { keys; _ } -> way_index t keys key >= 0
  | Tables data -> Hashtbl.mem data.(set_of t key) key

let remove t key =
  match t.rep with
  | Ways { keys; slots } ->
      let i = way_index t keys key in
      if i < 0 then None
      else begin
        keys.(i) <- no_key;
        (slot_exn slots i).s_box
      end
  | Tables data -> (
      let set = data.(set_of t key) in
      match Hashtbl.find set key with
      | entry ->
          Hashtbl.remove set key;
          Some entry.payload
      | exception Not_found -> None)

(* Random-policy victim: candidates in Hashtbl.fold order, drawn by the
   cache's deterministic RNG (see the [rep] comment). *)
let victim_of_table t set =
  let candidates =
    Hashtbl.fold (fun _ entry acc -> if entry.pinned then acc else entry :: acc) set []
  in
  match candidates with
  | [] -> None
  | _ ->
      let arr = Array.of_list candidates in
      Some (Pcc_engine.Rng.pick t.rng arr)

let insert_ways t keys slots ?pin key payload =
  let i = way_index t keys key in
  if i >= 0 then begin
    let s = slot_exn slots i in
    set_payload s payload;
    (match pin with Some p -> s.s_pinned <- p | None -> ());
    s.s_last_used <- bump t;
    Inserted None
  end
  else begin
    let base = set_of t key * t.ways in
    (* free way, else the (unique) least-recently-used unpinned way *)
    let free = ref (-1) and victim = ref (-1) in
    for j = base to base + t.ways - 1 do
      if keys.(j) = no_key then begin
        if !free < 0 then free := j
      end
      else
        let s = slot_exn slots j in
        if
          (not s.s_pinned)
          && (!victim < 0 || s.s_last_used < (slot_exn slots !victim).s_last_used)
        then victim := j
    done;
    let pinned = match pin with Some p -> p | None -> false in
    if !free >= 0 then begin
      keys.(!free) <- key;
      (match slots.(!free) with
      | Some s ->
          (* the way's last occupant left its record behind: reuse it *)
          set_payload s payload;
          s.s_last_used <- bump t;
          s.s_pinned <- pinned
      | None ->
          slots.(!free) <-
            Some { s_box = Some payload; s_last_used = bump t; s_pinned = pinned });
      Inserted None
    end
    else if !victim < 0 then All_ways_pinned
    else begin
      let s = slot_exn slots !victim in
      let evicted = Some (keys.(!victim), payload_of s) in
      keys.(!victim) <- key;
      (* reuse the victim's slot record in place *)
      set_payload s payload;
      s.s_last_used <- bump t;
      s.s_pinned <- pinned;
      Inserted evicted
    end
  end

let insert_table t data ?pin key payload =
  let set = data.(set_of t key) in
  match Hashtbl.find set key with
  | entry ->
      entry.payload <- payload;
      (match pin with Some p -> entry.pinned <- p | None -> ());
      touch t entry;
      Inserted None
  | exception Not_found ->
      let evicted =
        if Hashtbl.length set < t.ways then None
        else
          match victim_of_table t set with
          | None -> None (* all pinned *)
          | Some victim ->
              Hashtbl.remove set victim.key;
              Some (victim.key, victim.payload)
      in
      if Hashtbl.length set >= t.ways then All_ways_pinned
      else begin
        let entry =
          { key; payload; last_used = 0; pinned = (match pin with Some p -> p | None -> false) }
        in
        touch t entry;
        Hashtbl.add set key entry;
        Inserted evicted
      end

let insert ?pin t key payload =
  match t.rep with
  | Ways { keys; slots } -> insert_ways t keys slots ?pin key payload
  | Tables data -> insert_table t data ?pin key payload

let pin t key =
  match t.rep with
  | Ways { keys; slots } ->
      let i = way_index t keys key in
      if i >= 0 then (slot_exn slots i).s_pinned <- true
  | Tables data -> (
      match Hashtbl.find data.(set_of t key) key with
      | entry -> entry.pinned <- true
      | exception Not_found -> ())

let unpin t key =
  match t.rep with
  | Ways { keys; slots } ->
      let i = way_index t keys key in
      if i >= 0 then (slot_exn slots i).s_pinned <- false
  | Tables data -> (
      match Hashtbl.find data.(set_of t key) key with
      | entry -> entry.pinned <- false
      | exception Not_found -> ())

let is_pinned t key =
  match t.rep with
  | Ways { keys; slots } ->
      let i = way_index t keys key in
      i >= 0 && (slot_exn slots i).s_pinned
  | Tables data -> (
      match Hashtbl.find data.(set_of t key) key with
      | entry -> entry.pinned
      | exception Not_found -> false)

let size t =
  match t.rep with
  | Ways { keys; _ } ->
      Array.fold_left (fun acc key -> if key = no_key then acc else acc + 1) 0 keys
  | Tables data -> Array.fold_left (fun acc set -> acc + Hashtbl.length set) 0 data

let capacity t = t.sets * t.ways

let iter f t =
  match t.rep with
  | Ways { keys; slots } ->
      Array.iteri
        (fun i key -> if key <> no_key then f key (payload_of (slot_exn slots i)))
        keys
  | Tables data ->
      Array.iter (Hashtbl.iter (fun key entry -> f key entry.payload)) data

let fold f t init =
  match t.rep with
  | Ways { keys; slots } ->
      let acc = ref init in
      Array.iteri
        (fun i key ->
          if key <> no_key then acc := f key (payload_of (slot_exn slots i)) !acc)
        keys;
      !acc
  | Tables data ->
      Array.fold_left
        (fun acc set -> Hashtbl.fold (fun key entry acc -> f key entry.payload acc) set acc)
        init data

let clear t =
  match t.rep with
  | Ways { keys; slots } ->
      Array.fill keys 0 (Array.length keys) no_key;
      Array.fill slots 0 (Array.length slots) None
  | Tables data -> Array.iter Hashtbl.reset data
