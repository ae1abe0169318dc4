type state = I | S | E | M

type cmd = Rd | Rdx | Upgr

type access = Hit | Bus of cmd

type reaction = {
  next : state;
  supply : bool;
  writeback : bool;
  shared : bool;
  owner : bool;
}

type row = {
  cmd : cmd;
  kills : bool;
  if_i : reaction;
  if_s : reaction;
  if_e : reaction;
  if_m : reaction;
}

type t = { mesi : bool; rd : row; rdx : row; upgr : row }

(* Reactions are static constants, so a snoop allocates nothing.  A
   write miss lets an owner's dirty word die with its copy ([surrender]):
   the requester installs a whole new version, and its M copy covers the
   stale memory word until it is written back. *)
let drop = { next = I; supply = false; writeback = false; shared = false; owner = false }
let stay_shared = { next = S; supply = false; writeback = false; shared = true; owner = false }
let downgrade_clean = { next = S; supply = true; writeback = false; shared = true; owner = true }
let downgrade_dirty = { next = S; supply = true; writeback = true; shared = true; owner = true }
let surrender = { next = I; supply = true; writeback = false; shared = false; owner = true }

let make_row cmd if_i if_s if_e if_m =
  { cmd; kills = if_s.next = I && if_e.next = I && if_m.next = I; if_i; if_s; if_e; if_m }

(* The planted Snoop_upgr_skips_invals row: snoopers ignore BUS_UPGR. *)
let upgr_ignored =
  make_row Upgr drop
    { next = S; supply = false; writeback = false; shared = false; owner = false }
    { next = E; supply = false; writeback = false; shared = false; owner = false }
    { next = M; supply = false; writeback = false; shared = false; owner = false }

let make variant fault =
  let mesi =
    match variant with
    | Types.Msi -> false
    | Types.Mesi -> true
    | Types.Adaptive -> invalid_arg "Mesi.make: the adaptive protocol is not a snooping table"
  in
  let upgr =
    match fault with
    | None -> make_row Upgr drop drop drop drop
    | Some Config.Snoop_upgr_skips_invals -> upgr_ignored
    | Some Config.Stale_update_no_resharing ->
        invalid_arg "Mesi.make: Stale_update_no_resharing is not a snooping-protocol fault"
  in
  {
    mesi;
    rd = make_row Rd drop stay_shared downgrade_clean downgrade_dirty;
    rdx = make_row Rdx drop drop surrender surrender;
    upgr;
  }

let request st (kind : Types.op_kind) =
  match (kind, st) with
  | Load, (S | E | M) | Store, (E | M) -> Hit
  | Load, I -> Bus Rd
  | Store, S -> Bus Upgr
  | Store, I -> Bus Rdx

let row t = function Rd -> t.rd | Rdx -> t.rdx | Upgr -> t.upgr

let react r = function I -> r.if_i | S -> r.if_s | E -> r.if_e | M -> r.if_m

let fill t (kind : Types.op_kind) ~shared =
  match kind with Store -> M | Load -> if t.mesi && not shared then E else S

let evict_writes_back = function M -> true | I | S | E -> false

let state_of_entry (e : L2.entry) =
  match e.state with Shared -> S | Exclusive -> if e.dirty then M else E

let state_of = function None -> I | Some e -> state_of_entry e

let entry st value : L2.entry =
  match st with
  | M -> { state = Exclusive; value; dirty = true }
  | E -> { state = Exclusive; value; dirty = false }
  | S -> { state = Shared; value; dirty = false }
  | I -> invalid_arg "Mesi.entry: an invalid copy has no L2 entry"

let state_name = function I -> "I" | S -> "S" | E -> "E" | M -> "M"

let cmd_name = function Rd -> "BusRd" | Rdx -> "BusRdX" | Upgr -> "BusUpgr"

type invariant = Single_writer | Shared_matches_memory | Msi_has_no_e

let invariants = [ Single_writer; Shared_matches_memory; Msi_has_no_e ]

let invariant_name = function
  | Single_writer -> "single-writer"
  | Shared_matches_memory -> "shared-matches-memory"
  | Msi_has_no_e -> "msi-has-no-exclusive-clean"

(* Top-level loops taking every input as an argument: checking a line
   allocates nothing. *)
let rec single_writer state owners others = function
  | [] -> owners <= 1 && (owners = 0 || others = 0)
  | c :: rest -> (
      match state c with
      | E | M -> single_writer state (owners + 1) others rest
      | S -> single_writer state owners (others + 1) rest
      | I -> single_writer state owners others rest)

let rec shared_current state value mem = function
  | [] -> true
  | c :: rest -> (state c <> S || value c = mem) && shared_current state value mem rest

let rec no_exclusive_clean state = function
  | [] -> true
  | c :: rest -> state c <> E && no_exclusive_clean state rest

let holds t inv ~state ~value ~mem copies =
  match inv with
  | Single_writer -> single_writer state 0 0 copies
  | Shared_matches_memory -> shared_current state value mem copies
  | Msi_has_no_e -> t.mesi || no_exclusive_clean state copies

let rec broken t state value mem copies = function
  | [] -> []
  | inv :: rest ->
      let later = broken t state value mem copies rest in
      if holds t inv ~state ~value ~mem copies then later else inv :: later

let violations t ~state ~value ~mem copies = broken t state value mem copies invariants
