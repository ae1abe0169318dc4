module Rng = Pcc_engine.Rng

type crash = { victim : int; crash_at : int; restart_after : int option }

type profile = {
  drop : float;
  duplicate : float;
  delay : float;
  delay_max : int;
  reorder : float;
  reorder_window : int;
  outage : float;
  outage_cycles : int;
  crashes : crash list;
  chaos_seed : int;
}

let zero =
  {
    drop = 0.0;
    duplicate = 0.0;
    delay = 0.0;
    delay_max = 0;
    reorder = 0.0;
    reorder_window = 0;
    outage = 0.0;
    outage_cycles = 0;
    crashes = [];
    chaos_seed = 1;
  }

let drops ~seed = { zero with drop = 0.08; chaos_seed = seed }

let storm ~seed =
  {
    zero with
    drop = 0.08;
    duplicate = 0.06;
    delay = 0.1;
    delay_max = 800;
    reorder = 0.15;
    reorder_window = 400;
    chaos_seed = seed;
  }

let outages ~seed =
  {
    zero with
    drop = 0.02;
    duplicate = 0.02;
    outage = 0.003;
    outage_cycles = 15_000;
    chaos_seed = seed;
  }

let presets = [ ("drops", drops); ("storm", storm); ("outages", outages) ]

let preset name ~seed =
  match List.assoc_opt name presets with
  | Some make -> Ok (make ~seed)
  | None ->
      Error
        (Printf.sprintf "unknown fault profile %S; valid profiles: %s" name
           (String.concat ", " (List.map fst presets)))

(* The crash schedule is computed up front from its own seed — a pure
   function of (seed, nodes, victims, window) — and never consults the
   per-packet chaos stream, so adding crashes to a profile perturbs
   neither the fault decisions of surviving traffic nor jobs-1-vs-N
   byte-identity. *)
let crash_schedule ~seed ~nodes ~victims ?(window = (6_000, 30_000)) ?restart_after () =
  if nodes < 2 then []
  else begin
    let victims = max 0 (min victims (nodes - 1)) in
    let lo, hi = window in
    let lo = max 1 lo in
    let hi = max lo hi in
    let rng = Rng.create ~seed:((seed * 0x2545f) lxor 0x9e3779b9) in
    let chosen = Hashtbl.create 8 in
    let rec pick_victim () =
      let v = Rng.int rng ~bound:nodes in
      if Hashtbl.mem chosen v then pick_victim ()
      else begin
        Hashtbl.add chosen v ();
        v
      end
    in
    List.init victims (fun _ ->
        let victim = pick_victim () in
        let crash_at = lo + Rng.int rng ~bound:(hi - lo + 1) in
        { victim; crash_at; restart_after })
    |> List.sort (fun a b ->
           match compare a.crash_at b.crash_at with
           | 0 -> compare a.victim b.victim
           | c -> c)
  end

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable outages_started : int;
}

type t = {
  profile : profile;
  rng : Rng.t;
  nodes : int;
  outage_until : int array;
      (* link [src * nodes + dst] -> end cycle of its last outage;
         [min_int] for a link that never went down *)
  stats : stats;
}

let max_copies = 2

let create ~nodes profile =
  {
    profile;
    rng = Rng.create ~seed:profile.chaos_seed;
    nodes;
    outage_until = Array.make (nodes * nodes) min_int;
    stats = { dropped = 0; duplicated = 0; delayed = 0; outages_started = 0 };
  }

let stats t = t.stats

(* Guard every probability with [> 0.0] so an all-zero profile draws
   nothing from the RNG: the packet schedule is then bit-identical to a
   network with no fault layer at all. *)
let plan t ~src ~dst ~now arrivals =
  let p = t.profile in
  let link = (src * t.nodes) + dst in
  let until_ = t.outage_until.(link) in
  let down =
    if now < until_ then true
    (* refractory window: a link that just came back carries the whole
       retransmit backlog its outage created, and each of those packets
       would re-roll the outage die — a busy link would go straight back
       down, forever.  After an outage the link is guaranteed up for at
       least [outage_cycles], bounding the duty cycle at 50% so reliable
       delivery always makes progress. *)
    else if now < until_ + p.outage_cycles then false
    else
      p.outage > 0.0
      && Rng.bool t.rng ~p:p.outage
      &&
      (t.outage_until.(link) <- now + p.outage_cycles;
       t.stats.outages_started <- t.stats.outages_started + 1;
       true)
  in
  if down then begin
    t.stats.dropped <- t.stats.dropped + 1;
    0
  end
  else if p.drop > 0.0 && Rng.bool t.rng ~p:p.drop then begin
    t.stats.dropped <- t.stats.dropped + 1;
    0
  end
  else begin
    let jitter =
      if p.reorder > 0.0 && Rng.bool t.rng ~p:p.reorder then
        1 + Rng.int t.rng ~bound:(max 1 p.reorder_window)
      else 0
    in
    let slow =
      if p.delay > 0.0 && Rng.bool t.rng ~p:p.delay then
        1 + Rng.int t.rng ~bound:(max 1 p.delay_max)
      else 0
    in
    let extra = jitter + slow in
    if extra > 0 then t.stats.delayed <- t.stats.delayed + 1;
    arrivals.(0) <- extra;
    if p.duplicate > 0.0 && Rng.bool t.rng ~p:p.duplicate then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      let echo_gap = 1 + Rng.int t.rng ~bound:(max 1 (max p.delay_max p.reorder_window))
      in
      arrivals.(1) <- extra + echo_gap;
      2
    end
    else 1
  end
