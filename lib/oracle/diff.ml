open Pcc_core
module Model = Pcc_mcheck.Protocol_model
module Step = Model.Step
module Rng = Pcc_engine.Rng

type divergence = { d_line : Types.line; d_detail : string }

type outcome = {
  lines_checked : int;
  lines_skipped : int;
  ops_replayed : int;
  model_steps : int;
  divergences : divergence list;
}

exception Diverged of string

let diverged fmt = Printf.ksprintf (fun s -> raise (Diverged s)) fmt

let max_model_nodes = 8

let is_delivery label = String.starts_with ~prefix:"deliver[" label

let is_issue label =
  (* every issue label is "n<i>:issue-..." *)
  match String.index_opt label ':' with
  | Some i -> String.length label > i + 6 && String.sub label (i + 1) 6 = "issue-"
  | None -> false

let op_node = function
  | Sc_check.O_store { node; _ } | Sc_check.O_load { node; _ } -> node

(* The simulator's authoritative resting value of a line: home memory when
   the home owns it, otherwise the owner's cached or delegated-RAC copy. *)
let sim_final_value sys line =
  let nodes = System.nodes sys in
  let home = nodes.(Types.Layout.home_of_line line) in
  match Directory.find (Node.directory home) line with
  | None -> None
  | Some e -> (
      match e.Directory.state with
      | Directory.Unowned | Directory.Shared_s -> Some e.mem_value
      | Directory.Excl | Directory.Dele | Directory.Busy_shared
      | Directory.Busy_excl -> (
          let owner = nodes.(e.owner) in
          match Node.l2_state owner line with
          | Some l2 -> Some l2.L2.value
          | None -> (
              match Node.rac_value owner line with
              | Some v -> Some v
              | None -> Some e.mem_value)))

(* ------------------------------------------------------------------ *)
(* One line's replay                                                   *)
(* ------------------------------------------------------------------ *)

let replay_line ~rng ~chaos ~step_budget ~(config : Config.t) ~sys ~line ~ops
    ~participants ~count_step =
  let home = Types.Layout.home_of_line line in
  let others = List.sort compare (List.filter (fun n -> n <> home) participants) in
  let renumber =
    let tbl = Hashtbl.create 8 in
    Hashtbl.replace tbl home 0;
    List.iteri (fun i n -> Hashtbl.replace tbl n (i + 1)) others;
    fun n -> Hashtbl.find tbl n
  in
  let params =
    {
      Model.nodes = max 2 (1 + List.length others);
      lines = 1;
      workload = Model.Symmetric;
      max_ops_per_node = List.length ops + 1;
      enable_delegation = config.delegation_enabled;
      enable_updates = config.speculative_updates;
      channel_capacity = 8;
      bug =
        (match config.inject_fault with
        | Some Config.Stale_update_no_resharing -> Some Model.Updates_without_resharing
        | Some Config.Snoop_upgr_skips_invals | None -> None);
    }
  in
  (* globally unique simulator store versions -> the model's dense 1..k *)
  let rank_of =
    let tbl = Hashtbl.create 16 in
    let next = ref 0 in
    List.iter
      (function
        | Sc_check.O_store { value; _ } ->
            incr next;
            Hashtbl.replace tbl value !next
        | Sc_check.O_load _ -> ())
      ops;
    fun value ->
      if value = 0 then 0
      else
        match Hashtbl.find_opt tbl value with
        | Some r -> r
        | None -> diverged "load observed version %d no replayed store produced" value
  in
  let take st (label, st') =
    count_step ();
    (match Step.error st' with
    | Some e -> diverged "model error after %s: %s" label e
    | None -> ());
    List.iter
      (fun (name, holds) ->
        if not (holds st') then diverged "model invariant %S failed after %s" name label)
      Step.invariants;
    ignore st;
    st'
  in
  let quiesced st =
    Step.net_size st = 0
    &&
    let pending = ref false in
    for n = 0 to params.nodes - 1 do
      if Step.has_pending st n then pending := true
    done;
    not !pending
  in
  let drain st0 =
    let st = ref st0 in
    let budget = ref step_budget in
    while not (quiesced !st) do
      if !budget = 0 then diverged "stuck: %d-step budget exhausted while draining" step_budget;
      decr budget;
      let succs = Step.successors params !st in
      let deliveries = List.filter (fun (l, _) -> is_delivery l) succs in
      let spontaneous =
        List.filter (fun (l, _) -> (not (is_delivery l)) && not (is_issue l)) succs
      in
      let pool =
        if deliveries = [] then
          diverged "stuck: operation pending but nothing left to deliver"
        else if spontaneous <> [] && Rng.bool rng ~p:chaos then spontaneous
        else deliveries
      in
      st := take !st (Rng.pick rng (Array.of_list pool))
    done;
    !st
  in
  let issue st ~mnode ~kind =
    let prefix = Printf.sprintf "n%d:issue-%s" mnode kind in
    match
      List.filter (fun (l, _) -> String.starts_with ~prefix l)
        (Step.successors params st)
    with
    | [] -> diverged "model cannot issue a %s for node %d" kind mnode
    | cands -> take st (Rng.pick rng (Array.of_list cands))
  in
  let st = ref (Step.initial params) in
  let stores_done = ref 0 in
  let committed = Array.make params.nodes 0 in
  let replayed = ref 0 in
  let commit_one mnode =
    committed.(mnode) <- committed.(mnode) + 1;
    incr replayed;
    if Step.done_count !st mnode <> committed.(mnode) then
      diverged "model node %d committed %d operations, expected %d" mnode
        (Step.done_count !st mnode)
        committed.(mnode)
  in
  List.iter
    (fun op ->
      let mnode = renumber (op_node op) in
      match op with
      | Sc_check.O_store _ ->
          st := issue !st ~mnode ~kind:"store";
          st := drain !st;
          incr stores_done;
          commit_one mnode;
          if Step.store_count !st <> !stores_done then
            diverged "after store #%d the model counts %d stores" !stores_done
              (Step.store_count !st)
      | Sc_check.O_load { value; _ } ->
          let rank = rank_of value in
          if rank <> !stores_done then
            diverged "serial order broken: load of version rank %d replayed after %d stores"
              rank !stores_done;
          st := issue !st ~mnode ~kind:"load";
          st := drain !st;
          commit_one mnode;
          (* a full drain leaves only newest-value copies, so the load —
             serialized after its store — must have observed it *)
          if Step.last_seen !st mnode <> !stores_done then
            diverged "node %d read version %d where the simulator read %d" mnode
              (Step.last_seen !st mnode)
              !stores_done)
    ops;
  let stf = !st in
  if not (Step.dir_stable stf) then
    diverged "directory still in a transient state after the final drain";
  let check = System.checker sys in
  let nstores = Sc_check.store_count check line in
  if !stores_done <> nstores then
    diverged "replayed %d stores but the SC checker recorded %d" !stores_done nstores;
  if Step.store_count stf <> nstores then
    diverged "model finished with %d stores, simulator committed %d"
      (Step.store_count stf) nstores;
  (match Step.final_value stf with
  | Some v when v = nstores -> ()
  | Some v -> diverged "model's final value is %d, expected %d" v nstores
  | None -> diverged "model has no resting final value after the drain");
  (match sim_final_value sys line with
  | Some v when v = Sc_check.last_store check line -> ()
  | Some v ->
      diverged "simulator's final value is version %d but its newest store was %d" v
        (Sc_check.last_store check line)
  | None -> ());
  !replayed

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let replay ?(max_lines = 400) ?(chaos = 0.25) ?(step_budget = 20_000) ~seed ~sys () =
  let config = System.config sys in
  let rng = Rng.create ~seed in
  let annotated =
    List.map
      (fun (line, ops) ->
        (line, ops, List.sort_uniq compare (List.map op_node ops)))
      (Sc_check.linearize (System.checker sys))
  in
  (* busiest multi-node lines first: they carry the interesting races *)
  let prioritized =
    List.sort
      (fun (_, ops_a, parts_a) (_, ops_b, parts_b) ->
        compare
          (List.length parts_b, List.length ops_b)
          (List.length parts_a, List.length ops_a))
      annotated
  in
  let checked = ref 0 in
  let skipped = ref 0 in
  let replayed = ref 0 in
  let steps = ref 0 in
  let divergences = ref [] in
  List.iteri
    (fun i (line, ops, participants) ->
      let home = Types.Layout.home_of_line line in
      let model_nodes =
        1 + List.length (List.filter (fun n -> n <> home) participants)
      in
      (* the model's slots must hold every version and tid the line replays *)
      let too_wide = max 2 model_nodes * (List.length ops + 1) > Step.max_value in
      if i >= max_lines || model_nodes > max_model_nodes || too_wide then incr skipped
      else begin
        incr checked;
        try
          replayed :=
            !replayed
            + replay_line ~rng ~chaos ~step_budget ~config ~sys ~line ~ops ~participants
                ~count_step:(fun () -> incr steps)
        with Diverged detail ->
          divergences := { d_line = line; d_detail = detail } :: !divergences
      end)
    prioritized;
  {
    lines_checked = !checked;
    lines_skipped = !skipped;
    ops_replayed = !replayed;
    model_steps = !steps;
    divergences = List.rev !divergences;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>replayed %d ops on %d lines (%d skipped) in %d model steps@,"
    o.ops_replayed o.lines_checked o.lines_skipped o.model_steps;
  (match o.divergences with
  | [] -> Format.fprintf ppf "no divergences@]"
  | ds ->
      Format.fprintf ppf "%d divergence(s):@," (List.length ds);
      List.iter
        (fun d ->
          Format.fprintf ppf "  line %d@%d: %s@,"
            (Types.Layout.index_of_line d.d_line)
            (Types.Layout.home_of_line d.d_line)
            d.d_detail)
        ds;
      Format.fprintf ppf "@]")
