open Pcc_core

exception Violation of string

type t = {
  nodes : Node.t array;
  view : Dir_invariants.view;
  dirty : (Types.line, unit) Hashtbl.t;
  mutable events_count : int;
}

let full_check_period = 10_000

(* The machine's checker judged each commit before any subscriber runs,
   so its first violation aborts the run at the offending commit. *)
let abort_on_violation sys =
  let check = System.checker sys in
  System.on_commit sys (fun _ ->
      if Sc_check.violations check > 0 then
        raise (Violation (List.hd (Sc_check.violation_report check))))

(* ------------------------------------------------------------------ *)
(* Per-line structural invariants                                      *)
(* ------------------------------------------------------------------ *)

(* The simulator answers "may this still be in transit" from the
   directory and producer state alone: anything may be on its way while
   an Excl owner does not yet hold E (its invalidation acks are still
   being collected), while the home is Busy, and while a Dele home's
   producer entry is missing or busy (the delegation handshake or a
   local upgrade is under way); a transfer is in transit while the home
   shows Busy_excl for its requester. *)
let answer_in_transit t =
  let v = t.view in
  let unsettled =
    match v.dir with
    | Directory.Unowned | Directory.Shared_s -> false
    | Directory.Busy_shared | Directory.Busy_excl -> true
    | Directory.Excl ->
        not (v.owner >= 0 && v.l2.(v.owner) = Dir_invariants.Exclusive_copy)
    | Directory.Dele -> (
        v.owner < 0
        ||
        match v.phase.(v.owner) with
        | Delegate_cache.No_entry | Delegate_cache.Busy -> true
        | Delegate_cache.Exclusive | Delegate_cache.Shared -> false)
  in
  let anyone = Nodeset.of_mask (if unsettled then (1 lsl v.nodes) - 1 else 0) in
  v.reaching <- anyone;
  v.delegating <- anyone;
  v.handoff <- unsettled;
  v.transfer <-
    (if v.dir = Directory.Busy_excl && v.requester >= 0 then Nodeset.singleton v.requester
     else Nodeset.empty)

let check_line t line =
  Node.line_view t.nodes line t.view;
  answer_in_transit t;
  if Dir_invariants.violations Dir_invariants.Event_boundary t.view <> [] then
    raise
      (Violation
         (String.concat "; "
            (List.map
               (fun (inv, detail) ->
                 Printf.sprintf "line %s: %s: %s" (Flight_ring.line_name line)
                   (Dir_invariants.name inv) detail)
               (Dir_invariants.explain Dir_invariants.Event_boundary t.view))))

let check_all t = Node.iter_lines t.nodes (check_line t)

(* ------------------------------------------------------------------ *)
(* Hook wiring                                                         *)
(* ------------------------------------------------------------------ *)

let on_post_event t () =
  t.events_count <- t.events_count + 1;
  if Hashtbl.length t.dirty > 0 then begin
    Hashtbl.iter (fun line () -> check_line t line) t.dirty;
    Hashtbl.reset t.dirty
  end;
  if t.events_count mod full_check_period = 0 then check_all t

let attach sys =
  let nodes = System.nodes sys in
  let t =
    {
      nodes;
      view = Dir_invariants.create (Array.length nodes);
      dirty = Hashtbl.create 64;
      events_count = 0;
    }
  in
  let mark ~time:_ ~src:_ ~dst:_ msg = Hashtbl.replace t.dirty (Message.line_of msg) () in
  System.on_message sys mark;
  System.on_recv sys mark;
  System.on_commit sys (fun (c : Probe.commit_event) ->
      Hashtbl.replace t.dirty c.c_line ());
  abort_on_violation sys;
  System.on_post_event sys (fun () -> on_post_event t ());
  t
