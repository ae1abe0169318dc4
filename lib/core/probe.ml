module Sim = Pcc_engine.Simulator

type commit_event = {
  c_node : Types.node_id;
  c_kind : Types.op_kind;
  c_line : Types.line;
  c_value : int;
  c_started : int;
  c_time : int;
  c_miss : Types.miss_class option;
}

type message_fn = time:int -> src:Types.node_id -> dst:Types.node_id -> Message.t -> unit

type t = {
  sim : Sim.t;
  ring : Flight_ring.t;
  check : Sc_check.t;
  (* subscribers per event kind, in registration order *)
  mutable sends : message_fn list;
  mutable recvs : message_fn list;
  mutable issues :
    (time:int -> node:Types.node_id -> kind:Types.op_kind -> line:Types.line -> unit)
    list;
  mutable commits : (commit_event -> unit) list;
  mutable retransmits : (time:int -> src:Types.node_id -> dst:Types.node_id -> unit) list;
}

let create ~sim ~nodes =
  {
    sim;
    ring = Flight_ring.create ();
    check = Sc_check.create ~nodes;
    sends = [];
    recvs = [];
    issues = [];
    commits = [];
    retransmits = [];
  }

let flight t = t.ring

let checker t = t.check

let on_send t f = t.sends <- t.sends @ [ f ]

let on_recv t f = t.recvs <- t.recvs @ [ f ]

let on_issue t f = t.issues <- t.issues @ [ f ]

let on_commit t f = t.commits <- t.commits @ [ f ]

let on_retransmit t f = t.retransmits <- t.retransmits @ [ f ]

(* Top-level fan-out loops: calling subscribers allocates no closure. *)

let rec fire_message fs ~time ~src ~dst msg =
  match fs with
  | [] -> ()
  | f :: rest ->
      f ~time ~src ~dst msg;
      fire_message rest ~time ~src ~dst msg

let rec fire_issue fs ~time ~node ~kind ~line =
  match fs with
  | [] -> ()
  | f :: rest ->
      f ~time ~node ~kind ~line;
      fire_issue rest ~time ~node ~kind ~line

let rec fire_commit fs event =
  match fs with
  | [] -> ()
  | f :: rest ->
      f event;
      fire_commit rest event

let rec fire_link fs ~time ~src ~dst =
  match fs with
  | [] -> ()
  | f :: rest ->
      f ~time ~src ~dst;
      fire_link rest ~time ~src ~dst

let op_code = function Types.Load -> 0 | Types.Store -> 1

let message t ~kind ~subscribers ~src ~dst msg =
  let time = Sim.now t.sim in
  Flight_ring.record t.ring ~time ~kind ~detail:(Message.class_index msg) ~src ~dst
    ~line:(Message.line_of msg) ~arg:0;
  fire_message subscribers ~time ~src ~dst msg

let send t ~src ~dst msg =
  message t ~kind:Flight_ring.k_send ~subscribers:t.sends ~src ~dst msg

let recv t ~src ~dst msg =
  message t ~kind:Flight_ring.k_recv ~subscribers:t.recvs ~src ~dst msg

let issue t ~node ~kind ~line =
  let time = Sim.now t.sim in
  Flight_ring.record t.ring ~time ~kind:Flight_ring.k_issue ~detail:(op_code kind)
    ~src:node ~dst:node ~line ~arg:0;
  fire_issue t.issues ~time ~node ~kind ~line

let commit t ~node ~kind ~line ~value ~started ~miss =
  let time = Sim.now t.sim in
  Flight_ring.record t.ring ~time ~kind:Flight_ring.k_commit ~detail:(op_code kind)
    ~src:node ~dst:node ~line ~arg:value;
  Sc_check.commit t.check ~node ~kind ~line ~value ~started ~time;
  match t.commits with
  | [] -> ()
  | fs ->
      fire_commit fs
        {
          c_node = node;
          c_kind = kind;
          c_line = line;
          c_value = value;
          c_started = started;
          c_time = time;
          c_miss = miss;
        }

let retransmit t ~src ~dst =
  let time = Sim.now t.sim in
  Flight_ring.record t.ring ~time ~kind:Flight_ring.k_retransmit ~detail:0 ~src ~dst
    ~line:(-1) ~arg:0;
  fire_link t.retransmits ~time ~src ~dst

let note t ~node ~code ~line ~arg =
  Flight_ring.record t.ring ~time:(Sim.now t.sim) ~kind:Flight_ring.k_note ~detail:code
    ~src:node ~dst:node ~line ~arg
