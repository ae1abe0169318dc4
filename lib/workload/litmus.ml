(* The litmus corpus and its compilation to simulator programs.  See
   litmus.mli for the axiom-to-check mapping. *)

open Pcc_core

type instr = Load of int | Store of int | Delay of int | Barrier of int

type obs = {
  o_node : int;
  o_kind : Types.op_kind;
  o_loc : int;
  o_value : int;
}

type test = {
  name : string;
  threads : instr list list;
  rounds : int;
  forbidden : (string * (obs list -> bool)) option;
}

let nodes test = max 2 (List.length test.threads)

let line_of_loc ~nodes loc = Types.Layout.make_line ~home:(loc mod nodes) ~index:loc

let programs ~nodes test =
  let compile_instr = function
    | Load loc -> Types.Access (Types.Load, line_of_loc ~nodes loc)
    | Store loc -> Types.Access (Types.Store, line_of_loc ~nodes loc)
    | Delay n -> Types.Compute n
    | Barrier id -> Types.Barrier id
  in
  let thread instrs =
    List.concat (List.init test.rounds (fun _ -> List.map compile_instr instrs))
  in
  Array.init nodes (fun n ->
      match List.nth_opt test.threads n with
      | Some instrs -> thread instrs
      | None -> [])

(* Thread 0 is the home of location 0 (and of every [loc mod nodes = 0]
   location); producers run on non-home nodes so delegation and updates
   actually engage.  Rounds are sized to saturate the write-repeat
   predictor with margin, so the optimized paths are exercised, while
   keeping each run to a few dozen operations per thread. *)

(* A node's load returned an older version than a store the same node
   committed earlier (coWR read from the past). *)
let own_store_overtaken observations =
  let last_store = Hashtbl.create 8 in
  List.exists
    (fun o ->
      let key = (o.o_node, o.o_loc) in
      match o.o_kind with
      | Types.Store ->
          Hashtbl.replace last_store key o.o_value;
          false
      | Types.Load -> (
          match Hashtbl.find_opt last_store key with
          | Some v -> o.o_value < v
          | None -> false))
    observations

(* Message passing via two locations: after the consumer observes flag
   version [fv], its next data load must return at least the newest data
   store serialized before [fv] (store versions are drawn from one
   global counter, so cross-line ordering is comparable). *)
let mp_stale_data ~data ~flag ~producer ~consumer observations =
  let data_stores =
    List.filter_map
      (fun o ->
        if o.o_node = producer && o.o_kind = Types.Store && o.o_loc = data then
          Some o.o_value
        else None)
      observations
  in
  let newest_data_before fv =
    List.fold_left (fun acc v -> if v < fv then max acc v else acc) 0 data_stores
  in
  let rec scan threshold = function
    | [] -> false
    | o :: rest when o.o_node <> consumer || o.o_kind <> Types.Load ->
        scan threshold rest
    | o :: rest when o.o_loc = flag ->
        scan (max threshold (newest_data_before o.o_value)) rest
    | o :: rest ->
        (* consumer data load *)
        if o.o_loc = data && o.o_value < threshold then true else scan threshold rest
  in
  scan 0 observations

let corpus =
  [
    (* dueling stores *)
    {
      name = "coWW";
      threads = [ [ Load 0; Delay 40 ]; [ Store 0; Delay 60 ]; [ Store 0; Delay 90 ] ];
      rounds = 10;
      forbidden = None;
    };
    (* producer-consumer *)
    {
      name = "coRR";
      threads =
        [ [ Load 0; Delay 50 ]; [ Store 0; Delay 40 ]; [ Load 0; Load 0; Delay 30 ] ];
      rounds = 16;
      forbidden = None;
    };
    (* read-modify *)
    {
      name = "coRW";
      threads = [ []; [ Load 0; Store 0; Delay 50 ]; [ Load 0; Store 0; Delay 70 ] ];
      rounds = 10;
      forbidden = None;
    };
    (* store then load *)
    {
      name = "coWR";
      threads = [ []; [ Store 0; Load 0; Delay 50 ]; [ Store 0; Load 0; Delay 70 ] ];
      rounds = 10;
      forbidden = Some ("own store overtaken by an older value", own_store_overtaken);
    };
    (* flag then stale data *)
    {
      name = "mp";
      threads =
        [
          [];
          [ Store 2; Store 1; Delay 60 ] (* data (loc 2), then flag (loc 1) *);
          [ Load 1; Load 2; Delay 40 ];
        ];
      rounds = 16;
      forbidden =
        Some
          ( "consumer saw the flag but stale data",
            mp_stale_data ~data:2 ~flag:1 ~producer:1 ~consumer:2 );
    };
  ]
