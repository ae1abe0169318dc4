(* First-class workloads.

   Mirrors the PR 9 protocol-backend redesign on the workload side: a
   workload is a module implementing [S] — a streaming source of packed
   ops with a declared node/line footprint — existentially packed so
   System/bench/CLIs consume any workload backend-agnostically.  The
   seven paper apps are the first instances (materialized programs
   bridged through [Op_stream.of_programs], bit-identical to the eager
   path); the datacenter generators and binary-trace replays are the
   streaming ones.

   The registry maps the CLI spec grammar [NAME:k=v,...] to instances.
   Unknown names and unknown keys are rejected loudly with suggestions —
   a sweep silently run under the wrong workload poisons every
   comparison built on it (same contract as Protocol.of_string). *)

open Pcc_core

module type S = sig
  type t

  val name : t -> string

  val describe : t -> string

  val nodes : t -> int

  val footprint : t -> int

  val total_accesses : t -> int option

  val stream : t -> Op_stream.t
end

type packed = Pack : (module S with type t = 'a) * 'a -> packed

let name (Pack ((module W), w)) = W.name w

let describe (Pack ((module W), w)) = W.describe w

let nodes (Pack ((module W), w)) = W.nodes w

let footprint (Pack ((module W), w)) = W.footprint w

let total_accesses (Pack ((module W), w)) = W.total_accesses w

let stream (Pack ((module W), w)) = W.stream w

let programs p = Op_stream.to_programs (stream p)

(* The universal instance carrier: a name, a footprint, and a thunk
   producing a fresh rewound feed.  Having one concrete module (rather
   than one per workload) keeps registry entries one-liners; anything
   genuinely new can still implement [S] directly. *)
module Instance = struct
  type t = {
    i_name : string;
    i_describe : string;
    i_nodes : int;
    i_footprint : int Lazy.t;
    i_accesses : int option Lazy.t;
    i_stream : unit -> Op_stream.t;
  }

  let name t = t.i_name

  let describe t = t.i_describe

  let nodes t = t.i_nodes

  let footprint t = Lazy.force t.i_footprint

  let total_accesses t = Lazy.force t.i_accesses

  let stream t = t.i_stream ()
end

let make ~name ~describe ~nodes ~footprint ~accesses stream =
  Pack
    ( (module Instance),
      {
        Instance.i_name = name;
        i_describe = describe;
        i_nodes = nodes;
        i_footprint = footprint;
        i_accesses = accesses;
        i_stream = stream;
      } )

let distinct_lines programs =
  let seen = Hashtbl.create 256 in
  Array.iter
    (List.iter (function
      | Types.Access (_, line) -> Hashtbl.replace seen line ()
      | Types.Compute _ | Types.Barrier _ -> ()))
    programs;
  Hashtbl.length seen

let of_materialized ~name ~describe ~nodes programs =
  make ~name ~describe ~nodes
    ~footprint:(lazy (distinct_lines (Lazy.force programs)))
    ~accesses:(lazy (Some (Gen.total_ops (Lazy.force programs))))
    (fun () -> Op_stream.of_programs (Lazy.force programs))

let of_dcgen (g : Dcgen.t) =
  make ~name:g.Dcgen.g_name ~describe:g.Dcgen.g_describe ~nodes:g.Dcgen.g_nodes
    ~footprint:(lazy g.Dcgen.g_footprint)
    ~accesses:(lazy (Some g.Dcgen.g_accesses))
    g.Dcgen.g_stream

(* The distilled producer-consumer microbenchmark (the paper's target
   pattern): node 0 writes a handful of lines each epoch, every other
   node reads them, barrier, repeat.  Previously private to pcc_trace;
   promoted here so every CLI can run it by name. *)
let prodcons_spec ~nodes ~scale ~seed =
  {
    Gen.name = "prodcons";
    nodes;
    phases = 2;
    epochs_per_phase = max 2 (int_of_float (20.0 *. scale /. 0.15));
    lines =
      List.init 4 (fun i ->
          {
            Gen.line = Gen.shared_line ~home:0 i;
            producer_of_phase = (fun _ -> 0);
            consumers_of_phase = (fun _ -> List.init (nodes - 1) (fun c -> c + 1));
            writes_per_epoch = 4;
            reads_per_epoch = 2;
          });
    private_lines_per_node = 4;
    private_accesses_per_epoch = 6;
    private_write_fraction = 0.4;
    compute_per_epoch = 60;
    seed;
  }

(* --- spec grammar ------------------------------------------------- *)

type spec = { spec_name : string; spec_params : (string * string) list }

let ( let* ) = Result.bind

let parse_spec s =
  let s = String.trim s in
  if s = "" then Error "empty workload spec"
  else
    match String.index_opt s ':' with
    | None -> Ok { spec_name = String.lowercase_ascii s; spec_params = [] }
    | Some i ->
        let name = String.lowercase_ascii (String.sub s 0 i) in
        let rest = String.sub s (i + 1) (String.length s - i - 1) in
        let rec parse acc = function
          | [] -> Ok { spec_name = name; spec_params = List.rev acc }
          | kv :: tl -> (
              match String.index_opt kv '=' with
              | None ->
                  Error
                    (Printf.sprintf "workload %s: malformed parameter %S (want key=value)"
                       name kv)
              | Some j ->
                  let key = String.lowercase_ascii (String.trim (String.sub kv 0 j)) in
                  let value =
                    String.trim (String.sub kv (j + 1) (String.length kv - j - 1))
                  in
                  if key = "" then
                    Error (Printf.sprintf "workload %s: empty parameter key in %S" name kv)
                  else parse ((key, value) :: acc) tl)
        in
        parse [] (String.split_on_char ',' rest)

let int_param ~workload params key default =
  match List.assoc_opt key params with
  | None -> Ok default
  | Some v -> (
      match int_of_string_opt v with
      | Some i -> Ok i
      | None ->
          Error
            (Printf.sprintf "workload %s: key %s wants an integer, got %S" workload key v))

let float_param ~workload params key default =
  match List.assoc_opt key params with
  | None -> Ok default
  | Some v -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None ->
          Error
            (Printf.sprintf "workload %s: key %s wants a number, got %S" workload key v))

(* --- registry ----------------------------------------------------- *)

type ctx = { c_nodes : int; c_scale : float; c_seed : int }

type entry = {
  e_name : string;
  e_summary : string;
  e_keys : string list;
  e_make : ctx -> (string * string) list -> (packed, string) result;
}

let scale_seed_entry ~name ~summary build =
  {
    e_name = name;
    e_summary = summary;
    e_keys = [ "scale"; "seed" ];
    e_make =
      (fun ctx params ->
        let* scale = float_param ~workload:name params "scale" ctx.c_scale in
        let* seed = int_param ~workload:name params "seed" ctx.c_seed in
        build ~nodes:ctx.c_nodes ~scale ~seed);
  }

let app_entry (app : Apps.app) =
  let name = String.lowercase_ascii app.Apps.name in
  scale_seed_entry ~name ~summary:app.Apps.problem_size (fun ~nodes ~scale ~seed ->
      Ok
        (of_materialized ~name ~nodes
           ~describe:(Printf.sprintf "%s:scale=%g,seed=%d" name scale seed)
           (lazy (Apps.programs app ~scale ~seed ~nodes ()))))

(* [litmus:test=ID]; without [test], the corpus's first test *)
let litmus_test params =
  match List.assoc_opt "test" params with
  | None -> Ok (List.hd Litmus.corpus)
  | Some id -> (
      match List.find_opt (fun t -> t.Litmus.name = id) Litmus.corpus with
      | Some test -> Ok test
      | None ->
          Error
            (Printf.sprintf "workload litmus: unknown test %S (tests: %s)" id
               (String.concat ", " (List.map (fun t -> t.Litmus.name) Litmus.corpus))))

let entries =
  List.map app_entry Apps.all
  @ [
      {
        e_name = "random";
        e_summary = "small random sharing structure (differential/fuzz testing)";
        e_keys = [ "seed" ];
        e_make =
          (fun ctx params ->
            let* seed = int_param ~workload:"random" params "seed" ctx.c_seed in
            Ok
              (of_materialized ~name:"random" ~nodes:ctx.c_nodes
                 ~describe:(Printf.sprintf "random:seed=%d" seed)
                 (lazy (Gen.programs (Gen.random_spec ~nodes:ctx.c_nodes ~seed)))));
      };
      scale_seed_entry ~name:"prodcons"
        ~summary:"distilled producer-consumer microbenchmark (1 writer, N-1 readers)"
        (fun ~nodes ~scale ~seed ->
          Ok
            (of_materialized ~name:"prodcons" ~nodes
               ~describe:(Printf.sprintf "prodcons:scale=%g,seed=%d" scale seed)
               (lazy (Gen.programs (prodcons_spec ~nodes ~scale ~seed)))));
      {
        e_name = "kv";
        e_summary = "sharded KV store with Zipf-hot keys (streaming)";
        e_keys = [ "keys"; "skew"; "write-frac"; "ops"; "events"; "seed" ];
        e_make =
          (fun ctx params ->
            let w = "kv" in
            let* keys = int_param ~workload:w params "keys" 2048 in
            let* skew = float_param ~workload:w params "skew" 0.9 in
            let* write_frac = float_param ~workload:w params "write-frac" 0.2 in
            let* ops_per_epoch = int_param ~workload:w params "ops" 96 in
            let* events = int_param ~workload:w params "events" 400_000 in
            let* seed = int_param ~workload:w params "seed" ctx.c_seed in
            Ok
              (of_dcgen
                 (Dcgen.kv ~nodes:ctx.c_nodes ~seed ~keys ~skew ~write_frac
                    ~ops_per_epoch ~events ())));
      };
      {
        e_name = "pubsub";
        e_summary = "pub/sub fan-out with skewed subscriber counts (streaming)";
        e_keys = [ "topics"; "skew"; "fanout"; "events"; "seed" ];
        e_make =
          (fun ctx params ->
            let w = "pubsub" in
            let* topics = int_param ~workload:w params "topics" 192 in
            let* skew = float_param ~workload:w params "skew" 1.2 in
            let* max_fanout = int_param ~workload:w params "fanout" 0 in
            let* events = int_param ~workload:w params "events" 400_000 in
            let* seed = int_param ~workload:w params "seed" ctx.c_seed in
            Ok
              (of_dcgen
                 (Dcgen.pubsub ~nodes:ctx.c_nodes ~seed ~topics ~skew ~max_fanout
                    ~events ())));
      };
      {
        e_name = "worksteal";
        e_summary = "work-stealing deques with Zipf-popular victims (streaming)";
        e_keys = [ "queue"; "steal-frac"; "skew"; "tasks"; "events"; "seed" ];
        e_make =
          (fun ctx params ->
            let w = "worksteal" in
            let* queue = int_param ~workload:w params "queue" 8 in
            let* steal_frac = float_param ~workload:w params "steal-frac" 0.3 in
            let* skew = float_param ~workload:w params "skew" 1.0 in
            let* tasks_per_epoch = int_param ~workload:w params "tasks" 48 in
            let* events = int_param ~workload:w params "events" 400_000 in
            let* seed = int_param ~workload:w params "seed" ctx.c_seed in
            Ok
              (of_dcgen
                 (Dcgen.worksteal ~nodes:ctx.c_nodes ~seed ~queue ~steal_frac ~skew
                    ~tasks_per_epoch ~events ())));
      };
      {
        e_name = "mpsc";
        e_summary = "MPSC log ingestion with rotating producers (streaming)";
        e_keys = [ "consumers"; "slots"; "rotate"; "skew"; "appends"; "events"; "seed" ];
        e_make =
          (fun ctx params ->
            let w = "mpsc" in
            let* consumers = int_param ~workload:w params "consumers" 0 in
            let* slots = int_param ~workload:w params "slots" 16 in
            let* rotate = int_param ~workload:w params "rotate" 4 in
            let* skew = float_param ~workload:w params "skew" 0.8 in
            let* appends_per_epoch = int_param ~workload:w params "appends" 48 in
            let* events = int_param ~workload:w params "events" 400_000 in
            let* seed = int_param ~workload:w params "seed" ctx.c_seed in
            Ok
              (of_dcgen
                 (Dcgen.mpsc ~nodes:ctx.c_nodes ~seed ~consumers ~slots ~rotate ~skew
                    ~appends_per_epoch ~events ())));
      };
      {
        e_name = "litmus";
        e_summary = "a test of the per-location SC litmus corpus (litmus:test=ID)";
        e_keys = [ "test" ];
        e_make =
          (fun ctx params ->
            let* test = litmus_test params in
            let nodes = ctx.c_nodes in
            if nodes < Litmus.nodes test then
              Error
                (Printf.sprintf "workload litmus: test %s needs %d nodes, got %d"
                   test.Litmus.name (Litmus.nodes test) nodes)
            else
              Ok
                (of_materialized ~name:"litmus" ~nodes
                   ~describe:("litmus:test=" ^ test.Litmus.name)
                   (lazy (Litmus.programs ~nodes test))));
      };
      {
        e_name = "trace";
        e_summary = "replay a recorded binary trace (trace:file=PATH)";
        e_keys = [ "file" ];
        e_make =
          (fun _ctx params ->
            match List.assoc_opt "file" params with
            | None -> Error "workload trace: key file=PATH is required"
            | Some path -> (
                match Btrace.open_file path with
                | Error m -> Error ("workload trace: " ^ m)
                | Ok reader ->
                    Ok
                      (make ~name:"trace"
                         ~describe:(Printf.sprintf "trace:file=%s" path)
                         ~nodes:(Btrace.nodes reader) ~footprint:(lazy 0)
                         ~accesses:(lazy None)
                         (fun () -> Btrace.stream reader))));
      };
    ]

let names () = List.map (fun e -> e.e_name) entries

let summaries () = List.map (fun e -> (e.e_name, e.e_summary)) entries

(* Suggestions for unknown names: closest by edit distance, so a typoed
   sweep fails with "did you mean" instead of running the wrong load. *)
let levenshtein a b =
  let la = String.length a and lb = String.length b in
  let prev = Array.init (lb + 1) Fun.id in
  let cur = Array.make (lb + 1) 0 in
  for i = 1 to la do
    cur.(0) <- i;
    for j = 1 to lb do
      let cost = if a.[i - 1] = b.[j - 1] then 0 else 1 in
      cur.(j) <- min (min (cur.(j - 1) + 1) (prev.(j) + 1)) (prev.(j - 1) + cost)
    done;
    Array.blit cur 0 prev 0 (lb + 1)
  done;
  prev.(lb)

let suggest name =
  let scored =
    List.filter_map
      (fun e ->
        let d = levenshtein name e.e_name in
        if d <= 2 then Some (d, e.e_name) else None)
      entries
  in
  List.sort compare scored |> List.map snd

let unknown_message name =
  let valid = String.concat ", " (names ()) in
  match suggest name with
  | [] -> Printf.sprintf "unknown workload %S; valid workloads: %s" name valid
  | close ->
      Printf.sprintf "unknown workload %S; did you mean %s? valid workloads: %s" name
        (String.concat " or " close)
        valid

let of_spec ~nodes ~scale ~seed s =
  let* spec = parse_spec s in
  match List.find_opt (fun e -> e.e_name = spec.spec_name) entries with
  | None -> Error (unknown_message spec.spec_name)
  | Some e ->
      let rec check_keys = function
        | [] -> Ok ()
        | (key, _) :: tl ->
            if List.mem key e.e_keys then check_keys tl
            else
              Error
                (Printf.sprintf "workload %s: unknown key %S (valid keys: %s)" e.e_name
                   key
                   (String.concat ", " e.e_keys))
      in
      let* () = check_keys spec.spec_params in
      e.e_make { c_nodes = nodes; c_scale = scale; c_seed = seed } spec.spec_params

let litmus s =
  match parse_spec s with
  | Ok { spec_name = "litmus"; spec_params } -> Result.to_option (litmus_test spec_params)
  | Ok _ | Error _ -> None
