open Pcc_core

type params = {
  nodes : int;
  lines : int;
  variant : Types.protocol;
  max_ops_per_node : int;
  fault : Config.fault option;
}

let default_params =
  { nodes = 3; lines = 1; variant = Types.Msi; max_ops_per_node = 2; fault = None }

(* One node's part of one line: its cache copy as a (table state, value)
   pair, and its processor's remaining operations and newest observed
   value.  Values are store versions from a per-line counter, so "the
   newest value" is a comparison; an I copy holds 0, so dead values
   never split states. *)
type node = { st : Mesi.state; value : int; remaining : int; seen : int }

type line = {
  nodes : node list;
  mem : int;  (** home memory's version of the line *)
  vers : int;  (** newest version handed out; 0 = initial value *)
}

type state = line array

let make ?(por = true) (params : params) =
  if params.nodes < 2 || params.nodes > 5 then
    invalid_arg "Snoop_model.make: nodes must be in 2..5";
  if params.lines < 1 then invalid_arg "Snoop_model.make: lines must be positive";
  if params.max_ops_per_node < 0 || params.nodes * params.max_ops_per_node > 255 then
    invalid_arg "Snoop_model.make: versions must fit a byte (nodes * ops <= 255)";
  let table = Mesi.make params.variant params.fault in
  let n = params.nodes in
  let module Model = struct
    type nonrec state = state

    let initial =
      let node = { st = Mesi.I; value = 0; remaining = params.max_ops_per_node; seen = 0 } in
      [ Array.make params.lines { nodes = List.init n (fun _ -> node); mem = 0; vers = 0 } ]

    let prefixes =
      Array.init (params.lines * n) (fun k ->
          if params.lines = 1 then Printf.sprintf "n%d:" k
          else Printf.sprintf "L%d:n%d:" (k / n) (k mod n))

    let label l i op (access : Mesi.access) =
      prefixes.((l * n) + i) ^ op
      ^ match access with Hit -> "hit" | Bus cmd -> Mesi.cmd_name cmd

    let set nodes i c = List.mapi (fun j d -> if j = i then c else d) nodes

    (* One atomic bus transaction: every other cache applies the table's
       reaction to [cmd].  Returns the line after the snoop, the word the
       requester receives (the owner's copy, else memory) and whether any
       cache raised the shared or owner wire. *)
    let bus line i cmd =
      let row = Mesi.row table cmd in
      let mem = ref line.mem and supplied = ref 0 in
      let shared = ref false and owner = ref false in
      let snoop j c =
        if j = i then c
        else begin
          let r = Mesi.react row c.st in
          if r.writeback then mem := c.value;
          if r.supply then supplied := c.value;
          shared := !shared || r.shared || r.owner;
          owner := !owner || r.owner;
          { c with st = r.next; value = (if r.next = I then 0 else c.value) }
        end
      in
      let nodes = List.mapi snoop line.nodes in
      ({ line with nodes; mem = !mem }, (if !owner then !supplied else !mem), !shared)

    (* Every enabled transition of one line, labeled.  An access leaves
       the requester in the table's fill state (a load hit keeps its
       copy), spends one operation and observes the value. *)
    let line_successors l line =
      let out = ref [] in
      List.iteri
        (fun i c ->
          let add op access line' st value =
            let c = { st; value; remaining = c.remaining - 1; seen = max c.seen value } in
            out := (label l i op access, { line' with nodes = set line'.nodes i c }) :: !out
          in
          if c.remaining > 0 then begin
            (match Mesi.request c.st Load with
            | Hit -> add "load-" Hit line c.st c.value
            | Bus cmd as access ->
                let line', data, shared = bus line i cmd in
                add "load-" access line' (Mesi.fill table Load ~shared) data);
            let access = Mesi.request c.st Store in
            let line' =
              match access with
              | Hit -> line
              | Bus cmd ->
                  let line', _, _ = bus line i cmd in
                  line'
            in
            let v = line'.vers + 1 in
            add "store-" access { line' with vers = v } (Mesi.fill table Store ~shared:false) v
          end;
          (* spontaneous evictions keep capacity pressure in the model *)
          if c.st <> I then begin
            let writeback = Mesi.evict_writes_back c.st in
            let mem = if writeback then c.value else line.mem in
            let nodes = set line.nodes i { c with st = I; value = 0 } in
            let evict = if writeback then "evict-writeback" else "evict" in
            out := (prefixes.((l * n) + i) ^ evict, { line with mem; nodes }) :: !out
          end)
        line.nodes;
      List.rev !out

    let groups state =
      List.init params.lines (fun l ->
          List.map
            (fun (label, line') ->
              let state' = Array.copy state in
              state'.(l) <- line';
              (label, state'))
            (line_successors l state.(l)))

    let successors state = List.concat (groups state)

    let por = if por && params.lines > 1 then Some groups else None

    let every check (state : state) = Array.for_all check state

    let invariants =
      List.map
        (fun inv ->
          ( Mesi.invariant_name inv,
            every (fun line ->
                Mesi.holds table inv
                  ~state:(fun c -> c.st)
                  ~value:(fun c -> c.value)
                  ~mem:line.mem line.nodes) ))
        Mesi.invariants
      @ [
          (* the newest version lives in the E/M copy when one exists, in
             home memory otherwise *)
          ( "latest-materialized",
            every (fun line ->
                match List.find_opt (fun c -> c.st = E || c.st = M) line.nodes with
                | Some c -> c.value = line.vers
                | None -> line.mem = line.vers) );
          ( "observations-monotone",
            every (fun line -> List.for_all (fun c -> c.seen <= line.vers) line.nodes) );
        ]

    let is_quiescent = every (fun line -> List.for_all (fun c -> c.remaining = 0) line.nodes)

    (* Fixed-width bytes: per line, home memory and the version counter,
       then each node's state, value, remaining operations and newest
       observation. *)
    let width = 2 + (4 * n)

    let encode state =
      let b = Bytes.create (params.lines * width) in
      Array.iteri
        (fun l line ->
          let o = l * width in
          Bytes.set_uint8 b o line.mem;
          Bytes.set_uint8 b (o + 1) line.vers;
          List.iteri
            (fun i c ->
              let p = o + 2 + (4 * i) in
              Bytes.set_uint8 b p (match c.st with I -> 0 | S -> 1 | E -> 2 | M -> 3);
              Bytes.set_uint8 b (p + 1) c.value;
              Bytes.set_uint8 b (p + 2) c.remaining;
              Bytes.set_uint8 b (p + 3) c.seen)
            line.nodes)
        state;
      Bytes.unsafe_to_string b

    let pp ppf state =
      let copy i c =
        Printf.sprintf "n%d:%s%s" i (Mesi.state_name c.st)
          (if c.st = I then "" else string_of_int c.value)
      in
      Array.iteri
        (fun l line ->
          Format.fprintf ppf "@[<h>L%d: mem=%d vers=%d copies=[%s] remaining=[%s]@]@ " l
            line.mem line.vers
            (String.concat " " (List.mapi copy line.nodes))
            (String.concat " " (List.map (fun c -> string_of_int c.remaining) line.nodes)))
        state
  end in
  (module Model : Checker.MODEL)
