(** The adaptive protocol's structural invariants (§2.5), stated once.

    The paper verifies its protocol with Murphi against "single writer
    exists" and "consistency within the directory"; delegation adds
    "delegation consistency".  This module states each once, over a
    {!view} of one line, as {!Mesi} does for MSI/MESI.  Three callers
    fill the view from their own state, and the checks never ask which:
    the online auditor ([Pcc_oracle.Audit]) after every simulator event
    and the model checker ([Pcc_mcheck.Protocol_model]) on every state,
    both at {!Event_boundary}, and {!Node.check_invariants} on a drained
    machine at {!Quiescent}.  A clean check allocates nothing. *)

type copy = L2.copy = No_copy | Shared_copy | Exclusive_copy  (** a node's L2 copy *)

(** One line as its caller sees it.  The in-transit sets answer "may a
    message still in transit account for this node?": the model answers
    from its network, the auditor from directory and producer state. *)
type view = {
  mutable nodes : int;
  mutable dir : Directory.dstate;  (** the home's entry ([Unowned] if none) *)
  mutable owner : Types.node_id;  (** [-1] when there is none *)
  mutable requester : Types.node_id;  (** the requester a Busy entry serves *)
  mutable sharers : Nodeset.t;
  mutable mem : int;  (** home memory's value *)
  l2 : copy array;
  l2_value : int array;
  rac : bool array;  (** the node's RAC holds the line *)
  rac_value : int array;
  phase : Delegate_cache.phase array;  (** a node's producer entry *)
  vector : Nodeset.t array;  (** a producer entry's sharing vector *)
  mutable transfer : Nodeset.t;  (** granted by a transfer not yet acknowledged *)
  mutable reaching : Nodeset.t;
      (** an invalidation or update to the node, or an undelegation whose
          vector holds it, is in transit *)
  mutable delegating : Nodeset.t;
      (** the vector of a delegation travelling to the owner *)
  mutable handoff : bool;
      (** a delegation to, or undelegation from, the owner is in transit *)
}

val create : int -> view
(** Room for that many nodes ([nodes] may be lowered): an unowned line
    nobody holds, nothing in transit. *)

type strength =
  | Event_boundary  (** requests, invalidations and handshakes may be in flight *)
  | Quiescent
      (** also nothing Busy and every grant landed; every in-transit set
          is read as empty *)

type invariant =
  | Single_writer
      (** at most one L2-exclusive copy, at the owner the home names or
          granted by a transfer in transit *)
  | Directory_consistency
      (** every copy is covered by the home's or the producer's sharing
          vector or by a message in transit; a stable line's copies equal
          home memory ([Shared_s]) or the producer's RAC (shared
          delegation); no other node holds a copy while an [Excl] owner
          holds E or the producer is exclusive *)
  | Delegation_consistency
      (** a producer entry is reflected by its home ([Dele] or
          [Busy_excl] with that owner) and backed by a RAC copy, and a
          [Dele] home's owner holds one *)

val invariants : invariant list
(** In the model's order. *)

val name : invariant -> string
(** ["single writer exists"], ["consistency within the directory"],
    ["delegation consistency"]. *)

val holds : strength -> invariant -> view -> bool

val violations : strength -> view -> invariant list
(** The broken invariants, in {!invariants} order; [[]] allocates
    nothing. *)

val explain : strength -> view -> (invariant * string) list
(** One description per broken rule and node, in {!invariants} order,
    such as ["node 2 holds a copy not covered by producer's sharing
    vector"]. *)
