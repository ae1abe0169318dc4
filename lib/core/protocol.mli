(** The coherence-protocol names: which machine {!System.create} builds.

    Two backends exist: the paper's adaptive directory protocol ({!Node})
    and the bus-snooping MSI/MESI machine ({!Snoop}).  [Config.protocol]
    selects one, and {!System} holds the nodes it built as one variant,
    matching it wherever the two differ. *)

type kind = Types.protocol = Adaptive | Msi | Mesi

val all : kind list

val to_string : kind -> string
(** ["adaptive"], ["msi"], ["mesi"] — the [--protocol] flag values. *)

val of_string : string -> (kind, string) result
(** Inverse of {!to_string}; [Error] carries a message listing the
    valid names.  Unknown names must be rejected loudly — never fall
    back to a default (a sweep silently run under the wrong backend
    poisons every comparison built on it). *)
