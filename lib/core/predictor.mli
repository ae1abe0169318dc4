(** Producer-consumer sharing-pattern detector (§2.2).

    Each directory-cache entry carries three extra fields: the last writer
    (4 bits), a saturating count of reads from unique nodes since the last
    write (2 bits), and a saturating write-repeat counter (2 bits)
    incremented whenever the same node writes twice with at least one
    intervening read.  A block is flagged producer-consumer when the
    write-repeat counter saturates.  The bits are {e not} preserved when a
    directory entry leaves the directory cache. *)

type params = {
  write_repeat_threshold : int;  (** saturation value; 3 for a 2-bit counter *)
  reader_count_max : int;  (** saturation value; 3 for a 2-bit counter *)
}

val params_of_config : Config.t -> params

type entry

val fresh : unit -> entry
(** Entry for a block newly (re)inserted in the directory cache. *)

val record_read : params -> entry -> reader:Types.node_id -> unique:bool -> unit
(** A read request reached the directory.  [unique] is true when the
    reader was not already in the sharing vector. *)

val record_write : params -> entry -> writer:Types.node_id -> unit
(** A write (exclusive request) reached the directory.  Updates the
    write-repeat counter per the detection rule and resets the reader
    count. *)

val is_producer_consumer : params -> entry -> bool
(** True once the write-repeat counter has saturated. *)

val producer : entry -> Types.node_id option
(** The last writer, i.e. the predicted producer.  [None] before any
    write has been observed. *)

val write_repeat : entry -> int

val reader_count : entry -> int

val storage_bits : entry -> int
(** Hardware cost of the extension fields (8 bits, §3.3.1). *)
