(** Compact binary program traces: int-packed records, an atomic
    streaming writer, and a seekable chunked reader.

    One record is one {!Pcc_core.Op_stream} packed op, LEB128
    varint-encoded, grouped into per-node chunks with a seekable chunk
    index in the footer:

    {v
    header  := "PCCT" | u8 version | varint nodes
    chunk   := varint node | varint nrecords | varint nbytes | payload
    index   := varint nchunks | (node, payload_offset, nbytes, nrecords)*
    trailer := u64le index_offset | "PCCX"
    v}

    The writer stages into a temp file and renames on {!Writer.close},
    so readers never observe a partial trace; truncation of a copied
    file is caught by the trailer magic.  Reading back is a streaming
    {!Pcc_core.Op_stream.t} whose steady-state pulls do not allocate
    (in-buffer varint decodes; chunk loads reuse one buffer per node),
    which keeps 10^8-record replays on the allocation-gated hot path. *)

open Pcc_core

(** Streaming writer (record mode). *)
module Writer : sig
  type t

  val create : ?chunk_records:int -> path:string -> nodes:int -> unit -> t
  (** Opens [path ^ ".tmp.<pid>"]; nothing appears at [path] until
      {!close}.  [chunk_records] (default 8192) bounds records per
      chunk — small values exercise chunk boundaries in tests. *)

  val add : t -> node:int -> int -> unit
  (** Append one packed op ({!Pcc_core.Op_stream.pack_op}) to a node's
      program. *)

  val add_op : t -> node:int -> Types.op -> unit

  val close : t -> unit
  (** Flush pending chunks, write the index and trailer, and atomically
      rename into place.  Idempotent. *)

  val abort : t -> unit
  (** Drop the temp file without publishing anything. *)
end

type reader

val open_file : string -> (reader, string) result
(** Validate magic/version/trailer and load the chunk index.  [Error]
    on anything that is not a complete version-1 trace (including
    truncated files). *)

val nodes : reader -> int

val records : reader -> int
(** Total records across all nodes (from the index — no payload scan). *)

val stream : reader -> Op_stream.t
(** A fresh streaming pass over the trace.  Each call opens its own
    channel, so one trace can feed many runs.  Raises [Failure] mid-pull
    on a corrupt chunk payload (the index is validated upfront). *)

val recording : Writer.t -> Op_stream.t -> Op_stream.t
(** Tee a feed through a writer: every pulled op is also appended, so a
    run can be captured exactly as executed ([pcc_sim --record]). *)

val write : ?chunk_records:int -> path:string -> Types.op list array -> unit
(** Convenience: serialize materialized programs in one call. *)

val read : path:string -> (Types.op list array, string) result
(** Convenience: drain a whole trace into materialized programs. *)
