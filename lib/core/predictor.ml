type params = { write_repeat_threshold : int; reader_count_max : int }

(* The unique-reader count is a 2-bit saturating counter (§2.2). *)
let reader_count_bits = 2

let params_of_config (config : Config.t) =
  {
    write_repeat_threshold = config.write_repeat_threshold;
    reader_count_max = (1 lsl reader_count_bits) - 1;
  }

type entry = {
  mutable last_writer : int;  (* -1 until a write is seen *)
  mutable reader_count : int;
  mutable write_repeat : int;
}

let fresh () = { last_writer = -1; reader_count = 0; write_repeat = 0 }

let record_read params entry ~reader:_ ~unique =
  if unique then entry.reader_count <- min (entry.reader_count + 1) params.reader_count_max

let record_write params entry ~writer =
  if entry.last_writer = writer then begin
    (* Same producer writing again: the pattern repeats only if someone
       read the previous epoch's data in between. *)
    if entry.reader_count > 0 then
      entry.write_repeat <- min (entry.write_repeat + 1) params.write_repeat_threshold
  end
  else begin
    (* A different writer breaks the single-producer pattern. *)
    entry.last_writer <- writer;
    entry.write_repeat <- 0
  end;
  entry.reader_count <- 0

let is_producer_consumer params entry = entry.write_repeat >= params.write_repeat_threshold

let producer entry = if entry.last_writer < 0 then None else Some entry.last_writer

let write_repeat entry = entry.write_repeat

let reader_count entry = entry.reader_count

let storage_bits _ = 8
