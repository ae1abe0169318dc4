(* The 64-bit state lives unboxed in an 8-byte buffer: a [mutable state :
   int64] field would box a fresh [Int64] on every draw.  The
   [%caml_bytes_get64u]/[%caml_bytes_set64u] primitives read and write it
   as a raw machine word, so a draw that ends in an [int], [float] or
   [bool] allocates nothing and the SplitMix64 stream is unchanged. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state state =
  let t = Bytes.create 8 in
  set_state t 0 state;
  t

let create ~seed = of_state (Int64.of_int seed)

let copy t = Bytes.copy t

(* SplitMix64 step: add the golden gamma then scramble with two
   xor-shift-multiply rounds (Steele, Lea & Flood, OOPSLA 2014). *)
let[@inline] next_int64 t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t = of_state (next_int64 t)

let int t ~bound =
  assert (bound > 0);
  let raw = Int64.to_int (next_int64 t) land max_int in
  raw mod bound

let[@inline] float t =
  let bits53 = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  float_of_int bits53 /. 9007199254740992.0

let bool t ~p = float t < p

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t ~bound:(i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t ~bound:(Array.length arr))
