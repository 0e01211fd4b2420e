(* The 64-bit SplitMix64 state lives unboxed in 8 bytes, read and
   written through the raw 64-bit bytes primitives. A mutable [int64]
   field would box a fresh state on every draw; this way a draw keeps
   the arithmetic in registers and allocates nothing. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

let copy = Bytes.copy

(* SplitMix64 output function (Steele, Lea & Flood 2014). Inlined into
   its callers so that only [next_int64] boxes its result. *)
let[@inline] step t =
  let z = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = step t

let split t = of_state (step t)

let bits t = Int64.to_int (Int64.shift_right_logical (step t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling for exact uniformity. *)
  let mask_bits = bound - 1 in
  if bound land mask_bits = 0 then bits t land mask_bits
  else
    let limit = 0x3FFF_FFFF_FFFF_FFFF / bound * bound in
    let v = ref (bits t) in
    while !v >= limit do
      v := bits t
    done;
    !v mod bound

let int_in_range t ~lo ~hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let float t = Stdlib.float_of_int (bits t) *. 0x1p-62

let bool t = Int64.logand (step t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let choose t a =
  if Array.length a = 0 then invalid_arg "Rng.choose: empty array";
  a.(int t (Array.length a))

let sample_distinct t ~bound ~count =
  if count > bound then invalid_arg "Rng.sample_distinct: count > bound";
  if count < 0 then invalid_arg "Rng.sample_distinct: negative count";
  if 2 * count <= bound then begin
    (* Sparse regime: rejection into a hash set, expected O(count). *)
    let seen = Hashtbl.create (2 * count) in
    let out = Array.make count 0 in
    let filled = ref 0 in
    while !filled < count do
      let v = int t bound in
      if not (Hashtbl.mem seen v) then begin
        Hashtbl.add seen v ();
        out.(!filled) <- v;
        incr filled
      end
    done;
    out
  end
  else begin
    (* Dense regime: partial Fisher-Yates over the full range. *)
    let a = Array.init bound (fun i -> i) in
    for i = 0 to count - 1 do
      let j = int_in_range t ~lo:i ~hi:(bound - 1) in
      let tmp = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- tmp
    done;
    Array.sub a 0 count
  end
