module Bitpack = Lc_prim.Bitpack

let bits_budget (p : Params.t) = p.rho * p.cell_bits

let encode (p : Params.t) ~loads =
  if Array.length loads <> p.g_per_group then
    invalid_arg "Histogram.encode: expected one load per bucket in the group";
  let total = Array.fold_left ( + ) 0 loads in
  let needed = total + p.g_per_group in
  if needed > bits_budget p then
    invalid_arg
      (Printf.sprintf "Histogram.encode: %d bits exceed the %d-bit budget (P(S) violated?)"
         needed (bits_budget p));
  let bp = Bitpack.create ~word_bits:p.cell_bits ~bits:(bits_budget p) in
  let pos = ref 0 in
  Array.iter (fun l -> pos := Bitpack.append_unary bp ~pos:!pos l) loads;
  Bitpack.words bp

(* The one histogram parser. A scan reads the [rho * cell_bits]-bit
   string word by word, in order, and locates one bucket [k] on the way.
   Its whole state is packed into one immediate int so a query can carry
   it through its probes without allocating. Fields, low bits first:

   - [runs] (12 bits): unary runs completed so far;
   - [cur]  (12 bits): ones read in the run under way;
   - [load] (12 bits): bucket [k]'s load, once its run has completed;
   - [off]  (the rest): sum of the squared loads of buckets [0 .. k-1].

   Every run is checked against [cap_group] as it grows, so [runs],
   [cur] and [load] stay below 2^12 ({!Params.make} bounds [g_per_group]
   and [cap_group] to match) and [off] below [cap_group * rho *
   cell_bits < 2^26]. *)
type scan = int

let field = 12
let mask = (1 lsl field) - 1
let runs_of st = st land mask
let cur_of st = (st lsr field) land mask
let load st = (st lsr (2 * field)) land mask
let offset st = st lsr (3 * field)
let scan_start = 0

let scan_word (p : Params.t) ~k st word =
  if k < 0 || k >= p.g_per_group then invalid_arg "Histogram.scan_word: bucket index out of range";
  let runs = ref (runs_of st) and cur = ref (cur_of st) in
  let ld = ref (load st) and off = ref (offset st) in
  let bit = ref 0 in
  while !runs < p.g_per_group && !bit < p.cell_bits do
    if (word lsr !bit) land 1 = 1 then begin
      incr cur;
      if !cur > p.cap_group then invalid_arg "Histogram: load exceeds the group cap"
    end
    else begin
      if !runs < k then off := !off + (!cur * !cur) else if !runs = k then ld := !cur;
      incr runs;
      cur := 0
    end;
    incr bit
  done;
  !runs lor (!cur lsl field) lor (!ld lsl (2 * field)) lor (!off lsl (3 * field))

let finish (p : Params.t) st =
  if runs_of st < p.g_per_group then invalid_arg "Histogram: unterminated run";
  st

let decode (p : Params.t) words =
  if Array.length words <> p.rho then
    invalid_arg "Histogram.decode: expected rho words";
  Array.init p.g_per_group (fun k ->
      load (finish p (Array.fold_left (scan_word p ~k) scan_start words)))
