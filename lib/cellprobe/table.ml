module Rng = Lc_prim.Rng

type t = { cells : int array; bits : int }

let bits_for v =
  if v < 0 then invalid_arg "Table.bits_for: negative value";
  let rec go b = if v lsr b = 0 then b else go (b + 1) in
  max 1 (go 0)

let create ?(init = 0) ~cells ~bits () =
  if bits < 1 || bits > 62 then invalid_arg "Table.create: bits outside [1, 62]";
  if cells < 0 then invalid_arg "Table.create: negative size";
  { cells = Array.make cells init; bits }

let size t = Array.length t.cells
let bits t = t.bits

let fits t v = v = -1 || (v >= 0 && (t.bits = 62 || v lsr t.bits = 0))

let peek t j = t.cells.(j)

let write t j v =
  if not (fits t v) then
    invalid_arg (Printf.sprintf "Table.write: value %d does not fit %d bits" v t.bits);
  t.cells.(j) <- v

let copy_cells t = Array.copy t.cells

let corrupt t rng =
  let n = size t in
  if n = 0 then invalid_arg "Table.corrupt: empty table";
  (* Try to find a non-sentinel cell; give up after a bounded scan. *)
  let rec pick tries =
    let j = Rng.int rng n in
    if t.cells.(j) <> -1 || tries > 100 then j else pick (tries + 1)
  in
  let j = pick 0 in
  let bit = Rng.int rng t.bits in
  let v = t.cells.(j) in
  let v' = if v = -1 then 0 else v lxor (1 lsl bit) in
  t.cells.(j) <- v'
