module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec

type t = { table : Table.t; n : int }

let build ~universe ~keys =
  if Array.length keys = 0 then invalid_arg "Sorted_array.build: empty key set";
  Array.iter
    (fun x -> if x < 0 || x >= universe then invalid_arg "Sorted_array.build: key outside universe")
    keys;
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then invalid_arg "Sorted_array.build: duplicate key"
  done;
  let n = Array.length sorted in
  let table = Table.create ~cells:n ~bits:(Table.bits_for (universe - 1)) () in
  Array.iteri (fun i x -> Table.write table i x) sorted;
  { table; n }

(* The deterministic binary-search path for [x]; [probe] observes each
   visited cell and its content. *)
let search_path t x ~probe =
  let rec go lo hi step =
    if lo > hi then false
    else
      let mid = (lo + hi) / 2 in
      let v = probe ~step mid in
      if v = x then true
      else if v < x then go (mid + 1) hi (step + 1)
      else go lo (mid - 1) (step + 1)
  in
  go 0 (t.n - 1) 0

let mem_probe t ~(probe : Dict_intf.probe) _rng x = search_path t x ~probe:(fun ~step j -> probe ~step j)

let spec t x =
  let cells = ref [] in
  let (_ : bool) =
    search_path t x ~probe:(fun ~step:_ j ->
        cells := j :: !cells;
        Table.peek t.table j)
  in
  Array.of_list (List.rev_map (fun j -> Spec.Point j) !cells)

let max_probes t =
  let rec depth n = if n <= 0 then 0 else 1 + depth (n / 2) in
  depth t.n

let core t : (module Dict_intf.S) =
  (module struct
    let name = "binary-search"
    let table = t.table
    let space = t.n
    let max_probes = max_probes t
    let mem ~probe rng x = mem_probe t ~probe rng x
    let spec x = spec t x
  end)

let instance t = Instance.of_core (core t)
