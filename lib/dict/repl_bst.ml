module Rng = Lc_prim.Rng
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec

type t = {
  table : Table.t;
  universe : int;  (* doubles as the +infinity sentinel *)
  levels : int;
  width : int;  (* cells per row, 2^levels *)
  heap : int array;  (* Eytzinger array, 1-indexed, size 2^levels *)
}

(* Fill the 1-indexed Eytzinger heap with the sorted keys (in-order
   traversal); unfilled slots keep the +infinity sentinel. *)
let eytzinger sorted size =
  let heap = Array.make size max_int in
  let pos = ref 0 in
  let rec fill v =
    if v < size then begin
      fill (2 * v);
      if !pos < Array.length sorted then begin
        heap.(v) <- sorted.(!pos);
        incr pos
      end;
      fill ((2 * v) + 1)
    end
  in
  fill 1;
  heap

let build ~universe ~keys =
  if Array.length keys = 0 then invalid_arg "Repl_bst.build: empty key set";
  let sorted = Array.copy keys in
  Array.sort compare sorted;
  Array.iter
    (fun x -> if x < 0 || x >= universe then invalid_arg "Repl_bst.build: key outside universe")
    sorted;
  for i = 1 to Array.length sorted - 1 do
    if sorted.(i) = sorted.(i - 1) then invalid_arg "Repl_bst.build: duplicate key"
  done;
  let n = Array.length sorted in
  let levels =
    let rec go l = if 1 lsl l >= n + 1 then l else go (l + 1) in
    go 1
  in
  let width = 1 lsl levels in
  let heap = eytzinger sorted width in
  (* Replace the internal max_int padding by the storable sentinel. *)
  let heap = Array.map (fun v -> if v = max_int then universe else v) heap in
  let table = Table.create ~cells:(levels * width) ~bits:(Table.bits_for universe) () in
  for depth = 0 to levels - 1 do
    let nodes = 1 lsl depth in
    for v = nodes to (2 * nodes) - 1 do
      (* Node v's replicas: cells congruent to (v - nodes) mod nodes. *)
      let offset = v - nodes in
      let k = ref offset in
      while !k < width do
        Table.write table ((depth * width) + !k) heap.(v);
        k := !k + nodes
      done
    done
  done;
  { table; universe; levels; width; heap }

(* The descent shared by queries and probe plans: [probe ~depth v] must
   return node v's pivot; returns the predecessor if any. *)
let descend t x ~probe =
  let best = ref None in
  let v = ref 1 in
  for depth = 0 to t.levels - 1 do
    let pivot = probe ~depth !v in
    if x >= pivot && pivot <> t.universe then begin
      best := Some pivot;
      v := (2 * !v) + 1
    end
    else v := 2 * !v
  done;
  !best

let predecessor_probe t ~(probe : Dict_intf.probe) rng x =
  if x < 0 || x >= t.universe then invalid_arg "Repl_bst.predecessor: key outside universe";
  let pick ~depth v =
    let nodes = 1 lsl depth in
    let replica = Rng.int rng (t.width / nodes) in
    probe ~step:depth ((depth * t.width) + (v - nodes) + (replica * nodes))
  in
  descend t x ~probe:pick

let predecessor t rng x =
  predecessor_probe t ~probe:(fun ~step:_ j -> Table.peek t.table j) rng x

let mem_probe t ~probe rng x =
  match predecessor_probe t ~probe rng x with Some y -> y = x | None -> false

let spec t x =
  let steps = ref [] in
  let probe ~depth v =
    let nodes = 1 lsl depth in
    steps :=
      Spec.Stride
        { base = (depth * t.width) + (v - nodes); stride = nodes; count = t.width / nodes }
      :: !steps;
    t.heap.(v)
  in
  ignore (descend t x ~probe : int option);
  Array.of_list (List.rev !steps)

let levels t = t.levels

let core t : (module Dict_intf.S) =
  (module struct
    let name = "repl-bst-predecessor"
    let table = t.table
    let space = Table.size t.table
    let max_probes = t.levels
    let mem ~probe rng x = mem_probe t ~probe rng x
    let spec x = spec t x
  end)

let instance t = Instance.of_core (core t)
