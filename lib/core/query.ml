module Rng = Lc_prim.Rng
module Modarith = Lc_prim.Modarith
module Poly_hash = Lc_hash.Poly_hash
module Dm_family = Lc_hash.Dm_family
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec

(* One probe of the plan. The plan visits each row at most once, in
   layout order, so the row index is the step index. *)
let read (p : Params.t) ~(probe : Lc_dict.Dict_intf.probe) ~row col =
  probe ~step:row (Layout.cell p ~row col)

(* [poly p ~probe rng ~row x] reads the [d] coefficient words stored in
   rows [row .. row + d - 1], each from a uniformly random cell of its
   row, and evaluates that polynomial at [x] over GF(p) as they arrive. *)
let poly (p : Params.t) ~probe rng ~row x =
  let acc = ref 0 and xi = ref 1 in
  for i = 0 to p.d - 1 do
    let c = read p ~probe ~row:(row + i) (Rng.int rng p.s) in
    if c < 0 || c >= p.p then invalid_arg "Query.mem: hash coefficient out of field";
    acc := (!acc + Modarith.mul p.p c !xi) mod p.p;
    xi := Modarith.mul p.p !xi x
  done;
  !acc

(* Straight-line integer arithmetic over the probed words: no closures,
   no arrays, no tuples, so a query allocates nothing. *)
let mem_probe (t : Structure.t) ~(probe : Lc_dict.Dict_intf.probe) rng x =
  let p = t.params in
  if x < 0 || x >= p.universe then invalid_arg "Query.mem: key outside universe";
  (* Phase 1: f(x) and g(x) from their coefficient words, then one
     replica of z_{g(x)}. *)
  let fx = poly p ~probe rng ~row:(Layout.f_row p 0) x mod p.s in
  let gx = poly p ~probe rng ~row:(Layout.g_row p 0) x mod p.r in
  let z_gx =
    read p ~probe ~row:(Layout.z_row p) (gx + (p.r * Rng.int rng (Layout.z_replicas p gx)))
  in
  let hx = (fx + z_gx) mod p.s in
  let h'x = hx mod p.m in
  (* Phase 2: group base address, then the histogram words of group
     h'(x), each from a uniformly random replica and scanned on arrival. *)
  let gbas = read p ~probe ~row:(Layout.gbas_row p) (h'x + (p.m * Rng.int rng p.g_per_group)) in
  let k = Layout.index_in_group p hx in
  let st = ref Histogram.scan_start in
  for w = 0 to p.rho - 1 do
    let word =
      read p ~probe ~row:(Layout.hist_row p w) (h'x + (p.m * Rng.int rng p.g_per_group))
    in
    st := Histogram.scan_word p ~k !st word
  done;
  let st = Histogram.finish p !st in
  let load = Histogram.load st in
  (* Phase 3: empty bucket means a definite negative. *)
  if load = 0 then false
  else begin
    (* Phase 4: perfect hash within the bucket. *)
    let len = load * load in
    let start = gbas + Histogram.offset st in
    let kstar = read p ~probe ~row:(Layout.phash_row p) (start + Rng.int rng len) in
    let slot = Modarith.mul p.p kstar x mod len in
    read p ~probe ~row:(Layout.data_row p) (start + slot) = x
  end

let mem (t : Structure.t) rng x =
  mem_probe t ~probe:(fun ~step:_ j -> Table.peek t.table j) rng x

let spec (t : Structure.t) x =
  let p = t.params in
  let base ~row j = Layout.cell p ~row j in
  let full_row row = Spec.Stride { base = base ~row 0; stride = 1; count = p.s } in
  let coeff_steps =
    Array.init (2 * p.d) (fun i ->
        if i < p.d then full_row (Layout.f_row p i) else full_row (Layout.g_row p (i - p.d)))
  in
  let gx = Poly_hash.eval (Dm_family.g t.top) x in
  let z_step =
    Spec.Stride
      { base = base ~row:(Layout.z_row p) gx; stride = p.r; count = Layout.z_replicas p gx }
  in
  let hx = Structure.bucket_of t x in
  let h'x = hx mod p.m in
  let group_step row =
    Spec.Stride { base = base ~row h'x; stride = p.m; count = p.g_per_group }
  in
  let gbas_step = group_step (Layout.gbas_row p) in
  let hist_steps = Array.init p.rho (fun w -> group_step (Layout.hist_row p w)) in
  let head =
    Array.concat [ coeff_steps; [| z_step; gbas_step |]; hist_steps ]
  in
  let l = t.loads.(hx) in
  if l = 0 then head
  else begin
    let len = l * l in
    let start = t.starts.(hx) in
    let kstar = t.multipliers.(hx) in
    let slot = Lc_prim.Modarith.mul p.p kstar x mod len in
    Array.append head
      [|
        Spec.Stride { base = base ~row:(Layout.phash_row p) start; stride = 1; count = len };
        Spec.Point (base ~row:(Layout.data_row p) (start + slot));
      |]
  end

let max_probes (t : Structure.t) = Params.max_probes t.params
