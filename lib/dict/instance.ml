module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec
module Contention = Lc_cellprobe.Contention

type mode = Uninstrumented | Atomic_counters

type t = {
  name : string;
  table : Table.t;
  space : int;
  max_probes : int;
  mem : Lc_prim.Rng.t -> int -> bool;
  spec : int -> Spec.t;
  core : (module Dict_intf.S);
  mode : mode;
  counters : int Atomic.t array; (* length [space] iff mode = Atomic_counters *)
}

let uninstrumented_probe table : Dict_intf.probe = fun ~step:_ j -> Table.peek table j

let atomic_probe table counters : Dict_intf.probe =
 fun ~step:_ j ->
  Atomic.incr counters.(j);
  Table.peek table j

let make mode ((module D : Dict_intf.S) as core) =
  let counters =
    match mode with
    | Atomic_counters -> Array.init D.space (fun _ -> Atomic.make 0)
    | Uninstrumented -> [||]
  in
  let probe =
    match mode with
    | Uninstrumented -> uninstrumented_probe D.table
    | Atomic_counters -> atomic_probe D.table counters
  in
  {
    name = D.name;
    table = D.table;
    space = D.space;
    max_probes = D.max_probes;
    mem = (fun rng x -> D.mem ~probe rng x);
    spec = D.spec;
    core;
    mode;
    counters;
  }

let of_core core = make Uninstrumented core
let mode t = t.mode
let core t = t.core
let uninstrumented t = match t.mode with Uninstrumented -> t | Atomic_counters -> of_core t.core
let atomic t = make Atomic_counters t.core

let atomic_counts t =
  match t.mode with
  | Atomic_counters -> Array.map Atomic.get t.counters
  | Uninstrumented -> invalid_arg "Instance.atomic_counts: instance is not in atomic mode"

let contention_exact t qdist =
  Contention.exact ~cells:t.space ~qdist ~spec:t.spec

let contention_mc t qdist ~rng ~queries =
  let (module D : Dict_intf.S) = t.core in
  Contention.monte_carlo ~table:D.table ~qdist ~mem:D.mem ~rng ~queries

(* Each query's probes are recorded as (step, cell) pairs through the
   probe closure and checked against its plan: one probe per planned
   step, made in step order, each inside its step's support. *)
let check_spec_against_mem t ~rng ~queries =
  let (module D : Dict_intf.S) = t.core in
  let trace = ref [] in
  let probe ~step j =
    trace := (step, j) :: !trace;
    Table.peek D.table j
  in
  let rec check_probes x plan i = function
    | [] -> Ok ()
    | (step, j) :: rest ->
      if step <> i then Error (Printf.sprintf "query %d: probe %d was made as step %d" x i step)
      else if not (Seq.exists (fun (cell, _) -> cell = j) (Spec.step_cells plan.(step))) then
        Error (Printf.sprintf "query %d step %d probed cell %d outside spec" x step j)
      else check_probes x plan (i + 1) rest
  in
  let check_query x =
    let plan = D.spec x in
    match Spec.validate ~cells:D.space plan with
    | Error e -> Error (Printf.sprintf "query %d: invalid spec: %s" x e)
    | Ok () ->
      trace := [];
      ignore (D.mem ~probe rng x : bool);
      let probes = List.rev !trace in
      let made = List.length probes in
      if made <> Spec.probes plan then
        Error
          (Printf.sprintf "query %d: mem made %d probes but spec plans %d" x made
             (Spec.probes plan))
      else check_probes x plan 0 probes
  in
  Array.fold_left
    (fun acc x -> match acc with Error _ -> acc | Ok () -> check_query x)
    (Ok ()) queries
