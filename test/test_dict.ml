(* Tests for the baseline dictionaries: correctness against a Hashtbl
   oracle, spec-vs-mem consistency, and the contention characteristics
   the paper attributes to each. *)

module Rng = Lc_prim.Rng
module Qdist = Lc_cellprobe.Qdist
module Contention = Lc_cellprobe.Contention
module Instance = Lc_dict.Instance
module Sorted_array = Lc_dict.Sorted_array
module Fks = Lc_dict.Fks
module Dm_dict = Lc_dict.Dm_dict
module Cuckoo = Lc_dict.Cuckoo
module Keyset = Lc_workload.Keyset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let universe = 1 lsl 20

let build_keys seed n =
  let rng = Rng.create seed in
  Keyset.random rng ~universe ~n

(* Generic correctness drill shared by every structure. *)
let correctness_drill name (inst : Instance.t) keys =
  let rng = Rng.create 4242 in
  let in_keys = Hashtbl.create (2 * Array.length keys) in
  Array.iter (fun x -> Hashtbl.add in_keys x ()) keys;
  Array.iter
    (fun x -> checkb (Printf.sprintf "%s: key %d present" name x) true (inst.mem rng x))
    keys;
  for _ = 1 to 500 do
    let x = Rng.int rng universe in
    if not (Hashtbl.mem in_keys x) then
      checkb (Printf.sprintf "%s: non-key %d absent" name x) false (inst.mem rng x)
  done

let spec_drill name (inst : Instance.t) keys =
  let rng = Rng.create 777 in
  let sample =
    Array.append (Array.sub keys 0 (min 30 (Array.length keys)))
      (Keyset.negatives rng ~universe ~keys ~count:30)
  in
  match Instance.check_spec_against_mem inst ~rng ~queries:sample with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" name e

let probes_drill name (inst : Instance.t) keys =
  let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
  let rng = Rng.create 555 in
  (* One past the largest step index the running query has probed. *)
  let used = ref 0 in
  let probe ~step j =
    used := max !used (step + 1);
    Lc_cellprobe.Table.peek D.table j
  in
  Array.iter
    (fun x ->
      used := 0;
      ignore (D.mem ~probe rng x);
      checkb
        (Printf.sprintf "%s: %d probes within budget %d" name !used inst.max_probes)
        true (!used <= inst.max_probes))
    (Array.sub keys 0 (min 50 (Array.length keys)))

(* ------------------------------------------------------------------ *)
(* Sorted array                                                         *)
(* ------------------------------------------------------------------ *)

let test_sorted_correct () =
  let keys = build_keys 1 200 in
  let t = Sorted_array.build ~universe ~keys in
  correctness_drill "binary-search" (Sorted_array.instance t) keys

let test_sorted_spec () =
  let keys = build_keys 2 128 in
  let t = Sorted_array.build ~universe ~keys in
  spec_drill "binary-search" (Sorted_array.instance t) keys

let test_sorted_probe_budget () =
  let keys = build_keys 3 100 in
  let t = Sorted_array.build ~universe ~keys in
  probes_drill "binary-search" (Sorted_array.instance t) keys

let test_sorted_root_contention_is_one () =
  (* The paper's opening observation: the middle cell is read by every
     query. *)
  let keys = build_keys 4 127 in
  let t = Sorted_array.build ~universe ~keys in
  let inst = Sorted_array.instance t in
  let qd = Qdist.uniform ~name:"pos" keys in
  let r = Instance.contention_exact inst qd in
  Alcotest.check (Alcotest.float 1e-9) "root cell" 1.0 r.per_cell.(63)

let test_sorted_rejects_bad_input () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Sorted_array.build: duplicate key")
    (fun () -> ignore (Sorted_array.build ~universe ~keys:[| 1; 1 |]));
  Alcotest.check_raises "outside universe"
    (Invalid_argument "Sorted_array.build: key outside universe") (fun () ->
      ignore (Sorted_array.build ~universe:10 ~keys:[| 10 |]))

(* ------------------------------------------------------------------ *)
(* FKS                                                                  *)
(* ------------------------------------------------------------------ *)

let test_fks_correct () =
  let keys = build_keys 5 300 in
  let rng = Rng.create 50 in
  let t = Fks.build rng ~universe ~keys in
  correctness_drill "fks" (Fks.instance t) keys

let test_fks_unreplicated_correct () =
  let keys = build_keys 6 150 in
  let rng = Rng.create 51 in
  let t = Fks.build ~replicate:false rng ~universe ~keys in
  correctness_drill "fks-unreplicated" (Fks.instance t) keys

let test_fks_spec () =
  let keys = build_keys 7 200 in
  let rng = Rng.create 52 in
  let t = Fks.build rng ~universe ~keys in
  spec_drill "fks" (Fks.instance t) keys

let test_fks_probe_budget () =
  let keys = build_keys 8 200 in
  let rng = Rng.create 53 in
  let t = Fks.build rng ~universe ~keys in
  probes_drill "fks" (Fks.instance t) keys

(* The FKS query is four fixed probes and allocates nothing. *)
let test_fks_allocation_free () =
  let keys = build_keys 11 300 in
  let t = Fks.build (Rng.create 56) ~universe ~keys in
  let (module D : Lc_dict.Dict_intf.S) = Instance.core (Fks.instance t) in
  let probe ~step:_ j = Lc_cellprobe.Table.peek D.table j in
  let rng = Rng.create 57 in
  let calls = 10_000 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    if D.mem ~probe rng (if i land 1 = 0 then keys.(i mod 300) else i) then incr hits
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  checkb "queries answered" true (!hits >= calls / 2);
  checkb (Printf.sprintf "under 1 word per query (%.3f)" words) true (words < 1.0)

let test_fks_linear_space () =
  let keys = build_keys 9 1000 in
  let rng = Rng.create 54 in
  let t = Fks.build rng ~universe ~keys in
  let inst = Fks.instance t in
  checkb "space <= 8n" true (inst.space <= 8 * 1000)

let test_fks_param_cell_contention () =
  (* Without replication the first probe always reads cell 0:
     contention exactly 1. With replication it is 1/n per copy. *)
  let keys = build_keys 10 200 in
  let rng = Rng.create 55 in
  let t = Fks.build ~replicate:false rng ~universe ~keys in
  let inst = Fks.instance t in
  let r = Instance.contention_exact inst (Qdist.uniform ~name:"pos" keys) in
  Alcotest.check (Alcotest.float 1e-9) "param cell" 1.0 r.per_cell.(0);
  let t2 = Fks.build ~replicate:true rng ~universe ~keys in
  let inst2 = Fks.instance t2 in
  let r2 = Instance.contention_exact inst2 (Qdist.uniform ~name:"pos" keys) in
  checkb "replicated param cell small" true (r2.per_cell.(0) < 0.02)

let test_fks_planted_heavy_bucket () =
  let rng = Rng.create 56 in
  let n = 400 in
  let heavy = int_of_float (Float.sqrt (1.5 *. float_of_int n)) in
  let t, keys = Fks.build_planted rng ~universe ~n ~heavy in
  checki "n keys" n (Array.length keys);
  checkb "bucket at least heavy" true (Fks.max_bucket_load t >= heavy);
  correctness_drill "fks-planted" (Fks.instance t) keys

let test_fks_planted_contention_factor () =
  (* The planted structure's max contention must scale like
     maxload / n, i.e. ~ sqrt n times the optimal 1/s. *)
  let rng = Rng.create 57 in
  let n = 900 in
  let heavy = 30 in
  let t, keys = Fks.build_planted rng ~universe ~n ~heavy in
  let inst = Fks.instance t in
  let r = Instance.contention_exact inst (Qdist.uniform ~name:"pos" keys) in
  let norm = Contention.normalized_max r in
  (* header cell of the heavy bucket: (heavy/n) * space >= 30/900 * ~4n *)
  checkb (Printf.sprintf "normalized %.1f >= 60" norm) true (norm >= 60.0)

let test_fks_trials_reported () =
  let keys = build_keys 11 100 in
  let rng = Rng.create 58 in
  let t = Fks.build rng ~universe ~keys in
  checkb "at least one trial" true (Fks.top_trials t >= 1)

(* ------------------------------------------------------------------ *)
(* DM dictionary                                                        *)
(* ------------------------------------------------------------------ *)

let test_dm_correct () =
  let keys = build_keys 12 300 in
  let rng = Rng.create 60 in
  let t = Dm_dict.build rng ~universe ~keys in
  correctness_drill "dm" (Dm_dict.instance t) keys

let test_dm_spec () =
  let keys = build_keys 13 200 in
  let rng = Rng.create 61 in
  let t = Dm_dict.build rng ~universe ~keys in
  spec_drill "dm" (Dm_dict.instance t) keys

let test_dm_probe_budget () =
  let keys = build_keys 14 200 in
  let rng = Rng.create 62 in
  let t = Dm_dict.build rng ~universe ~keys in
  probes_drill "dm" (Dm_dict.instance t) keys

let test_dm_load_cap () =
  (* The DM builder's whole point: max bucket load O(log n / log log n). *)
  let n = 2000 in
  let keys = build_keys 15 n in
  let rng = Rng.create 63 in
  let t = Dm_dict.build rng ~universe ~keys in
  let fn = float_of_int n in
  let cap = 3.0 *. Float.log fn /. Float.log (Float.log fn) +. 4.0 in
  checkb
    (Printf.sprintf "max load %d <= %.1f" (Dm_dict.max_bucket_load t) cap)
    true
    (float_of_int (Dm_dict.max_bucket_load t) <= cap)

let test_dm_unreplicated () =
  let keys = build_keys 16 150 in
  let rng = Rng.create 64 in
  let t = Dm_dict.build ~replicate:false rng ~universe ~keys in
  correctness_drill "dm-unreplicated" (Dm_dict.instance t) keys

(* ------------------------------------------------------------------ *)
(* Cuckoo                                                               *)
(* ------------------------------------------------------------------ *)

let test_cuckoo_correct () =
  let keys = build_keys 17 300 in
  let rng = Rng.create 70 in
  let t = Cuckoo.build rng ~universe ~keys in
  correctness_drill "cuckoo" (Cuckoo.instance t) keys

let test_cuckoo_spec () =
  let keys = build_keys 18 200 in
  let rng = Rng.create 71 in
  let t = Cuckoo.build rng ~universe ~keys in
  spec_drill "cuckoo" (Cuckoo.instance t) keys

let test_cuckoo_probe_budget () =
  let keys = build_keys 19 200 in
  let rng = Rng.create 72 in
  let t = Cuckoo.build rng ~universe ~keys in
  probes_drill "cuckoo" (Cuckoo.instance t) keys

let test_cuckoo_two_data_probes () =
  (* Max probes: 2d coefficient reads + at most 2 data probes. *)
  let keys = build_keys 20 100 in
  let rng = Rng.create 73 in
  let t = Cuckoo.build ~d:3 rng ~universe ~keys in
  checki "budget" 8 (Cuckoo.instance t).max_probes

let test_cuckoo_rehash_counter () =
  let keys = build_keys 21 500 in
  let rng = Rng.create 74 in
  let t = Cuckoo.build rng ~universe ~keys in
  checkb "rehashes bounded" true (Cuckoo.rehashes t < 20)

let test_cuckoo_large () =
  let keys = build_keys 22 3000 in
  let rng = Rng.create 75 in
  let t = Cuckoo.build rng ~universe ~keys in
  let inst = Cuckoo.instance t in
  let rng2 = Rng.create 76 in
  Array.iter (fun x -> checkb "present" true (inst.mem rng2 x)) keys

(* ------------------------------------------------------------------ *)
(* Replicated-BST predecessor                                           *)
(* ------------------------------------------------------------------ *)

module Repl_bst = Lc_dict.Repl_bst

let oracle_predecessor keys x =
  Array.fold_left (fun acc k -> if k <= x && (acc = None || Some k > acc) then Some k else acc)
    None keys

let test_bst_predecessor_oracle () =
  let keys = build_keys 40 200 in
  let t = Repl_bst.build ~universe ~keys in
  let rng = Rng.create 80 in
  for _ = 1 to 2000 do
    let x = Rng.int rng universe in
    Alcotest.check (Alcotest.option Alcotest.int) "predecessor" (oracle_predecessor keys x)
      (Repl_bst.predecessor t rng x)
  done

let test_bst_predecessor_edges () =
  let t = Repl_bst.build ~universe ~keys:[| 100; 200; 300 |] in
  let rng = Rng.create 81 in
  let pred = Repl_bst.predecessor t rng in
  Alcotest.check (Alcotest.option Alcotest.int) "below all" None (pred 99);
  Alcotest.check (Alcotest.option Alcotest.int) "exact" (Some 100) (pred 100);
  Alcotest.check (Alcotest.option Alcotest.int) "between" (Some 200) (pred 250);
  Alcotest.check (Alcotest.option Alcotest.int) "above all" (Some 300) (pred (universe - 1))

let test_bst_mem () =
  let keys = build_keys 41 150 in
  let t = Repl_bst.build ~universe ~keys in
  correctness_drill "repl-bst" (Repl_bst.instance t) keys

let test_bst_spec () =
  let keys = build_keys 42 128 in
  let t = Repl_bst.build ~universe ~keys in
  spec_drill "repl-bst" (Repl_bst.instance t) keys

let test_bst_probe_budget () =
  let keys = build_keys 43 100 in
  let t = Repl_bst.build ~universe ~keys in
  probes_drill "repl-bst" (Repl_bst.instance t) keys;
  checki "levels = ceil log2 (n+1)" 7 (Repl_bst.levels t)

let test_bst_contention_flat () =
  (* The whole point: normalized contention stays O(levels) — every
     cell near the ideal — instead of binary search's Theta(n). *)
  let at n =
    let keys = build_keys (44 + n) n in
    let t = Repl_bst.build ~universe ~keys in
    let inst = Repl_bst.instance t in
    Contention.normalized_max
      (Instance.contention_exact inst (Qdist.uniform ~name:"pos" keys))
  in
  let small = at 127 and large = at 2047 in
  checkb
    (Printf.sprintf "flat-ish: %.1f at 127 vs %.1f at 2047" small large)
    true
    (large < 2.0 *. small && large < 40.0)

let test_bst_rejects_bad_input () =
  let raised = try ignore (Repl_bst.build ~universe ~keys:[| 5; 5 |]); false
    with Invalid_argument _ -> true in
  checkb "duplicates" true raised;
  let raised = try ignore (Repl_bst.build ~universe:10 ~keys:[| 10 |]); false
    with Invalid_argument _ -> true in
  checkb "outside universe" true raised

let prop_bst_predecessor =
  QCheck.Test.make ~name:"repl-bst predecessor matches linear-scan oracle" ~count:25
    QCheck.(int_range 1 300)
    (fun n ->
      let rng = Rng.create ((n * 17) + 3) in
      let keys = Keyset.random rng ~universe ~n in
      let t = Repl_bst.build ~universe ~keys in
      let ok = ref true in
      for _ = 1 to 200 do
        let x = Rng.int rng universe in
        if Repl_bst.predecessor t rng x <> oracle_predecessor keys x then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Spec checker                                                         *)
(* ------------------------------------------------------------------ *)

(* What a fake core's [mem] does wrong, on query 6 only. *)
type fault = Faithful | Outside_support | One_short | One_extra | Repeated_step

(* A core over 8 cells whose plan for [x] is: cell 0, a uniform cell of
   1..3, then cell [4 + x mod 4]. Its [mem] follows the plan except
   where [fault] says, so the checker must name query 6 and no other. *)
let fake_core fault : (module Lc_dict.Dict_intf.S) =
  (module struct
    let name = "fake"
    let table = Lc_cellprobe.Table.create ~cells:8 ~bits:8 ()
    let space = 8
    let max_probes = 4

    let spec x =
      Lc_cellprobe.Spec.
        [| Point 0; Stride { base = 1; stride = 1; count = 3 }; Point (4 + (x mod 4)) |]

    let mem ~probe rng x =
      let fault = if x = 6 then fault else Faithful in
      let visit step j = ignore (probe ~step j : int) in
      visit 0 0;
      if fault = Repeated_step then visit 0 0 else visit 1 (1 + Rng.int rng 3);
      (match fault with
      | One_short -> ()
      | Outside_support -> visit 2 0
      | Faithful | One_extra | Repeated_step -> visit 2 (4 + (x mod 4)));
      if fault = One_extra then visit 3 0;
      false
  end)

let spec_check fault =
  Instance.check_spec_against_mem (Instance.of_core (fake_core fault)) ~rng:(Rng.create 9)
    ~queries:[| 5; 6; 7 |]

let test_spec_check_faithful () =
  match spec_check Faithful with Ok () -> () | Error e -> Alcotest.fail e

let test_spec_check_rejects fault () =
  match spec_check fault with
  | Ok () -> Alcotest.fail "a faulty mem passed the spec check"
  | Error e ->
    checkb (Printf.sprintf "error %S names query 6" e) true
      (String.starts_with ~prefix:"query 6:" e || String.starts_with ~prefix:"query 6 " e)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let oracle_prop name builder =
  QCheck.Test.make ~name ~count:20
    QCheck.(int_range 2 200)
    (fun n ->
      let rng = Rng.create (n * 7 + 1) in
      let keys = Keyset.random rng ~universe ~n in
      let inst = builder rng keys in
      let ok = ref true in
      Array.iter (fun x -> if not (inst.Instance.mem rng x) then ok := false) keys;
      let in_keys = Hashtbl.create 64 in
      Array.iter (fun x -> Hashtbl.add in_keys x ()) keys;
      for _ = 1 to 100 do
        let x = Rng.int rng universe in
        if not (Hashtbl.mem in_keys x) && inst.Instance.mem rng x then ok := false
      done;
      !ok)

let prop_fks_oracle =
  oracle_prop "FKS agrees with oracle" (fun rng keys -> Fks.instance (Fks.build rng ~universe ~keys))

let prop_dm_oracle =
  oracle_prop "DM agrees with oracle" (fun rng keys ->
      Dm_dict.instance (Dm_dict.build rng ~universe ~keys))

let prop_cuckoo_oracle =
  oracle_prop "cuckoo agrees with oracle" (fun rng keys ->
      Cuckoo.instance (Cuckoo.build rng ~universe ~keys))

let prop_sorted_oracle =
  oracle_prop "binary search agrees with oracle" (fun _rng keys ->
      Sorted_array.instance (Sorted_array.build ~universe ~keys))

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lc_dict"
    [
      ( "sorted_array",
        [
          Alcotest.test_case "correct" `Quick test_sorted_correct;
          Alcotest.test_case "spec matches mem" `Quick test_sorted_spec;
          Alcotest.test_case "probe budget" `Quick test_sorted_probe_budget;
          Alcotest.test_case "root contention 1" `Quick test_sorted_root_contention_is_one;
          Alcotest.test_case "rejects bad input" `Quick test_sorted_rejects_bad_input;
        ] );
      ( "fks",
        [
          Alcotest.test_case "correct" `Quick test_fks_correct;
          Alcotest.test_case "unreplicated correct" `Quick test_fks_unreplicated_correct;
          Alcotest.test_case "spec matches mem" `Quick test_fks_spec;
          Alcotest.test_case "probe budget" `Quick test_fks_probe_budget;
          Alcotest.test_case "allocation-free" `Quick test_fks_allocation_free;
          Alcotest.test_case "linear space" `Quick test_fks_linear_space;
          Alcotest.test_case "param cell contention" `Quick test_fks_param_cell_contention;
          Alcotest.test_case "planted heavy bucket" `Quick test_fks_planted_heavy_bucket;
          Alcotest.test_case "planted contention factor" `Quick test_fks_planted_contention_factor;
          Alcotest.test_case "trials reported" `Quick test_fks_trials_reported;
        ] );
      ( "dm_dict",
        [
          Alcotest.test_case "correct" `Quick test_dm_correct;
          Alcotest.test_case "spec matches mem" `Quick test_dm_spec;
          Alcotest.test_case "probe budget" `Quick test_dm_probe_budget;
          Alcotest.test_case "load cap" `Quick test_dm_load_cap;
          Alcotest.test_case "unreplicated" `Quick test_dm_unreplicated;
        ] );
      ( "cuckoo",
        [
          Alcotest.test_case "correct" `Quick test_cuckoo_correct;
          Alcotest.test_case "spec matches mem" `Quick test_cuckoo_spec;
          Alcotest.test_case "probe budget" `Quick test_cuckoo_probe_budget;
          Alcotest.test_case "two data probes" `Quick test_cuckoo_two_data_probes;
          Alcotest.test_case "rehash counter" `Quick test_cuckoo_rehash_counter;
          Alcotest.test_case "large instance" `Quick test_cuckoo_large;
        ] );
      ( "repl_bst",
        [
          Alcotest.test_case "predecessor oracle" `Quick test_bst_predecessor_oracle;
          Alcotest.test_case "predecessor edges" `Quick test_bst_predecessor_edges;
          Alcotest.test_case "mem" `Quick test_bst_mem;
          Alcotest.test_case "spec matches mem" `Quick test_bst_spec;
          Alcotest.test_case "probe budget" `Quick test_bst_probe_budget;
          Alcotest.test_case "contention flat" `Quick test_bst_contention_flat;
          Alcotest.test_case "rejects bad input" `Quick test_bst_rejects_bad_input;
        ] );
      ( "spec_check",
        [
          Alcotest.test_case "faithful mem passes" `Quick test_spec_check_faithful;
          Alcotest.test_case "cell outside support" `Quick (test_spec_check_rejects Outside_support);
          Alcotest.test_case "one probe short" `Quick (test_spec_check_rejects One_short);
          Alcotest.test_case "one probe extra" `Quick (test_spec_check_rejects One_extra);
          Alcotest.test_case "repeated step" `Quick (test_spec_check_rejects Repeated_step);
        ] );
      qsuite "oracle properties"
        [
          prop_fks_oracle;
          prop_dm_oracle;
          prop_cuckoo_oracle;
          prop_sorted_oracle;
          prop_bst_predecessor;
        ];
    ]
