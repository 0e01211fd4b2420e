(* Tests for the paper's construction: parameter derivation, layout,
   histograms, the builder and P(S), the query algorithm, verification
   and corruption detection, and the Theorem 3 contention guarantee. *)

module Rng = Lc_prim.Rng
module Params = Lc_core.Params
module Layout = Lc_core.Layout
module Histogram = Lc_core.Histogram
module Structure = Lc_core.Structure
module Query = Lc_core.Query
module Verify = Lc_core.Verify
module Dictionary = Lc_core.Dictionary
module Table = Lc_cellprobe.Table
module Spec = Lc_cellprobe.Spec
module Qdist = Lc_cellprobe.Qdist
module Contention = Lc_cellprobe.Contention
module Instance = Lc_dict.Instance
module Keyset = Lc_workload.Keyset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let universe = 1 lsl 20

let build_keys seed n =
  let rng = Rng.create seed in
  Keyset.random rng ~universe ~n

let build seed n =
  let keys = build_keys seed n in
  let rng = Rng.create (seed * 31) in
  (Dictionary.build rng ~universe ~keys, keys)

(* ------------------------------------------------------------------ *)
(* Params                                                               *)
(* ------------------------------------------------------------------ *)

let test_params_defaults () =
  let p = Params.make ~universe ~n:1024 () in
  checki "d" 3 p.d;
  checkb "m divides s" true (p.s mod p.m = 0);
  checkb "s >= beta n" true (p.s >= 2 * 1024);
  checkb "s not wasteful" true (p.s <= 3 * 1024);
  checki "buckets per group" (p.s / p.m) p.g_per_group;
  checkb "r near sqrt n" true (p.r >= 32 && p.r <= 40);
  checkb "prime above universe" true (p.p > universe);
  checkb "cell bits hold keys" true (1 lsl p.cell_bits > universe)

let test_params_rows () =
  let p = Params.make ~universe ~n:512 () in
  checki "rows" ((2 * p.d) + p.rho + 4) (Params.rows p);
  checki "total cells" (Params.rows p * p.s) (Params.total_cells p);
  checki "max probes = rows" (Params.rows p) (Params.max_probes p)

let test_params_histogram_budget () =
  let p = Params.make ~universe ~n:2048 () in
  (* rho words must cover cap_group + g_per_group bits *)
  checkb "budget" true (p.rho * p.cell_bits >= p.cap_group + p.g_per_group)

let test_params_validation () =
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "d <= 2" true (expect_invalid (fun () -> Params.make ~d:2 ~universe ~n:100 ()));
  checkb "delta too small" true
    (expect_invalid (fun () -> Params.make ~delta:0.1 ~universe ~n:100 ()));
  checkb "delta too large" true
    (expect_invalid (fun () -> Params.make ~delta:0.9 ~universe ~n:100 ()));
  checkb "beta 1" true (expect_invalid (fun () -> Params.make ~beta:1 ~universe ~n:100 ()));
  checkb "n 0" true (expect_invalid (fun () -> Params.make ~universe ~n:0 ()));
  checkb "universe < n" true (expect_invalid (fun () -> Params.make ~universe:10 ~n:100 ()));
  checkb "c below e" true (expect_invalid (fun () -> Params.make ~c:2.0 ~universe ~n:100 ()))

let test_params_pp () =
  let p = Params.make ~universe ~n:256 () in
  let s = Format.asprintf "%a" Params.pp p in
  checkb "mentions n" true (String.length s > 0)

(* ------------------------------------------------------------------ *)
(* Layout                                                               *)
(* ------------------------------------------------------------------ *)

let test_layout_rows_distinct () =
  let p = Params.make ~universe ~n:512 () in
  let rows =
    List.concat
      [
        List.init p.d (Layout.f_row p);
        List.init p.d (Layout.g_row p);
        [ Layout.z_row p; Layout.gbas_row p ];
        List.init p.rho (Layout.hist_row p);
        [ Layout.phash_row p; Layout.data_row p ];
      ]
  in
  let sorted = List.sort_uniq compare rows in
  checki "all rows distinct" (List.length rows) (List.length sorted);
  checki "rows contiguous from 0" (Params.rows p) (List.length rows);
  checki "first row" 0 (List.hd sorted);
  checki "last row" (Params.rows p - 1) (List.nth sorted (List.length sorted - 1))

let test_layout_cell_arithmetic () =
  let p = Params.make ~universe ~n:256 () in
  checki "cell 0" 0 (Layout.cell p ~row:0 0);
  checki "row stride" p.s (Layout.cell p ~row:1 0);
  checki "column offset" (p.s + 5) (Layout.cell p ~row:1 5)

let test_layout_bounds () =
  let p = Params.make ~universe ~n:256 () in
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "row out of range" true
    (expect_invalid (fun () -> Layout.cell p ~row:(Params.rows p) 0));
  checkb "column out of range" true (expect_invalid (fun () -> Layout.cell p ~row:0 p.s))

let test_layout_z_replicas () =
  let p = Params.make ~universe ~n:256 () in
  (* Total replicas across residues = s. *)
  let total = ref 0 in
  for res = 0 to p.r - 1 do
    total := !total + Layout.z_replicas p res
  done;
  checki "replicas partition the row" p.s !total

let test_layout_group_bijection () =
  let p = Params.make ~universe ~n:256 () in
  for bk = 0 to p.s - 1 do
    let g = Layout.group_of_bucket p bk and k = Layout.index_in_group p bk in
    checki "bijection" bk (Layout.bucket_of_group_index p ~group:g k)
  done

(* ------------------------------------------------------------------ *)
(* Histogram                                                            *)
(* ------------------------------------------------------------------ *)

let test_histogram_roundtrip () =
  let p = Params.make ~universe ~n:512 () in
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    (* Random loads summing to at most cap_group. *)
    let loads = Array.make p.g_per_group 0 in
    let budget = ref p.cap_group in
    for k = 0 to p.g_per_group - 1 do
      let l = Rng.int rng (min 6 (!budget + 1)) in
      loads.(k) <- l;
      budget := !budget - l
    done;
    let words = Histogram.encode p ~loads in
    checki "rho words" p.rho (Array.length words);
    Alcotest.check (Alcotest.array Alcotest.int) "round-trip" loads (Histogram.decode p words)
  done

let test_histogram_overflow_rejected () =
  let p = Params.make ~universe ~n:256 () in
  let loads = Array.make p.g_per_group (p.cap_group + 1) in
  let raised = try ignore (Histogram.encode p ~loads); false with Invalid_argument _ -> true in
  checkb "rejects over-budget loads" true raised

let test_histogram_slot_range () =
  let p = Params.make ~universe ~n:256 () in
  let loads = Array.make p.g_per_group 0 in
  loads.(0) <- 2;
  loads.(1) <- 3;
  loads.(2) <- 1;
  let words = Histogram.encode p ~loads in
  let slot_range k =
    let st = Histogram.finish p (Array.fold_left (Histogram.scan_word p ~k) Histogram.scan_start words) in
    (Histogram.offset st, Histogram.load st * Histogram.load st)
  in
  let off, len = slot_range 0 in
  checki "first offset" 0 off;
  checki "first length" 4 len;
  let off, len = slot_range 1 in
  checki "second offset" 4 off;
  checki "second length" 9 len;
  let off, len = slot_range 2 in
  checki "third offset" 13 off;
  checki "third length" 1 len;
  let _, len = slot_range 3 in
  checki "empty bucket" 0 len

(* ------------------------------------------------------------------ *)
(* Structure / builder                                                  *)
(* ------------------------------------------------------------------ *)

let test_build_small_sizes () =
  List.iter
    (fun n ->
      let dict, keys = build (100 + n) n in
      checki "keeps keys" n (Array.length keys);
      checkb "space linear" true (Dictionary.space dict <= 64 * n + 4096))
    [ 1; 2; 3; 5; 8; 16; 33; 64; 100 ]

let test_build_rejects_bad_keys () =
  let rng = Rng.create 1 in
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "duplicate" true
    (expect_invalid (fun () -> Dictionary.build rng ~universe ~keys:[| 4; 4; 5 |]));
  checkb "out of universe" true
    (expect_invalid (fun () -> Dictionary.build rng ~universe:100 ~keys:[| 100 |]))

let test_property_p_holds_for_built () =
  let dict, _keys = build 7 512 in
  let s = Dictionary.structure dict in
  let g = Lc_hash.Dm_family.g s.top in
  checkb "P(S)" true (Structure.property_p s.params ~g ~h:s.top ~keys:s.keys)

let test_build_gbas_monotone () =
  let dict, _ = build 8 512 in
  let s = Dictionary.structure dict in
  let p = s.params in
  for i = 1 to p.m - 1 do
    checkb "monotone" true (s.gbas.(i) >= s.gbas.(i - 1))
  done;
  checkb "within s" true (Array.for_all (fun g -> g <= p.s) s.gbas)

let test_build_starts_disjoint () =
  let dict, _ = build 9 512 in
  let s = Dictionary.structure dict in
  let p = s.params in
  (* Slot blocks must tile without overlap. *)
  let covered = Array.make p.s false in
  Array.iteri
    (fun bk l ->
      if l > 0 then
        for j = s.starts.(bk) to s.starts.(bk) + (l * l) - 1 do
          checkb "no overlap" false covered.(j);
          covered.(j) <- true
        done)
    s.loads;
  let used = Array.fold_left (fun acc c -> if c then acc + 1 else acc) 0 covered in
  checki "used = sum l^2" (Lc_hash.Loads.sum_squares s.loads) used

let test_build_nondefault_params () =
  (* The T10 ablation's configurations must all build and verify. *)
  let keys = build_keys 33 256 in
  List.iter
    (fun (d, delta, beta) ->
      let rng = Rng.create (d + beta) in
      let dict = Dictionary.build ~d ~delta ~beta rng ~universe ~keys in
      (match Dictionary.verify dict with
      | Ok () -> ()
      | Error e -> Alcotest.failf "d=%d beta=%d: %s" d beta e);
      let p = Dictionary.params dict in
      checki "d respected" d p.d;
      checkb "beta respected" true (p.s >= beta * 256);
      checkb "still answers" true (Dictionary.mem dict rng keys.(0)))
    [ (4, 0.55, 2); (5, 0.55, 3); (3, 0.45, 4) ]

let test_build_trials_small () =
  let total = ref 0 in
  for seed = 1 to 20 do
    let dict, _ = build (300 + seed) 256 in
    total := !total + Dictionary.build_trials dict
  done;
  checkb "mean trials < 3" true (float_of_int !total /. 20.0 < 3.0)

(* ------------------------------------------------------------------ *)
(* Query                                                                *)
(* ------------------------------------------------------------------ *)

let test_query_positive () =
  let dict, keys = build 10 512 in
  let rng = Rng.create 1000 in
  Array.iter (fun x -> checkb "present" true (Dictionary.mem dict rng x)) keys

let test_query_negative () =
  let dict, keys = build 11 512 in
  let rng = Rng.create 1001 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:1000 in
  Array.iter (fun x -> checkb "absent" false (Dictionary.mem dict rng x)) negs

let test_query_probe_budget () =
  let dict, keys = build 12 512 in
  let (module D : Lc_dict.Dict_intf.S) = Instance.core (Dictionary.instance dict) in
  let rng = Rng.create 1002 in
  (* One past the largest step index the running query has probed. *)
  let steps = ref 0 in
  let probe ~step j =
    steps := max !steps (step + 1);
    Table.peek D.table j
  in
  let drill x =
    steps := 0;
    ignore (D.mem ~probe rng x);
    checkb "within budget" true (!steps <= Dictionary.max_probes dict)
  in
  Array.iter drill (Array.sub keys 0 64);
  Array.iter drill (Keyset.negatives rng ~universe ~keys ~count:64)

let test_query_spec_matches_mem () =
  let dict, keys = build 13 256 in
  let inst = Dictionary.instance dict in
  let rng = Rng.create 1003 in
  let sample =
    Array.append (Array.sub keys 0 40) (Keyset.negatives rng ~universe ~keys ~count:40)
  in
  (match Instance.check_spec_against_mem inst ~rng ~queries:sample with
  | Ok () -> ()
  | Error e -> Alcotest.fail e)

let test_query_spec_valid () =
  let dict, keys = build 14 256 in
  let inst = Dictionary.instance dict in
  let rng = Rng.create 1004 in
  let all = Array.append keys (Keyset.negatives rng ~universe ~keys ~count:256) in
  Array.iter
    (fun x ->
      match Spec.validate ~cells:inst.space (inst.spec x) with
      | Ok () -> ()
      | Error e -> Alcotest.failf "query %d: %s" x e)
    all

(* Golden probe trace: the exact (step, cell) sequence, the answers and
   the rng state afterwards for a fixed build, query set and seed. The
   query path may be rewritten; what it probes, in which order, and how
   much randomness it consumes may not. *)
let query_golden_digest = "f0ccf21a8bd3d0dc4a6ecd094953b9c6"

let test_query_golden_trace () =
  let dict, keys = build 41 256 in
  let t = Dictionary.structure dict in
  let negs = Keyset.negatives (Rng.create 42) ~universe ~keys ~count:256 in
  let queries = Array.append keys negs in
  let buf = Buffer.create 65536 in
  let probe ~step j =
    Buffer.add_string buf (Printf.sprintf "%d:%d," step j);
    Table.peek t.table j
  in
  let rng = Rng.create 43 in
  Array.iter
    (fun x -> Buffer.add_string buf (if Query.mem_probe t ~probe rng x then "T;" else "F;"))
    queries;
  Buffer.add_string buf (Int64.to_string (Rng.next_int64 rng));
  Alcotest.check Alcotest.string "trace digest" query_golden_digest
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_query_deterministic_answer () =
  (* Randomness balances probes but never changes the answer. *)
  let dict, keys = build 15 128 in
  let x = keys.(0) in
  for seed = 0 to 50 do
    let rng = Rng.create seed in
    checkb "same answer" true (Dictionary.mem dict rng x)
  done

(* ------------------------------------------------------------------ *)
(* Verify and corruption                                                *)
(* ------------------------------------------------------------------ *)

let test_verify_ok () =
  let dict, _ = build 16 512 in
  match Dictionary.verify dict with Ok () -> () | Error e -> Alcotest.fail e

let test_verify_queries_ok () =
  let dict, _ = build 17 256 in
  let s = Dictionary.structure dict in
  match Verify.check_queries s (Rng.create 55) with Ok () -> () | Error e -> Alcotest.fail e

let test_verify_detects_corruption () =
  (* Flip one bit in a hundred independent copies; the verifier must
     notice every time (all cells are covered by some invariant). *)
  let detected = ref 0 in
  let trials = 60 in
  for seed = 1 to trials do
    let dict, _ = build (700 + seed) 128 in
    let s = Dictionary.structure dict in
    Table.corrupt s.table (Rng.create seed);
    match Verify.check s with Ok () -> () | Error _ -> incr detected
  done;
  checki "every corruption detected" trials !detected

let test_verify_detects_data_swap () =
  let dict, _ = build 18 256 in
  let s = Dictionary.structure dict in
  let p = s.params in
  (* Swap two distinct data-row cells holding different values. *)
  let row = Lc_core.Layout.data_row p in
  let c1 = Lc_core.Layout.cell p ~row 0 and c2 = ref (-1) in
  let v1 = Table.peek s.table c1 in
  (try
     for j = 1 to p.s - 1 do
       let c = Lc_core.Layout.cell p ~row j in
       if Table.peek s.table c <> v1 then begin
         c2 := c;
         raise Exit
       end
     done
   with Exit -> ());
  let v2 = Table.peek s.table !c2 in
  Table.write s.table c1 v2;
  Table.write s.table !c2 v1;
  checkb "swap detected" true (Result.is_error (Verify.check s))

(* Corrupt one specific row type and demand the verifier names it. *)
let corrupt_row_test row_of expect_substring () =
  let dict, _ = build 30 256 in
  let s = Dictionary.structure dict in
  let p = s.params in
  let row = row_of p in
  let j = 7 mod p.s in
  let cell = Lc_core.Layout.cell p ~row j in
  let v = Table.peek s.table cell in
  Table.write s.table cell (if v = -1 then 0 else (v + 1) mod (1 lsl (p.cell_bits - 1)));
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    nn = 0 || at 0
  in
  match Verify.check s with
  | Ok () -> Alcotest.fail "corruption not detected"
  | Error e ->
    checkb (Printf.sprintf "error %S mentions %S" e expect_substring) true
      (contains e expect_substring)

let test_corrupt_f_row = corrupt_row_test (fun p -> Lc_core.Layout.f_row p 0) "f row"
let test_corrupt_g_row = corrupt_row_test (fun p -> Lc_core.Layout.g_row p 1) "g row"
let test_corrupt_z_row = corrupt_row_test Lc_core.Layout.z_row "z row"
let test_corrupt_gbas_row = corrupt_row_test Lc_core.Layout.gbas_row "GBAS row"
let test_corrupt_hist_row = corrupt_row_test (fun p -> Lc_core.Layout.hist_row p 0) "histogram row"

let test_mem_rejects_out_of_universe () =
  let dict, _ = build 31 64 in
  let rng = Rng.create 1 in
  let expect_invalid f = try ignore (f ()); false with Invalid_argument _ -> true in
  checkb "negative key" true (expect_invalid (fun () -> Dictionary.mem dict rng (-1)));
  checkb "key = universe" true (expect_invalid (fun () -> Dictionary.mem dict rng universe))

let test_build_deterministic_given_seed () =
  let keys = build_keys 32 256 in
  let build_cells () =
    let rng = Rng.create 12345 in
    let dict = Dictionary.build rng ~universe ~keys in
    Table.copy_cells (Dictionary.structure dict).table
  in
  Alcotest.check (Alcotest.array Alcotest.int) "identical tables" (build_cells ()) (build_cells ())

let test_histogram_crafted_overload_rejected () =
  (* Words that decode a load above cap_group must be rejected, not
     silently accepted (the query algorithm depends on this to notice a
     corrupted histogram rather than read out of its group). *)
  let p = Params.make ~universe ~n:256 () in
  let loads = Array.make p.g_per_group 0 in
  loads.(0) <- p.cap_group;
  let words = Histogram.encode p ~loads in
  (* Extending the unary run by one bit pushes it over the cap. *)
  let bp =
    Lc_prim.Bitpack.of_words ~word_bits:p.cell_bits ~bits:(p.rho * p.cell_bits) words
  in
  Lc_prim.Bitpack.set bp p.cap_group true;
  let raised =
    try ignore (Histogram.decode p (Lc_prim.Bitpack.words bp)); false
    with Invalid_argument _ -> true
  in
  checkb "over-cap load rejected" true raised

(* The query scans histogram words itself, so a built dictionary with a
   malformed histogram must make [mem] fail loudly, not just [decode].
   [corrupt_group_histogram dict x bits] rewrites every replica of the
   histogram of [x]'s group with the given bit string. *)
let corrupt_group_histogram dict x bits =
  let t = Dictionary.structure dict in
  let p = t.params in
  let bp = Lc_prim.Bitpack.create ~word_bits:p.cell_bits ~bits:(p.rho * p.cell_bits) in
  List.iteri (fun i b -> Lc_prim.Bitpack.set bp i b) bits;
  let words = Lc_prim.Bitpack.words bp in
  let group = Structure.group_of t x in
  for w = 0 to p.rho - 1 do
    for j = 0 to p.s - 1 do
      if j mod p.m = group then
        Table.write t.table (Layout.cell p ~row:(Layout.hist_row p w) j) words.(w)
    done
  done

let mem_raises dict x =
  match Dictionary.mem dict (Rng.create 5) x with
  | _ -> false
  | exception Invalid_argument _ -> true

let test_query_rejects_overcap_histogram () =
  let dict, keys = build 47 256 in
  let p = Dictionary.params dict in
  let ones k = List.init k (fun _ -> true) in
  (* One run of cap_group + 1 ones, then zeros. *)
  corrupt_group_histogram dict keys.(0) (ones (p.cap_group + 1));
  checkb "over-cap run rejected" true (mem_raises dict keys.(0))

let test_query_rejects_unterminated_histogram () =
  let dict, keys = build 48 256 in
  let p = Dictionary.params dict in
  let budget = p.rho * p.cell_bits in
  (* g_per_group runs, none over the cap, the last one running off the
     end of the budget: e ones, g - 1 zeros, then cap_group ones. *)
  let e = budget - (p.g_per_group - 1) - p.cap_group in
  checkb "fixture: first run within the cap" true (e >= 0 && e <= p.cap_group);
  let run v k = List.init k (fun _ -> v) in
  corrupt_group_histogram dict keys.(0)
    (run true e @ run false (p.g_per_group - 1) @ run true p.cap_group);
  checkb "unterminated run rejected" true (mem_raises dict keys.(0))

(* The lc query allocates nothing: no closures, arrays or tuples per
   query, and replica draws that keep the rng state unboxed. *)
let test_query_allocation_free () =
  let dict, keys = build 49 512 in
  let t = Dictionary.structure dict in
  let queries =
    Array.append keys (Keyset.negatives (Rng.create 50) ~universe ~keys ~count:512)
  in
  let probe ~step:_ j = Table.peek t.table j in
  let rng = Rng.create 51 in
  let calls = 10_000 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    if Query.mem_probe t ~probe rng queries.(i mod Array.length queries) then incr hits
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  checkb "queries answered" true (!hits > 0);
  checkb (Printf.sprintf "under 1 word per query (%.3f)" words) true (words < 1.0)

(* ------------------------------------------------------------------ *)
(* Theorem 3: the contention guarantee                                  *)
(* ------------------------------------------------------------------ *)

let test_contention_flat_positive () =
  (* Normalized max contention must not grow with n. *)
  let at n =
    let dict, keys = build (900 + n) n in
    let inst = Dictionary.instance dict in
    Contention.normalized_max (Instance.contention_exact inst (Qdist.uniform ~name:"pos" keys))
  in
  let small = at 128 and large = at 2048 in
  checkb
    (Printf.sprintf "flat: %.1f vs %.1f" small large)
    true
    (large < small *. 1.5 && large < 60.0)

let test_contention_per_step_bounded () =
  (* Definition 2: the bound must hold per step, not just in total. *)
  let dict, keys = build 19 1024 in
  let inst = Dictionary.instance dict in
  let r = Instance.contention_exact inst (Qdist.uniform ~name:"pos" keys) in
  checkb "per-step normalized < 60" true (Contention.normalized_step_max r < 60.0)

let test_contention_negative_flat () =
  let dict, keys = build 20 1024 in
  let inst = Dictionary.instance dict in
  let rng = Rng.create 2020 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:8192 in
  let r = Instance.contention_exact inst (Qdist.uniform ~name:"neg" negs) in
  checkb "negative contention flat" true (Contention.normalized_max r < 80.0)

let test_contention_mc_agrees () =
  let dict, keys = build 21 256 in
  let inst = Dictionary.instance dict in
  let qd = Qdist.uniform ~name:"pos" keys in
  let ex = Instance.contention_exact inst qd in
  let mc = Instance.contention_mc inst qd ~rng:(Rng.create 3) ~queries:60_000 in
  (* Compare mean probes exactly and max contention loosely. *)
  checkb "mean probes agree" true (Float.abs (ex.mean_probes -. mc.mean_probes) < 0.05);
  checkb "max contention within 2x" true
    (mc.max_total < 2.0 *. ex.max_total && ex.max_total < 2.0 *. Float.max mc.max_total 1e-9)

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop_dictionary_oracle =
  QCheck.Test.make ~name:"dictionary agrees with Hashtbl oracle" ~count:15
    QCheck.(int_range 1 300)
    (fun n ->
      let rng = Rng.create ((n * 13) + 5) in
      let keys = Keyset.random rng ~universe ~n in
      let dict = Dictionary.build rng ~universe ~keys in
      let ok = ref true in
      Array.iter (fun x -> if not (Dictionary.mem dict rng x) then ok := false) keys;
      let in_keys = Hashtbl.create 64 in
      Array.iter (fun x -> Hashtbl.add in_keys x ()) keys;
      for _ = 1 to 200 do
        let x = Rng.int rng universe in
        if not (Hashtbl.mem in_keys x) && Dictionary.mem dict rng x then ok := false
      done;
      !ok)

let prop_histogram_roundtrip =
  QCheck.Test.make ~name:"histogram round-trip (qcheck loads)" ~count:60
    QCheck.(list_of_size (Gen.int_range 1 30) (int_range 0 8))
    (fun loads_list ->
      let p = Params.make ~universe ~n:512 () in
      let loads = Array.make p.g_per_group 0 in
      List.iteri (fun i l -> if i < p.g_per_group then loads.(i) <- l) loads_list;
      let total = Array.fold_left ( + ) 0 loads in
      QCheck.assume (total <= p.cap_group);
      Histogram.decode p (Histogram.encode p ~loads) = loads)

let prop_verify_after_build =
  QCheck.Test.make ~name:"verify holds for every build" ~count:15
    QCheck.(int_range 1 200)
    (fun n ->
      let rng = Rng.create ((n * 29) + 1) in
      let keys = Keyset.random rng ~universe ~n in
      let dict = Dictionary.build rng ~universe ~keys in
      Result.is_ok (Dictionary.verify dict))

let prop_keyset_shapes_work =
  QCheck.Test.make ~name:"dictionary works on structured key sets" ~count:10
    QCheck.(int_range 16 256)
    (fun n ->
      let rng = Rng.create (n + 3) in
      let shapes =
        [
          Keyset.dense ~universe ~n;
          Keyset.arithmetic ~universe ~n ~stride:97;
          Keyset.clustered rng ~universe ~n ~clusters:(max 1 (n / 16));
        ]
      in
      List.for_all
        (fun keys ->
          let dict = Dictionary.build rng ~universe ~keys in
          Array.for_all (fun x -> Dictionary.mem dict rng x) keys)
        shapes)

let qsuite name tests = (name, List.map (QCheck_alcotest.to_alcotest ~long:false) tests)

let () =
  Alcotest.run "lc_core"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "rows" `Quick test_params_rows;
          Alcotest.test_case "histogram budget" `Quick test_params_histogram_budget;
          Alcotest.test_case "validation" `Quick test_params_validation;
          Alcotest.test_case "pp" `Quick test_params_pp;
        ] );
      ( "layout",
        [
          Alcotest.test_case "rows distinct and contiguous" `Quick test_layout_rows_distinct;
          Alcotest.test_case "cell arithmetic" `Quick test_layout_cell_arithmetic;
          Alcotest.test_case "bounds" `Quick test_layout_bounds;
          Alcotest.test_case "z replicas partition" `Quick test_layout_z_replicas;
          Alcotest.test_case "group bijection" `Quick test_layout_group_bijection;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "round-trip" `Quick test_histogram_roundtrip;
          Alcotest.test_case "overflow rejected" `Quick test_histogram_overflow_rejected;
          Alcotest.test_case "slot ranges" `Quick test_histogram_slot_range;
        ] );
      ( "builder",
        [
          Alcotest.test_case "small sizes" `Quick test_build_small_sizes;
          Alcotest.test_case "rejects bad keys" `Quick test_build_rejects_bad_keys;
          Alcotest.test_case "P(S) holds for built" `Quick test_property_p_holds_for_built;
          Alcotest.test_case "GBAS monotone" `Quick test_build_gbas_monotone;
          Alcotest.test_case "slot blocks disjoint" `Quick test_build_starts_disjoint;
          Alcotest.test_case "non-default parameters" `Quick test_build_nondefault_params;
          Alcotest.test_case "trials small" `Quick test_build_trials_small;
        ] );
      ( "query",
        [
          Alcotest.test_case "positive" `Quick test_query_positive;
          Alcotest.test_case "negative" `Quick test_query_negative;
          Alcotest.test_case "probe budget" `Quick test_query_probe_budget;
          Alcotest.test_case "spec matches mem" `Quick test_query_spec_matches_mem;
          Alcotest.test_case "spec valid" `Quick test_query_spec_valid;
          Alcotest.test_case "answer deterministic" `Quick test_query_deterministic_answer;
          Alcotest.test_case "golden probe trace" `Quick test_query_golden_trace;
          Alcotest.test_case "allocation-free" `Quick test_query_allocation_free;
        ] );
      ( "verify",
        [
          Alcotest.test_case "ok after build" `Quick test_verify_ok;
          Alcotest.test_case "queries ok" `Quick test_verify_queries_ok;
          Alcotest.test_case "detects bit flips" `Slow test_verify_detects_corruption;
          Alcotest.test_case "detects data swaps" `Quick test_verify_detects_data_swap;
          Alcotest.test_case "names corrupted f row" `Quick test_corrupt_f_row;
          Alcotest.test_case "names corrupted g row" `Quick test_corrupt_g_row;
          Alcotest.test_case "names corrupted z row" `Quick test_corrupt_z_row;
          Alcotest.test_case "names corrupted GBAS row" `Quick test_corrupt_gbas_row;
          Alcotest.test_case "names corrupted histogram row" `Quick test_corrupt_hist_row;
          Alcotest.test_case "mem rejects out-of-universe" `Quick test_mem_rejects_out_of_universe;
          Alcotest.test_case "build deterministic" `Quick test_build_deterministic_given_seed;
          Alcotest.test_case "crafted histogram overflow rejected" `Quick
            test_histogram_crafted_overload_rejected;
          Alcotest.test_case "query rejects over-cap histogram" `Quick
            test_query_rejects_overcap_histogram;
          Alcotest.test_case "query rejects unterminated histogram" `Quick
            test_query_rejects_unterminated_histogram;
        ] );
      ( "theorem3",
        [
          Alcotest.test_case "flat positive contention" `Quick test_contention_flat_positive;
          Alcotest.test_case "per-step bounded" `Quick test_contention_per_step_bounded;
          Alcotest.test_case "negative contention flat" `Quick test_contention_negative_flat;
          Alcotest.test_case "monte-carlo agrees" `Slow test_contention_mc_agrees;
        ] );
      qsuite "properties"
        [
          prop_dictionary_oracle;
          prop_histogram_roundtrip;
          prop_verify_after_build;
          prop_keyset_shapes_work;
        ];
    ]
