(* Tests for the dynamized low-contention dictionary: semantics against
   a set oracle under random operation sequences, level-shape
   invariants, purge behaviour, replication, and the contention
   characteristics that motivated the extension. *)

module Rng = Lc_prim.Rng
module Dynamic = Lc_dynamic.Dynamic
module Qdist = Lc_cellprobe.Qdist
module Keyset = Lc_workload.Keyset

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let universe = 1 lsl 18

let fresh seed = Dynamic.create (Rng.create seed) ~universe ()

(* ------------------------------------------------------------------ *)
(* Basic semantics                                                      *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  let t = fresh 1 in
  let rng = Rng.create 2 in
  checki "size" 0 (Dynamic.size t);
  checkb "no member" false (Dynamic.mem t rng 5);
  checki "no cells" 0 (Dynamic.space t)

let test_insert_mem () =
  let t = fresh 3 in
  let rng = Rng.create 4 in
  Dynamic.insert t 10;
  Dynamic.insert t 20;
  Dynamic.insert t 30;
  checki "size" 3 (Dynamic.size t);
  checkb "10" true (Dynamic.mem t rng 10);
  checkb "20" true (Dynamic.mem t rng 20);
  checkb "30" true (Dynamic.mem t rng 30);
  checkb "40" false (Dynamic.mem t rng 40)

let test_insert_idempotent () =
  let t = fresh 5 in
  Dynamic.insert t 7;
  Dynamic.insert t 7;
  Dynamic.insert t 7;
  checki "size 1" 1 (Dynamic.size t)

let test_delete () =
  let t = fresh 6 in
  let rng = Rng.create 7 in
  List.iter (Dynamic.insert t) [ 1; 2; 3; 4; 5; 6; 7; 8 ];
  Dynamic.delete t 3;
  checki "size" 7 (Dynamic.size t);
  checkb "3 gone" false (Dynamic.mem t rng 3);
  checkb "4 stays" true (Dynamic.mem t rng 4);
  Dynamic.delete t 3;
  checki "delete idempotent" 7 (Dynamic.size t);
  Dynamic.delete t 99;
  checki "delete absent is no-op" 7 (Dynamic.size t)

let test_reinsert_after_delete () =
  let t = fresh 8 in
  let rng = Rng.create 9 in
  List.iter (Dynamic.insert t) [ 1; 2; 3; 4 ];
  Dynamic.delete t 2;
  checkb "2 gone" false (Dynamic.mem t rng 2);
  Dynamic.insert t 2;
  checkb "2 back (un-deleted)" true (Dynamic.mem t rng 2);
  checki "size back" 4 (Dynamic.size t)

let test_levels_shape () =
  let t = fresh 10 in
  (* 13 keys = 0b1101 -> levels 0, 2, 3 occupied. *)
  for x = 1 to 13 do
    Dynamic.insert t (x * 11)
  done;
  let shape = List.map (fun (i, k, _) -> (i, k)) (Dynamic.level_sizes t) in
  Alcotest.check
    (Alcotest.list (Alcotest.pair Alcotest.int Alcotest.int))
    "binary shape" [ (0, 1); (2, 4); (3, 8) ] shape

let test_purge_triggers () =
  let t = fresh 11 in
  for x = 1 to 32 do
    Dynamic.insert t x
  done;
  for x = 1 to 17 do
    Dynamic.delete t x
  done;
  checkb "purged at half dead" true (Dynamic.purges t >= 1);
  checki "live" 15 (Dynamic.size t);
  let rng = Rng.create 12 in
  for x = 18 to 32 do
    checkb "survivor" true (Dynamic.mem t rng x)
  done;
  for x = 1 to 17 do
    checkb "purged key absent" false (Dynamic.mem t rng x)
  done

let test_check_invariants () =
  let t = fresh 13 in
  let rng = Rng.create 14 in
  for x = 1 to 100 do
    Dynamic.insert t (x * 7)
  done;
  for x = 1 to 20 do
    Dynamic.delete t (x * 7)
  done;
  match Dynamic.check t rng with Ok () -> () | Error e -> Alcotest.fail e

let test_amortized_rebuild_cost () =
  (* keys_rebuilt / inserts should be O(log n): for 512 inserts each key
     moves through at most 10 levels. *)
  let t = fresh 15 in
  let n = 512 in
  for x = 1 to n do
    Dynamic.insert t x
  done;
  let per_insert = float_of_int (Dynamic.keys_rebuilt t) /. float_of_int n in
  checkb
    (Printf.sprintf "amortized %.1f <= 10" per_insert)
    true (per_insert <= 10.0)

let test_space_linear () =
  let t = fresh 16 in
  for x = 1 to 1000 do
    Dynamic.insert t x
  done;
  checkb "space O(n log n) at worst" true (Dynamic.space t <= 1000 * 64)

(* ------------------------------------------------------------------ *)
(* Replication (small_level_boost)                                      *)
(* ------------------------------------------------------------------ *)

let test_boost_replica_counts () =
  let t = Dynamic.create ~small_level_boost:16 (Rng.create 17) ~universe () in
  for x = 1 to 13 do
    Dynamic.insert t x
  done;
  List.iter
    (fun (i, _, reps) -> checki (Printf.sprintf "level %d replicas" i) (max 1 (16 lsr i)) reps)
    (Dynamic.level_sizes t)

let test_boost_rejects_non_power () =
  let raised =
    try
      ignore (Dynamic.create ~small_level_boost:3 (Rng.create 1) ~universe ());
      false
    with Invalid_argument _ -> true
  in
  checkb "power of two enforced" true raised

let test_boost_preserves_semantics () =
  let t = Dynamic.create ~small_level_boost:8 (Rng.create 18) ~universe () in
  let rng = Rng.create 19 in
  for x = 1 to 50 do
    Dynamic.insert t (x * 3)
  done;
  for x = 1 to 50 do
    checkb "present" true (Dynamic.mem t rng (x * 3))
  done;
  checkb "absent" false (Dynamic.mem t rng 1);
  match Dynamic.check t rng with Ok () -> () | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Contention: the small-level hot spot and its mitigation              *)
(* ------------------------------------------------------------------ *)

(* Negative (miss) queries reach every level, so the singleton level's
   two-cell rows absorb the whole query mass: dynamization turns misses
   into a hot spot. Positive queries stop at their hit level (largest
   first), which hides the effect — the tests pin down both. *)
let neg_queries keys =
  let in_keys = Hashtbl.create 256 in
  Array.iter (fun x -> Hashtbl.add in_keys x ()) keys;
  let rec gather acc x n =
    if n = 0 then acc
    else if Hashtbl.mem in_keys x then gather acc (x + 1) n
    else gather (x :: acc) (x + 1) (n - 1)
  in
  Array.of_list (gather [] 0 256)

let test_small_level_hotspot () =
  let t = fresh 20 in
  let keys = Array.init 129 (fun i -> (i * 17) + 1) in
  Array.iter (Dynamic.insert t) keys;
  let qd = Qdist.uniform ~name:"neg" (neg_queries keys) in
  let c = Dynamic.contention_exact t qd in
  let small_level = List.assoc 0 c.per_level in
  let big_level = List.assoc 7 c.per_level in
  checkb
    (Printf.sprintf "small level %.0f dominates big level %.0f" small_level big_level)
    true
    (small_level > 4.0 *. big_level);
  checki "worst is the singleton level" 0 c.worst_level

let test_positive_queries_hide_the_hotspot () =
  (* Largest-first search: a key stored in the big level never probes
     the singleton level, so uniform-positive contention stays tame. *)
  let t = fresh 25 in
  let keys = Array.init 129 (fun i -> (i * 17) + 1) in
  Array.iter (Dynamic.insert t) keys;
  let qd = Qdist.uniform ~name:"pos" keys in
  let c = Dynamic.contention_exact t qd in
  checkb (Printf.sprintf "worst %.0f stays < 100" c.worst) true (c.worst < 100.0)

let test_boost_levels_the_hotspot () =
  let keys = Array.init 129 (fun i -> (i * 17) + 1) in
  let qd = Qdist.uniform ~name:"neg" (neg_queries keys) in
  let build boost =
    let t = Dynamic.create ~small_level_boost:boost (Rng.create 21) ~universe () in
    Array.iter (Dynamic.insert t) keys;
    (Dynamic.contention_exact t qd).worst
  in
  let plain = build 1 and boosted = build 32 in
  checkb
    (Printf.sprintf "boost 32 cuts worst contention: %.0f -> %.0f" plain boosted)
    true
    (boosted < plain /. 4.0)

(* ------------------------------------------------------------------ *)
(* Oracle property                                                      *)
(* ------------------------------------------------------------------ *)

let test_boost_survives_churn () =
  (* Replicated levels must stay consistent through cascades, deletes
     and purges — the invariant checker covers replica counts too. *)
  let t = Dynamic.create ~small_level_boost:16 (Rng.create 30) ~universe () in
  let rng = Rng.create 31 in
  let ops =
    Lc_workload.Opstream.generate (Rng.create 32) ~universe ~length:3_000 ~working_set:300
  in
  let _ = Lc_workload.Opstream.apply t rng ops in
  (match Dynamic.check t rng with Ok () -> () | Error e -> Alcotest.fail e);
  List.iter
    (fun (i, _, reps) -> checki (Printf.sprintf "level %d replicas" i) (max 1 (16 lsr i)) reps)
    (Dynamic.level_sizes t)

let prop_matches_set_oracle =
  QCheck.Test.make ~name:"random op sequence matches a set oracle" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 300) (pair bool (int_range 0 200)))
    (fun ops ->
      let t = fresh 22 in
      let rng = Rng.create 23 in
      let oracle = Hashtbl.create 64 in
      List.iter
        (fun (is_insert, x) ->
          if is_insert then begin
            Dynamic.insert t x;
            Hashtbl.replace oracle x ()
          end
          else begin
            Dynamic.delete t x;
            Hashtbl.remove oracle x
          end)
        ops;
      let ok = ref (Dynamic.size t = Hashtbl.length oracle) in
      for x = 0 to 200 do
        if Dynamic.mem t rng x <> Hashtbl.mem oracle x then ok := false
      done;
      !ok && Result.is_ok (Dynamic.check t rng))

let prop_insert_only_oracle =
  QCheck.Test.make ~name:"insert-only sequences" ~count:20
    QCheck.(int_range 1 400)
    (fun n ->
      let t = fresh (n + 100) in
      let rng = Rng.create 24 in
      let keys = Keyset.random rng ~universe ~n in
      Array.iter (Dynamic.insert t) keys;
      Dynamic.size t = n
      && Array.for_all (fun x -> Dynamic.mem t rng x) keys
      && Result.is_ok (Dynamic.check t rng))

(* ------------------------------------------------------------------ *)
(* Epoch publication                                                    *)
(* ------------------------------------------------------------------ *)

module Epoch = Lc_dynamic.Epoch

let test_epoch_publish_visibility () =
  let t = Epoch.create (Rng.create 50) ~universe () in
  let r = Epoch.reader t (Rng.create 51) in
  Epoch.insert t 7;
  Epoch.insert t 11;
  checkb "insert invisible before publish" false (Epoch.mem t r 7);
  Epoch.publish t;
  checkb "visible after publish" true (Epoch.mem t r 7);
  checkb "visible after publish" true (Epoch.mem t r 11);
  checkb "absent key" false (Epoch.mem t r 12);
  Epoch.delete t 7;
  checkb "delete invisible before publish" true (Epoch.mem t r 7);
  Epoch.publish t;
  checkb "tombstone visible after publish" false (Epoch.mem t r 7);
  checki "epoch advanced per publish" 2 (Epoch.epoch (Epoch.current t))

let test_epoch_reclamation_and_accounting () =
  let t = Epoch.create (Rng.create 52) ~universe () in
  let r = Epoch.reader t (Rng.create 53) in
  (* Churn with periodic publication: cascading rebuilds drop levels
     constantly; with the only reader quiescent between queries, every
     retired level frees on the builder's next try_reclaim. *)
  for x = 0 to 499 do
    Epoch.insert t x;
    if (x + 1) mod 32 = 0 then begin
      Epoch.publish t;
      ignore (Epoch.try_reclaim t)
    end;
    if x mod 16 = 0 then ignore (Epoch.mem t r x)
  done;
  Epoch.publish t;
  ignore (Epoch.try_reclaim t);
  checkb "levels were reclaimed" true (Epoch.reclaimed t > 0);
  checki "nothing left pending" 0 (Epoch.retired_pending t);
  checki "per-cell tallies reconcile with the reader" (Epoch.reader_probes r)
    (Epoch.total_probes t);
  checkb "all inserts live" true
    (let ok = ref true in
     for x = 0 to 499 do
       if not (Epoch.mem t r x) then ok := false
     done;
     !ok)

(* Reclamation-lag accounting under a parked reader: a pin held across
   publications must make retired_pending and the staleness gauges
   grow (the builder cannot free what the reader may still see), and
   releasing the pin must let one try_reclaim drain everything —
   with the observed worst lag recorded in reclaim_lag_max. *)
let test_epoch_pinned_reader_lag_accounting () =
  let t = Epoch.create (Rng.create 54) ~universe () in
  let r = Epoch.reader t (Rng.create 55) in
  for x = 0 to 63 do
    Epoch.insert t x
  done;
  Epoch.publish t;
  ignore (Epoch.mem t r 0);
  (* Park the reader on the current snapshot... *)
  Epoch.acquire t r;
  checki "no lag while pinned at the head" 0 (Epoch.reader_lag t);
  (* ...then churn: cascading rebuilds retire levels every publish. *)
  for x = 64 to 319 do
    Epoch.insert t x;
    if (x + 1) mod 32 = 0 then begin
      Epoch.publish t;
      ignore (Epoch.try_reclaim t)
    end
  done;
  checkb "retired levels pile up behind the pin" true (Epoch.retired_pending t > 0);
  checkb "reader staleness counts the missed publications" true
    (Epoch.reader_staleness t r > 0);
  checki "reader_lag sees the parked reader" (Epoch.reader_staleness t r)
    (Epoch.reader_lag t);
  checkb "oldest retired level has measurable age" true (Epoch.oldest_retired_age t > 0);
  let reclaimed_while_pinned = Epoch.reclaimed t in
  (* Unpin: the backlog drains in one sweep. *)
  Epoch.release r;
  ignore (Epoch.try_reclaim t);
  checki "nothing pending after release + reclaim" 0 (Epoch.retired_pending t);
  checkb "the drain freed the backlog" true (Epoch.reclaimed t > reclaimed_while_pinned);
  checki "no lag at quiescence" 0 (Epoch.reader_lag t);
  checkb "worst lag was recorded" true (Epoch.reclaim_lag_max t > 0);
  (* The pin never compromised safety or accounting. *)
  ignore (Epoch.mem t r 0);
  checki "tallies still reconcile" (Epoch.reader_probes r) (Epoch.total_probes t)

(* Publication derives each snapshot's tombstones from the previous
   snapshot's and the keys the batch touched. Drive it through batches
   that delete, re-insert and delete one key again, and through batches
   that cross a purge: after every publish, a sequential sweep must
   equal the model set, every tombstone must answer false, and the
   tallies must reconcile with the reader. *)
let sweep_matches t r model =
  let ok = ref true in
  Array.iteri (fun x live -> if Epoch.mem t r x <> live then ok := false) model;
  List.iter
    (fun x -> if Epoch.mem t r x then ok := false)
    (Dynamic.tombstone_keys (Epoch.inner t));
  !ok

let apply_op t model (op, x) =
  match op with
  | 0 ->
    Epoch.insert t x;
    model.(x) <- true
  | 1 ->
    Epoch.delete t x;
    model.(x) <- false
  | _ ->
    (* delete -> re-insert -> delete of one key inside one batch *)
    Epoch.delete t x;
    Epoch.insert t x;
    Epoch.delete t x;
    model.(x) <- false

let prop_epoch_publication_oracle =
  QCheck.Test.make ~name:"every publish matches the model set" ~count:60
    QCheck.(
      list_of_size (Gen.int_range 1 30)
        (list_of_size (Gen.int_range 0 40) (pair (int_range 0 2) (int_range 0 47))))
    (fun batches ->
      let t = Epoch.create (Rng.create 56) ~universe:64 () in
      let r = Epoch.reader t (Rng.create 57) in
      let model = Array.make 48 false in
      List.for_all
        (fun batch ->
          List.iter (apply_op t model) batch;
          Epoch.publish t;
          let ok = sweep_matches t r model in
          let before = Epoch.total_probes t = Epoch.reader_probes r in
          ignore (Epoch.try_reclaim t);
          ok && before && Epoch.total_probes t = Epoch.reader_probes r)
        batches)

let test_epoch_tombstones_across_purge () =
  let t = Epoch.create (Rng.create 58) ~universe () in
  let r = Epoch.reader t (Rng.create 59) in
  let model = Array.make 96 false in
  let publish_and_check what =
    Epoch.publish t;
    ignore (Epoch.try_reclaim t);
    checkb what true (sweep_matches t r model)
  in
  for x = 0 to 63 do
    apply_op t model (0, x)
  done;
  publish_and_check "preload";
  List.iter (fun x -> apply_op t model (1, x)) [ 3; 9; 27 ];
  publish_and_check "tombstones merged into the previous snapshot's";
  (* 41 deletes in one batch: the purge threshold (half the stored keys)
     is crossed mid-batch, and the deletes after it tombstone again. *)
  let purges0 = Dynamic.purges (Epoch.inner t) in
  for x = 0 to 40 do
    apply_op t model (1, x)
  done;
  checkb "the batch crossed a purge" true (Dynamic.purges (Epoch.inner t) > purges0);
  publish_and_check "a batch that crossed a purge";
  List.iter (apply_op t model) [ (2, 50); (0, 5); (0, 70); (2, 70); (0, 3) ];
  publish_and_check "re-inserts and in-batch delete/insert/delete";
  publish_and_check "an empty batch";
  checki "tallies reconcile" (Epoch.reader_probes r) (Epoch.total_probes t)

(* Tally rows are per reader and appear on a reader's first probe of a
   level. A reader registered after the levels exist, and a reader that
   never reaches some levels, must both reconcile exactly, with retired
   levels pending and after they are reclaimed. *)
let test_epoch_late_and_partial_readers () =
  let t = Epoch.create (Rng.create 60) ~universe () in
  let early = Epoch.reader t (Rng.create 61) in
  for x = 0 to 99 do
    Epoch.insert t x
  done;
  Epoch.publish t;
  let late = Epoch.reader t (Rng.create 62) in
  let largest = Dynamic.level_views (Epoch.inner t) |> List.rev |> List.hd in
  (* The early reader only asks for keys of the largest level, which is
     probed first: it never touches the smaller levels. *)
  Array.iter (fun x -> checkb "hit" true (Epoch.mem t early x)) largest.Dynamic.lv_keys;
  (* The late reader asks for absent keys: it probes every level. *)
  for x = 1000 to 1049 do
    checkb "miss" false (Epoch.mem t late x)
  done;
  let reconciles what =
    checki what
      (Epoch.reader_probes early + Epoch.reader_probes late)
      (Epoch.total_probes t)
  in
  reconciles "both readers, one snapshot";
  checki "snapshot counts sum to every probe"
    (Epoch.total_probes t)
    (Array.fold_left ( + ) 0 (Epoch.snapshot_counts (Epoch.current t)));
  (* Retire the small levels while the late reader holds them pinned. *)
  Epoch.acquire t late;
  for x = 100 to 131 do
    Epoch.insert t x
  done;
  Epoch.publish t;
  ignore (Epoch.try_reclaim t);
  checkb "levels retired behind the pin" true (Epoch.retired_pending t > 0);
  reconciles "retired levels pending";
  Epoch.release late;
  ignore (Epoch.try_reclaim t);
  checki "all reclaimed" 0 (Epoch.retired_pending t);
  reconciles "after reclamation";
  for x = 0 to 131 do
    checkb "live after churn" true (Epoch.mem t late x)
  done;
  reconciles "late reader on fresh levels"

(* Once a reader has a tally row on every level of a fixed snapshot, a
   query allocates nothing. *)
let test_epoch_mem_allocation_free () =
  let t = Epoch.create (Rng.create 63) ~universe () in
  for x = 0 to 299 do
    Epoch.insert t (7 * x)
  done;
  Epoch.publish t;
  let r = Epoch.reader t (Rng.create 64) in
  (* A miss probes every level, so it gives the reader all its rows. *)
  checkb "warm-up miss" false (Epoch.mem t r 1);
  let calls = 10_000 in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to calls - 1 do
    if Epoch.mem t r (if i land 1 = 0 then 7 * (i mod 300) else 7 * (i mod 300) + 1) then
      incr hits
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  checki "hits" (calls / 2) !hits;
  checkb (Printf.sprintf "under 1 word per query (%.3f)" words) true (words < 1.0)

(* The linchpin property: under a hard-driven concurrent builder and
   several readers, (a) no query ever touches a freed level (the poison
   flag never trips), (b) every answer agrees with the sequential
   oracle of the epoch the query pinned, and (c) at quiescence the
   per-cell tallies reconcile exactly with the readers' own counts. *)
let prop_epoch_concurrent_oracle =
  QCheck.Test.make ~name:"concurrent readers agree with the pinned epoch's oracle" ~count:8
    QCheck.(pair (list_of_size (Gen.int_range 100 400) (pair bool (int_range 0 199)))
              (int_range 8 48))
    (fun (raw_ops, publish_every) ->
      let uni = 4096 in
      let ops = Array.of_list raw_ops in
      let len = Array.length ops in
      let publications = (len + publish_every - 1) / publish_every in
      (* Oracle per epoch: epoch e publishes the prefix of e*publish_every
         operations (the last one whatever remains). *)
      let expected =
        let model = Hashtbl.create 64 in
        let tbl = Array.make (publications + 1) [||] in
        tbl.(0) <- Array.make 200 false;
        let upto = ref 0 in
        for e = 1 to publications do
          let stop = min (e * publish_every) len in
          while !upto < stop do
            let ins, x = ops.(!upto) in
            if ins then Hashtbl.replace model x () else Hashtbl.remove model x;
            incr upto
          done;
          tbl.(e) <- Array.init 200 (Hashtbl.mem model)
        done;
        tbl
      in
      let t = Epoch.create (Rng.create 54) ~universe:uni () in
      let n_readers = 3 in
      let readers =
        Array.init n_readers (fun i -> Epoch.reader t (Rng.create (55 + i)))
      in
      let done_flag = Atomic.make false in
      let builder =
        Domain.spawn (fun () ->
            Array.iteri
              (fun i (ins, x) ->
                if ins then Epoch.insert t x else Epoch.delete t x;
                if (i + 1) mod publish_every = 0 || i + 1 = len then begin
                  Epoch.publish t;
                  ignore (Epoch.try_reclaim t)
                end)
              ops;
            Atomic.set done_flag true)
      in
      let reader_domains =
        Array.map
          (fun r ->
            Domain.spawn (fun () ->
                let rng = Rng.create (Epoch.reader_probes r + 97) in
                let mismatches = ref 0 and freed = ref 0 and queries = ref 0 in
                let budget = ref 200_000 in
                while (not (Atomic.get done_flag)) && !budget > 0 do
                  decr budget;
                  incr queries;
                  let x = Rng.int rng 200 in
                  (try
                     let got = Epoch.mem t r x in
                     let e = Epoch.last_epoch r in
                     if got <> expected.(e).(x) then incr mismatches
                   with Epoch.Freed_level _ -> incr freed)
                done;
                (* A few queries after the builder is done must see the
                   final epoch's contents. *)
                for _ = 1 to 50 do
                  let x = Rng.int rng 200 in
                  try
                    let got = Epoch.mem t r x in
                    let e = Epoch.last_epoch r in
                    if got <> expected.(e).(x) then incr mismatches
                  with Epoch.Freed_level _ -> incr freed
                done;
                (!mismatches, !freed, !queries)))
          readers
      in
      Domain.join builder;
      let results = Array.map Domain.join reader_domains in
      let mismatches = Array.fold_left (fun a (m, _, _) -> a + m) 0 results in
      let freed_hits = Array.fold_left (fun a (_, f, _) -> a + f) 0 results in
      (* All readers quiescent now: everything retired must free, and
         the structure-side tallies must equal the readers' counters. *)
      ignore (Epoch.try_reclaim t);
      let reader_probes =
        Array.fold_left (fun a r -> a + Epoch.reader_probes r) 0 readers
      in
      mismatches = 0 && freed_hits = 0
      && Epoch.retired_pending t = 0
      && Epoch.total_probes t = reader_probes
      && Epoch.epoch (Epoch.current t) = publications)

let () =
  Alcotest.run "lc_dynamic"
    [
      ( "semantics",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "insert/mem" `Quick test_insert_mem;
          Alcotest.test_case "insert idempotent" `Quick test_insert_idempotent;
          Alcotest.test_case "delete" `Quick test_delete;
          Alcotest.test_case "reinsert after delete" `Quick test_reinsert_after_delete;
          Alcotest.test_case "level shape" `Quick test_levels_shape;
          Alcotest.test_case "purge triggers" `Quick test_purge_triggers;
          Alcotest.test_case "check invariants" `Quick test_check_invariants;
          Alcotest.test_case "amortized rebuild cost" `Quick test_amortized_rebuild_cost;
          Alcotest.test_case "space linear" `Quick test_space_linear;
        ] );
      ( "replication",
        [
          Alcotest.test_case "replica counts" `Quick test_boost_replica_counts;
          Alcotest.test_case "rejects non-power boost" `Quick test_boost_rejects_non_power;
          Alcotest.test_case "semantics preserved" `Quick test_boost_preserves_semantics;
          Alcotest.test_case "boost survives churn" `Quick test_boost_survives_churn;
        ] );
      ( "contention",
        [
          Alcotest.test_case "small-level hot spot (misses)" `Quick test_small_level_hotspot;
          Alcotest.test_case "positives hide the hot spot" `Quick
            test_positive_queries_hide_the_hotspot;
          Alcotest.test_case "boost levels the hot spot" `Quick test_boost_levels_the_hotspot;
        ] );
      ( "epoch",
        [
          Alcotest.test_case "publish visibility" `Quick test_epoch_publish_visibility;
          Alcotest.test_case "reclamation + accounting" `Quick
            test_epoch_reclamation_and_accounting;
          Alcotest.test_case "pinned reader lag accounting" `Quick
            test_epoch_pinned_reader_lag_accounting;
          Alcotest.test_case "tombstones across a purge" `Quick
            test_epoch_tombstones_across_purge;
          Alcotest.test_case "late and partial readers" `Quick
            test_epoch_late_and_partial_readers;
          Alcotest.test_case "mem allocation-free" `Quick test_epoch_mem_allocation_free;
        ] );
      ( "oracle",
        List.map (QCheck_alcotest.to_alcotest ~long:false)
          [
            prop_matches_set_oracle;
            prop_insert_only_oracle;
            prop_epoch_publication_oracle;
            prop_epoch_concurrent_oracle;
          ] );
    ]
