(* Tier-1 tests for the multicore serving engine and the reentrant
   instance modes: multi-domain answers agree with sequential [mem],
   atomic probe tallies match a sequential counting replay, the
   uninstrumented query path still validates against the probe specs,
   and the engine exhibits the Theorem 3 hot-spot separation. *)

module Rng = Lc_prim.Rng
module Qdist = Lc_cellprobe.Qdist
module Table = Lc_cellprobe.Table
module Instance = Lc_dict.Instance
module Keyset = Lc_workload.Keyset
module Engine = Lc_parallel.Engine

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* Static serving through the unified entry point. *)
let serve ?cost ~domains ~queries_per_domain ~seed inst qdist =
  (Engine.run
     (Engine.Config.make ?cost ~domains ~seed ())
     (Engine.Static { inst; qdist; queries_per_domain }))
    .Engine.result

let universe = 1 lsl 18
let n = 256

let lc_fixture seed =
  let rng = Rng.create seed in
  let keys = Keyset.random rng ~universe ~n in
  let dict = Lc_core.Dictionary.build rng ~universe ~keys in
  (rng, keys, Lc_core.Dictionary.instance dict)

(* The sequential reference tally: per-cell probe counts of answering
   each [(rng, queries)] run in order through the instance's core, with
   a probe closure that counts. *)
let sequential_counts inst runs =
  let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
  let counts = Array.make D.space 0 in
  let probe ~step:_ j =
    counts.(j) <- counts.(j) + 1;
    Table.peek D.table j
  in
  List.iter
    (fun (rng, queries) -> Array.iter (fun x -> ignore (D.mem ~probe rng x : bool)) queries)
    runs;
  counts

(* (a) A multi-domain query storm returns exactly the sequential
   answers: the query path is deterministic in everything but replica
   choice, so domain scheduling and rng streams must not matter. *)
let test_storm_agreement () =
  let rng, keys, inst = lc_fixture 1 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:(4 * n) in
  let queries = Array.append keys negs in
  Rng.shuffle rng queries;
  let seq_rng = Rng.create 99 in
  let expected = Array.map (fun x -> inst.Instance.mem seq_rng x) queries in
  let got = Engine.answer_all ~domains:4 ~seed:5 inst ~queries in
  Array.iteri
    (fun i x ->
      checkb (Printf.sprintf "storm query %d agrees with sequential mem" x) expected.(i)
        got.(i))
    queries

(* (b) Per-cell atomic tallies equal the sequential counting replay
   for the same query multiset. Binary search probes
   deterministically (no replica randomness), so equality holds
   cell-by-cell no matter how the multiset is split across domains. *)
let test_atomic_counts_match_sequential_binary_search () =
  let rng = Rng.create 2 in
  let keys = Keyset.random rng ~universe ~n in
  let inst = Lc_dict.Sorted_array.instance (Lc_dict.Sorted_array.build ~universe ~keys) in
  let negs = Keyset.negatives rng ~universe ~keys ~count:n in
  let queries = Array.append keys negs in
  let seq_counts = sequential_counts inst [ (Rng.create 3, queries) ] in
  let atomic = Instance.atomic inst in
  let domains = 3 in
  let spawned =
    Array.init domains (fun w ->
        Domain.spawn (fun () ->
            let rng = Rng.create (100 + w) in
            let i = ref w in
            while !i < Array.length queries do
              ignore (atomic.Instance.mem rng queries.(!i) : bool);
              i := !i + domains
            done))
  in
  Array.iter Domain.join spawned;
  let counts = Instance.atomic_counts atomic in
  Array.iteri
    (fun j c -> checki (Printf.sprintf "cell %d tally" j) seq_counts.(j) c)
    counts

(* (b') For the low-contention dictionary the per-cell split depends on
   replica choices, but the number of probes per query does not — so
   total atomic probes must equal the sequential total exactly. *)
let test_atomic_total_matches_sequential_lc () =
  let rng, keys, inst = lc_fixture 4 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:n in
  let queries = Array.append keys negs in
  let seq_total =
    Array.fold_left ( + ) 0 (sequential_counts inst [ (Rng.create 7, queries) ])
  in
  let atomic = Instance.atomic inst in
  let domains = 4 in
  let spawned =
    Array.init domains (fun w ->
        Domain.spawn (fun () ->
            let rng = Rng.create (200 + w) in
            let i = ref w in
            while !i < Array.length queries do
              ignore (atomic.Instance.mem rng queries.(!i) : bool);
              i := !i + domains
            done))
  in
  Array.iter Domain.join spawned;
  let total = Array.fold_left ( + ) 0 (Instance.atomic_counts atomic) in
  checki "total atomic probes equal sequential probes" seq_total total

(* (c) The uninstrumented (counter-free, reentrant) query path is the
   same algorithm: it validates against the exact probe specs. *)
let test_uninstrumented_agrees_with_spec () =
  let rng, keys, inst = lc_fixture 6 in
  let u = Instance.uninstrumented inst in
  let sample =
    Array.append
      (Array.sub keys 0 (min 40 n))
      (Keyset.negatives rng ~universe ~keys ~count:40)
  in
  match Instance.check_spec_against_mem u ~rng:(Rng.create 9) ~queries:sample with
  | Ok () -> ()
  | Error e -> Alcotest.failf "uninstrumented instance fails spec validation: %s" e

let test_mode_switching () =
  let _, _, inst = lc_fixture 10 in
  checkb "default mode is uninstrumented" true (Instance.mode inst = Instance.Uninstrumented);
  checkb "uninstrumented of uninstrumented is itself" true (Instance.uninstrumented inst == inst);
  let a = Instance.atomic inst in
  checkb "atomic mode" true (Instance.mode a = Instance.Atomic_counters);
  checkb "uninstrumented of atomic" true
    (Instance.mode (Instance.uninstrumented a) = Instance.Uninstrumented);
  checki "fresh counters are zero" 0 (Array.fold_left ( + ) 0 (Instance.atomic_counts a));
  checkb "atomic_counts rejects non-atomic instances" true
    (try
       ignore (Instance.atomic_counts inst : int array);
       false
     with Invalid_argument _ -> true)

(* Engine-level separation — the acceptance shape of experiment T12:
   the low-contention dictionary's hottest cell stays within a small
   constant factor of the flat bound queries * max_probes / space,
   while unreplicated FKS's parameter cell (probed once per query)
   exceeds it by orders of magnitude. *)
let test_hotspot_separation () =
  let rng = Rng.create 12 in
  let keys = Keyset.random rng ~universe ~n in
  let lc = Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys) in
  let fks = Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys) in
  let qd = Qdist.uniform ~name:"pos" keys in
  List.iter
    (fun domains ->
      let r = serve ~domains ~queries_per_domain:1_500 ~seed:13 lc qd in
      checki "all queries served" (domains * 1_500) r.Engine.queries;
      checki "counts sum to total" r.Engine.total_probes
        (Array.fold_left ( + ) 0 r.Engine.counts);
      checkb "throughput positive" true (r.Engine.throughput > 0.0);
      checkb
        (Printf.sprintf "low-contention hot spot within constant factor (m = %d, ratio %.1f)"
           domains (Engine.hotspot_ratio r))
        true
        (Engine.hotspot_ratio r < 16.0))
    [ 1; 2 ];
  let r = serve ~domains:2 ~queries_per_domain:1_500 ~seed:13 fks qd in
  checkb
    (Printf.sprintf "unreplicated fks hot spot far above flat bound (ratio %.1f)"
       (Engine.hotspot_ratio r))
    true
    (Engine.hotspot_ratio r > 50.0);
  checki "fks parameter cell absorbs one probe per query" r.Engine.queries
    r.Engine.hottest_count

(* The spinlock cost model must not change answers or tallies, only
   timing. *)
let test_spinlock_same_tallies () =
  let rng = Rng.create 14 in
  let keys = Keyset.random rng ~universe ~n in
  let lc = Lc_core.Dictionary.instance (Lc_core.Dictionary.build rng ~universe ~keys) in
  let qd = Qdist.uniform ~name:"pos" keys in
  let free = serve ~domains:2 ~queries_per_domain:400 ~seed:15 lc qd in
  let locked =
    serve ~cost:(Engine.Spinlock { hold = 4 }) ~domains:2 ~queries_per_domain:400 ~seed:15
      lc qd
  in
  checki "same total probes under spinlock" free.Engine.total_probes locked.Engine.total_probes

(* Per-domain tallies are exact: a 2-domain static run's per-cell counts
   equal the sum of each worker's sequential counting replay — the
   same batch (sampled from [seed + 7919 (w + 1)]) answered with the
   same replica stream ([seed lxor 104729 (w + 1)]) — under both cost
   models. Any lost or doubled increment shows up cell by cell. *)
let test_tallies_equal_sequential_replay () =
  let rng, keys, inst = lc_fixture 16 in
  let negs = Keyset.negatives rng ~universe ~keys ~count:n in
  let qd = Qdist.pos_neg ~pos:keys ~neg:negs ~p_pos:0.5 in
  let domains = 2 and queries_per_domain = 500 and seed = 17 in
  let expected =
    sequential_counts inst
      (List.init domains (fun w ->
           let batch_rng = Rng.create (seed + (7919 * (w + 1))) in
           let batch = Array.init queries_per_domain (fun _ -> Qdist.sample qd batch_rng) in
           (Rng.create (seed lxor (104729 * (w + 1))), batch)))
  in
  List.iter
    (fun (label, cost) ->
      let r = serve ~cost ~domains ~queries_per_domain ~seed inst qd in
      Alcotest.check (Alcotest.array Alcotest.int)
        (label ^ ": counts = sum of per-domain replays") expected r.Engine.counts;
      checki (label ^ ": total = replay total") (Array.fold_left ( + ) 0 expected)
        r.Engine.total_probes)
    [ ("free", Engine.Free); ("spinlock", Engine.Spinlock { hold = 2 }) ]

(* Crafted result records exercising the summarisers directly:
   count_histogram's log buckets must break exactly at powers of two,
   report untouched cells in the (0, k) bucket, and skip empty buckets;
   top_cells must sort descending and tolerate k larger than the table. *)
let fake_result counts =
  let total = Array.fold_left ( + ) 0 counts in
  let hottest = ref 0 in
  Array.iteri (fun j c -> if c > counts.(!hottest) then hottest := j) counts;
  {
    Engine.name = "fake";
    domains = 1;
    queries = total;
    seconds = 1.0;
    throughput = float_of_int total;
    total_probes = total;
    counts;
    hottest_cell = !hottest;
    hottest_count = counts.(!hottest);
    hottest_share =
      (if total = 0 then 0.0 else float_of_int counts.(!hottest) /. float_of_int total);
    flat_bound = 1.0;
  }

let test_count_histogram_buckets () =
  (* Boundaries: 0 | 1 | 2..3 | 4..7 | 8..15. Values 2 and 3 share a
     bucket; 4 opens the next one. *)
  let r = fake_result [| 0; 0; 1; 2; 3; 4; 7; 8 |] in
  Alcotest.(check (list (pair int int)))
    "power-of-two bucket boundaries"
    [ (0, 2); (1, 1); (3, 2); (7, 2); (15, 1) ]
    (Engine.count_histogram r);
  (* All cells untouched: only the (0, k) bucket. *)
  Alcotest.(check (list (pair int int)))
    "all-zero counts collapse to the (0, k) bucket"
    [ (0, 5) ]
    (Engine.count_histogram (fake_result (Array.make 5 0)));
  (* Empty buckets between populated ones are skipped. *)
  Alcotest.(check (list (pair int int)))
    "empty buckets skipped"
    [ (1, 1); (127, 1) ]
    (Engine.count_histogram (fake_result [| 1; 100 |]))

let test_top_cells () =
  let r = fake_result [| 5; 0; 9; 1; 9 |] in
  (match Engine.top_cells r ~k:3 with
  | [ (c1, 9); (c2, 9); (0, 5) ] when (c1 = 2 && c2 = 4) || (c1 = 4 && c2 = 2) -> ()
  | other ->
    Alcotest.failf "unexpected top-3: %s"
      (String.concat "; " (List.map (fun (j, c) -> Printf.sprintf "(%d,%d)" j c) other)));
  checkb "counts weakly descending" true
    (let rec desc = function
       | (_, a) :: ((_, b) :: _ as rest) -> a >= b && desc rest
       | _ -> true
     in
     desc (Engine.top_cells r ~k:5));
  checki "k beyond the table clamps to every cell" 5
    (List.length (Engine.top_cells r ~k:100));
  checki "k = 0 yields nothing" 0 (List.length (Engine.top_cells r ~k:0))

(* Build_failed diagnostics: at n = 4 the FKS condition of P(S) is
   discrete enough that a first-trial rejection happens for a few
   percent of seeds, so with max_trials:1 some seed below 300 surfaces
   the exception, which must carry the stage and the trial budget. *)
(* Dynamic serving through the unified entry point: windowed telemetry,
   the engine result and the epoch structure's own per-cell tallies
   must all agree exactly — Σ window queries = result.queries, the
   metrics counters match, and Epoch.total_probes equals the readers'
   cumulative count. *)
let test_dynamic_serving_reconciles () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let rng = Rng.create 41 in
  let keys = Keyset.random rng ~universe ~n in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let snap0 = Epoch.current epoch in
  let domains = 3 in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.9)
      ~initial_pool:keys rng ~universe ~length:(domains * 800) ~working_set:(2 * n)
  in
  let mon =
    Engine.Monitor.create_for ~interval_s:0.02 ~domains ~space:(Epoch.space snap0)
      ~max_probes:(Epoch.max_probes snap0) ()
  in
  let cfg = Engine.Config.make ~monitor:mon ~domains ~seed:42 () in
  let o = Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 64 }) in
  let r = o.Engine.result in
  let ins, del, qry = Opstream.counts ops in
  checki "result.queries = stream queries" qry r.Engine.queries;
  checki "window queries sum to the result" r.Engine.queries
    (List.fold_left (fun a (w : Lc_obs.Window.entry) -> a + w.queries) 0 o.Engine.windows);
  let snap = Lc_obs.Obs.snapshot (Engine.Monitor.obs mon) in
  let counter name =
    match Lc_obs.Metrics.Snapshot.counter_value snap name with
    | Some v -> v
    | None -> Alcotest.failf "counter %s missing" name
  in
  checki "engine_queries_total" r.Engine.queries (counter "engine_queries_total");
  checki "engine_probes_total" r.Engine.total_probes (counter "engine_probes_total");
  checki "epoch tallies = reader probes" r.Engine.total_probes (Epoch.total_probes epoch);
  match o.Engine.updates with
  | None -> Alcotest.fail "dynamic run must report update stats"
  | Some u ->
    checki "inserts applied" ins u.Engine.inserts;
    checki "deletes applied" del u.Engine.deletes;
    checki "builder insert counter" ins (counter "engine_inserts_total");
    checki "builder delete counter" del (counter "engine_deletes_total");
    checkb "published beyond the preload snapshot" true (u.Engine.publications >= 2);
    checki "final epoch counts every publication" u.Engine.publications
      (Epoch.epoch (Epoch.current epoch))

(* Phase accounting: instrumented runs must attribute every worker's
   batch wall exactly — probe + tally + publish + pin + other = wall by
   construction — flush the same totals into the engine_phase_*
   counters, and stay [None] (hot path untouched) when uninstrumented. *)
let phase_parts (p : Engine.phase_stats) =
  p.Engine.ph_probe_ns + p.Engine.ph_tally_ns + p.Engine.ph_publish_ns + p.Engine.ph_pin_ns
  + p.Engine.ph_other_ns

let test_phase_accounting_static () =
  let rng, keys, inst = lc_fixture 21 in
  ignore (rng : Rng.t);
  let qd = Qdist.uniform ~name:"pos" keys in
  let obs = Lc_obs.Obs.create () in
  let domains = 3 in
  let cfg = Engine.Config.make ~obs ~domains ~seed:22 () in
  let o = Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain = 600 }) in
  match o.Engine.phases with
  | None -> Alcotest.fail "instrumented static run must carry phase stats"
  | Some phases ->
    checki "one record per worker" domains (Array.length phases);
    Array.iteri
      (fun w (p : Engine.phase_stats) ->
        checki (Printf.sprintf "worker %d index" w) w p.Engine.ph_domain;
        checki
          (Printf.sprintf "worker %d phases sum to wall" w)
          p.Engine.ph_wall_ns (phase_parts p);
        checki (Printf.sprintf "worker %d static pin is 0" w) 0 p.Engine.ph_pin_ns;
        checkb (Printf.sprintf "worker %d probe time positive" w) true
          (p.Engine.ph_probe_ns > 0);
        checkb (Printf.sprintf "worker %d idle non-negative" w) true
          (p.Engine.ph_idle_ns >= 0))
      phases;
    (* The flushed counters must agree with the records they came from. *)
    let snap = Lc_obs.Obs.snapshot obs in
    let counter name =
      match Lc_obs.Metrics.Snapshot.counter_value snap name with
      | Some v -> v
      | None -> Alcotest.failf "counter %s missing" name
    in
    let sum f = Array.fold_left (fun a p -> a + f p) 0 phases in
    checki "wall counter = record sum"
      (sum (fun p -> p.Engine.ph_wall_ns))
      (counter "engine_phase_wall_ns_total");
    checki "probe counter = record sum"
      (sum (fun p -> p.Engine.ph_probe_ns))
      (counter "engine_phase_probe_ns_total");
    checki "idle counter = record sum"
      (sum (fun p -> p.Engine.ph_idle_ns))
      (counter "engine_phase_idle_ns_total")

let test_phase_accounting_dynamic_pins () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let rng = Rng.create 23 in
  let keys = Keyset.random rng ~universe ~n in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let domains = 2 in
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.9)
      ~initial_pool:keys rng ~universe ~length:(domains * 600) ~working_set:(2 * n)
  in
  let obs = Lc_obs.Obs.create () in
  let cfg = Engine.Config.make ~obs ~domains ~seed:24 () in
  let o = Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 64 }) in
  match o.Engine.phases with
  | None -> Alcotest.fail "instrumented dynamic run must carry phase stats"
  | Some phases ->
    checki "one record per worker" domains (Array.length phases);
    Array.iteri
      (fun w (p : Engine.phase_stats) ->
        checki
          (Printf.sprintf "worker %d phases sum to wall" w)
          p.Engine.ph_wall_ns (phase_parts p);
        checkb (Printf.sprintf "worker %d pin time positive" w) true
          (p.Engine.ph_pin_ns > 0))
      phases

let test_phase_accounting_off_when_uninstrumented () =
  let _, keys, inst = lc_fixture 25 in
  let qd = Qdist.uniform ~name:"pos" keys in
  let cfg = Engine.Config.make ~domains:2 ~seed:26 () in
  let o = Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain = 200 }) in
  checkb "uninstrumented run reports no phases" true (o.Engine.phases = None)

let test_build_failed_diagnostics () =
  let found = ref None in
  let seed = ref 0 in
  while !found = None && !seed < 300 do
    let rng = Rng.create !seed in
    let keys = Keyset.random rng ~universe ~n:4 in
    (try ignore (Lc_core.Dictionary.build ~max_trials:1 rng ~universe ~keys) with
    | Lc_core.Dictionary.Build_failed { stage; trials; detail } ->
      found := Some (stage, trials, detail));
    incr seed
  done;
  match !found with
  | None -> Alcotest.fail "no seed in [0, 300) exhausted max_trials:1 — suspicious"
  | Some (stage, trials, detail) ->
    checki "trial budget recorded" 1 trials;
    checkb "stage names P(S) rejection sampling" true
      (stage = "P(S) rejection sampling");
    checkb "detail is populated" true (String.length detail > 0)

(* Fault containment: a worker that raises mid-run under a monitor must
   not leak domains or leave the monitor ticking. [Engine.run] re-raises
   the worker's own exception only after every domain has joined, so the
   window count is frozen from the moment it returns. *)
let windows_frozen_after_raise ~what mon run =
  (match run () with
  | (_ : Engine.outcome) -> Alcotest.failf "%s: the run should have raised" what
  | exception Invalid_argument msg ->
    checkb (Printf.sprintf "%s: original exception re-raised (%s)" what msg) true
      (String.ends_with ~suffix:"key outside universe" msg));
  let window = Engine.Monitor.window mon in
  let before = Lc_obs.Window.total_windows window in
  Unix.sleepf 0.3;
  checki (what ^ ": no window cut after the raise") before
    (Lc_obs.Window.total_windows window)

let test_static_worker_raise_contained () =
  let _, _, inst = lc_fixture 31 in
  let domains = 2 in
  let mon = Engine.Monitor.create ~interval_s:0.02 ~domains inst in
  let cfg = Engine.Config.make ~monitor:mon ~domains ~seed:32 () in
  windows_frozen_after_raise ~what:"static" mon (fun () ->
      Engine.run cfg
        (Engine.Static { inst; qdist = Qdist.point universe; queries_per_domain = 50 }))

let test_dynamic_reader_raise_contained () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let rng = Rng.create 33 in
  let keys = Keyset.random rng ~universe ~n in
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) keys;
  Epoch.publish epoch;
  let snap = Epoch.current epoch in
  let domains = 2 in
  let ops =
    Array.concat
      [
        Array.map (fun k -> Opstream.Query k) keys;
        [| Opstream.Insert ((keys.(0) + 1) mod universe); Opstream.Query universe |];
        Array.map (fun k -> Opstream.Delete k) (Array.sub keys 0 8);
      ]
  in
  let mon =
    Engine.Monitor.create_for ~interval_s:0.02 ~domains ~space:(Epoch.space snap)
      ~max_probes:(Epoch.max_probes snap) ()
  in
  let cfg = Engine.Config.make ~monitor:mon ~domains ~seed:34 () in
  windows_frozen_after_raise ~what:"dynamic" mon (fun () ->
      Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 4 }))

(* A monitored dynamic run journals its builder on ring domains + 2.
   Given a journal without that ring, [run] refuses before serving,
   naming the ring count it needs; given the ring, the builder's publish
   and merge events land on it. *)
let test_dynamic_run_needs_builder_ring () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let rng = Rng.create 37 in
  let keys = Keyset.random rng ~universe ~n in
  let domains = 1 in
  let run ~writers =
    let epoch = Epoch.create rng ~universe () in
    Array.iter (Epoch.insert epoch) keys;
    Epoch.publish epoch;
    let snap = Epoch.current epoch in
    let journal = Lc_obs.Journal.create ~writers ~capacity:256 in
    let mon =
      Engine.Monitor.create_for ~interval_s:0.02 ~journal ~domains ~space:(Epoch.space snap)
        ~max_probes:(Epoch.max_probes snap) ()
    in
    let ops = Array.append (Array.map (fun k -> Opstream.Query k) keys) [| Opstream.Insert 1 |] in
    ignore
      (Engine.run (Engine.Config.make ~monitor:mon ~domains ~seed:38 ())
         (Engine.Dynamic { epoch; ops; publish_every = 1 })
        : Engine.outcome);
    journal
  in
  let contains hay needle =
    let k = String.length needle in
    let rec go i = i + k <= String.length hay && (String.sub hay i k = needle || go (i + 1)) in
    go 0
  in
  (match run ~writers:(domains + 2) with
  | _ -> Alcotest.fail "a journal without the builder ring was accepted"
  | exception Invalid_argument msg ->
    checkb (Printf.sprintf "message %S names domains + 3 = 4" msg) true
      (contains msg "domains + 3 = 4"));
  let journal = run ~writers:(domains + 3) in
  checkb "builder events on ring domains + 2" true
    (List.exists
       (fun (e : Lc_obs.Journal.event) ->
         e.writer = domains + 2
         && match e.kind with Lc_obs.Journal.Epoch_publish _ -> true | _ -> false)
       (Lc_obs.Journal.events journal))

(* A monitor carries its own obs handle: passing a different one next to
   it would be silently dropped, so Config rejects the combination, and
   accepts the monitor's own handle. *)
let test_config_rejects_foreign_obs () =
  let _, _, inst = lc_fixture 35 in
  let mon = Engine.Monitor.create ~domains:1 inst in
  checkb "foreign obs next to a monitor is rejected" true
    (match
       Engine.Config.make ~obs:(Lc_obs.Obs.create ()) ~monitor:mon ~domains:1 ~seed:1 ()
     with
    | (_ : Engine.Config.t) -> false
    | exception Invalid_argument _ -> true);
  let cfg = Engine.Config.make ~obs:(Engine.Monitor.obs mon) ~monitor:mon ~domains:1 ~seed:1 () in
  checkb "the monitor's own obs is accepted" true (cfg.Engine.Config.monitor <> None)

(* Cross-tier equivalence: bare, obs and monitored runs of one seed serve
   the same queries with the same per-domain rngs, so the whole result
   agrees once the wall-clock fields are normalised. *)
let test_static_tiers_agree () =
  let _, keys, inst = lc_fixture 36 in
  let qdist = Qdist.uniform ~name:"pos" keys in
  let domains = 2 in
  let run cfg =
    let o = Engine.run cfg (Engine.Static { inst; qdist; queries_per_domain = 400 }) in
    let r = o.Engine.result in
    checki "total_probes = sum of counts" r.Engine.total_probes
      (Array.fold_left ( + ) 0 r.Engine.counts);
    { r with Engine.seconds = 0.0; throughput = 0.0 }
  in
  let bare = run (Engine.Config.make ~domains ~seed:37 ()) in
  let obs = run (Engine.Config.make ~obs:(Lc_obs.Obs.create ()) ~domains ~seed:37 ()) in
  let mon =
    run
      (Engine.Config.make ~monitor:(Engine.Monitor.create ~interval_s:0.02 ~domains inst) ~domains
         ~seed:37 ())
  in
  checkb "obs result = bare result" true (obs = bare);
  checkb "monitored result = bare result" true (mon = bare)

(* Dynamic runs race the builder against the readers, so only the
   stream-determined fields must agree across tiers: query count and the
   builder's update statistics. The probe total must account for every
   probe, including those on levels retired mid-run. *)
let test_dynamic_tiers_agree () =
  let module Epoch = Lc_dynamic.Epoch in
  let module Opstream = Lc_workload.Opstream in
  let domains = 2 in
  let run tier =
    let rng = Rng.create 38 in
    let keys = Keyset.random rng ~universe ~n in
    let epoch = Epoch.create rng ~universe () in
    Array.iter (Epoch.insert epoch) keys;
    Epoch.publish epoch;
    let snap = Epoch.current epoch in
    let ops =
      Opstream.generate
        ~mix:(Opstream.read_write_mix ~read_fraction:0.5)
        ~initial_pool:keys rng ~universe ~length:(domains * 400) ~working_set:(2 * n)
    in
    let cfg =
      match tier with
      | `Bare -> Engine.Config.make ~domains ~seed:39 ()
      | `Obs -> Engine.Config.make ~obs:(Lc_obs.Obs.create ()) ~domains ~seed:39 ()
      | `Monitored ->
        let mon =
          Engine.Monitor.create_for ~interval_s:0.02 ~domains ~space:(Epoch.space snap)
            ~max_probes:(Epoch.max_probes snap) ()
        in
        Engine.Config.make ~monitor:mon ~domains ~seed:39 ()
    in
    let o = Engine.run cfg (Engine.Dynamic { epoch; ops; publish_every = 16 }) in
    let r = o.Engine.result in
    checki "total_probes = every reader probe" (Epoch.total_probes epoch) r.Engine.total_probes;
    checkb "final-snapshot tallies within the total" true
      (Array.fold_left ( + ) 0 r.Engine.counts <= r.Engine.total_probes);
    let u = Option.get o.Engine.updates in
    ( r.Engine.queries,
      [
        u.Engine.inserts; u.Engine.deletes; u.Engine.publications; u.Engine.final_live;
        u.Engine.final_epoch; u.Engine.cells_written; u.Engine.rebuilds; u.Engine.keys_rebuilt;
        u.Engine.purges;
      ] )
  in
  let bare = run `Bare in
  checkb "obs agrees with bare" true (run `Obs = bare);
  checkb "monitored agrees with bare" true (run `Monitored = bare)

let () =
  Alcotest.run "lc_parallel"
    [
      ( "engine",
        [
          Alcotest.test_case "storm agreement" `Quick test_storm_agreement;
          Alcotest.test_case "hotspot separation" `Quick test_hotspot_separation;
          Alcotest.test_case "spinlock same tallies" `Quick test_spinlock_same_tallies;
          Alcotest.test_case "tallies = sequential replay" `Quick
            test_tallies_equal_sequential_replay;
          Alcotest.test_case "count_histogram buckets" `Quick test_count_histogram_buckets;
          Alcotest.test_case "top_cells" `Quick test_top_cells;
        ] );
      ( "modes",
        [
          Alcotest.test_case "atomic counts = sequential (binary search)" `Quick
            test_atomic_counts_match_sequential_binary_search;
          Alcotest.test_case "atomic total = sequential (low-contention)" `Quick
            test_atomic_total_matches_sequential_lc;
          Alcotest.test_case "uninstrumented agrees with spec" `Quick
            test_uninstrumented_agrees_with_spec;
          Alcotest.test_case "mode switching" `Quick test_mode_switching;
        ] );
      ( "phases",
        [
          Alcotest.test_case "static attribution reconciles" `Quick
            test_phase_accounting_static;
          Alcotest.test_case "dynamic runs charge pin time" `Quick
            test_phase_accounting_dynamic_pins;
          Alcotest.test_case "absent when uninstrumented" `Quick
            test_phase_accounting_off_when_uninstrumented;
        ] );
      ( "build",
        [
          Alcotest.test_case "Build_failed diagnostics" `Quick test_build_failed_diagnostics;
          Alcotest.test_case "dynamic serving reconciles" `Quick
            test_dynamic_serving_reconciles;
        ] );
      ( "faults",
        [
          Alcotest.test_case "static worker raise joins all domains" `Quick
            test_static_worker_raise_contained;
          Alcotest.test_case "dynamic reader raise joins all domains" `Quick
            test_dynamic_reader_raise_contained;
          Alcotest.test_case "config rejects a foreign obs" `Quick
            test_config_rejects_foreign_obs;
          Alcotest.test_case "dynamic run needs builder ring" `Quick
            test_dynamic_run_needs_builder_ring;
        ] );
      ( "tiers",
        [
          Alcotest.test_case "static tiers agree" `Quick test_static_tiers_agree;
          Alcotest.test_case "dynamic tiers agree" `Quick test_dynamic_tiers_agree;
        ] );
    ]
