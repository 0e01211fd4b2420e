(* The repo benchmark: three serving workloads through the public entry
   points ([Engine.run], [Engine.Monitor], the structure builders and
   [Lc_dynamic.Epoch]), checked answer by answer.

     bench.exe --workload W --seed N --seconds S --trace 0|1 [--spans FILE]

   [--trace 0] prints the end-to-end metrics; [--trace 1] runs the layer
   ladder instead and prints the per-layer metrics, recording spans
   around every call it makes into the libraries. The last line of
   standard output is one JSON object: correct, attempted, failed,
   metrics. Everything is generated from the seed; the libraries only
   see the generated keys, distributions and op streams. *)

open Lc_prim
module Engine = Lc_parallel.Engine
module Instance = Lc_dict.Instance
module Qdist = Lc_cellprobe.Qdist
module Dictionary = Lc_core.Dictionary
module Epoch = Lc_dynamic.Epoch
module Dynamic = Lc_dynamic.Dynamic
module Opstream = Lc_workload.Opstream
module Keyset = Lc_workload.Keyset

let now_ns = Tracer.now_ns
let since t0 = float_of_int (now_ns () - t0) *. 1e-9
let span = Tracer.span
let count = Tracer.count

(* Progress on standard error, with seconds since start. *)
let t_start = now_ns ()
let progress what = Printf.eprintf "[%7.2fs] %s\n%!" (since t_start) what

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan else if n land 1 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* Allocation seen by [Gc.quick_stat], which folds in the counters of
   domains that have been joined. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* ------------------------------------------------------------------ *)
(* Workloads and their inputs                                          *)
(* ------------------------------------------------------------------ *)

type kind = Lc_read | Fks_zipf_monitor | Lc_dyn_churn

let kinds = [ ("lc-read", Lc_read); ("fks-zipf-monitor", Fks_zipf_monitor); ("lc-dyn-churn", Lc_dyn_churn) ]
let name_of kind = fst (List.find (fun (_, k) -> k = kind) kinds)
let universe = 1 lsl 24

(* Worker domains of the static workloads; lc-dyn-churn runs 1 reader
   beside the builder. *)
let static_domains = 2

(* lc-dyn-churn: preload, working set, ops per timed call. *)
let dyn_preload = 4096
let dyn_working_set = 8192
let dyn_length = 65_536
let publish_every = 64

(* Every timed call serves a structure of its own: the static workloads
   build with a fresh draw on each call, and lc-dyn-churn cycles through
   [dyn_streams] op streams. The structure metrics are means over the
   first [structures] draws or the [dyn_streams] streams, so they do not
   hang on one draw and still repeat exactly for a seed. A dynamic
   structure's level set follows its stream's history, so it takes more
   streams than static builds take draws. *)
let structures = 8
let dyn_streams = 48

(* Queries answered by the output checks. The probe-trace check scans
   every cell per probe step, so its sample shrinks as the table grows
   (4 queries on lc-read, 2000 on fks). *)
let check_queries = 32_768

let spec_check_queries (inst : Instance.t) =
  max 4 (min 2_000 (120_000_000 / (inst.space * inst.max_probes)))

(* A seed-derived stream per input, so adding an input never shifts
   another one. *)
let rng_for seed tag = Rng.create ((seed * 1_000_003) + tag)

type static_in = {
  keys : int array;
  qdist : Qdist.t;
  sample : int array;  (** Query sample: output checks and the ladder loops. *)
}

type stream = {
  ops : Opstream.op array;
  working : int array;  (** Every key the stream or the pool touches, ascending. *)
  model : (int, unit) Hashtbl.t;  (** The live set after the stream. *)
}

let static_inputs kind seed =
  let rng = rng_for seed 1 in
  let n = match kind with Lc_read -> 65_536 | Fks_zipf_monitor | Lc_dyn_churn -> dyn_preload in
  let keys = Keyset.random rng ~universe ~n in
  let qdist =
    match kind with
    | Fks_zipf_monitor -> Qdist.zipf ~skew:1.0 keys
    | Lc_read | Lc_dyn_churn ->
      let neg = Keyset.negatives rng ~universe ~keys ~count:n in
      Qdist.pos_neg ~pos:keys ~neg ~p_pos:0.5
  in
  let srng = rng_for seed 2 in
  let sample = Array.init check_queries (fun _ -> Qdist.sample qdist srng) in
  { keys; qdist; sample }

(* lc-dyn-churn's preloaded keys: the static input's key set for
   lc-dyn-churn. *)
let dyn_pool seed = Keyset.random (rng_for seed 1) ~universe ~n:dyn_preload

(* lc-dyn-churn's stream [i] from [pool], with its working set and the
   live set it leaves: the model every dynamic answer is checked
   against. The static workloads replay stream 0 only in the traced run,
   to time the update path. *)
let dyn_stream seed pool i =
  let ops =
    Opstream.generate
      ~mix:(Opstream.read_write_mix ~read_fraction:0.5)
      ~initial_pool:pool (rng_for seed (300 + i)) ~universe ~length:dyn_length
      ~working_set:dyn_working_set
  in
  let seen = Hashtbl.create (2 * dyn_working_set) and model = Hashtbl.create (2 * dyn_working_set) in
  Array.iter
    (fun k ->
      Hashtbl.replace seen k ();
      Hashtbl.replace model k ())
    pool;
  Array.iter
    (fun op ->
      match op with
      | Opstream.Insert k ->
        Hashtbl.replace seen k ();
        Hashtbl.replace model k ()
      | Opstream.Delete k ->
        Hashtbl.replace seen k ();
        Hashtbl.remove model k
      | Opstream.Query k -> Hashtbl.replace seen k ())
    ops;
  let working = Array.of_seq (Hashtbl.to_seq_keys seen) in
  Array.sort compare working;
  { ops; working; model }

let digest_ints a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter (fun x -> Buffer.add_string b (string_of_int x); Buffer.add_char b ',') a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_qdist q =
  let b = Buffer.create 4096 in
  Array.iter (fun (x, p) -> Buffer.add_string b (Printf.sprintf "%d:%h," x p)) (Qdist.support q);
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_ops ops =
  digest_ints
    (Array.map
       (function
         | Opstream.Insert k -> 3 * k | Opstream.Delete k -> (3 * k) + 1 | Opstream.Query k -> (3 * k) + 2)
       ops)

let static_digests s = [ ("keys", digest_ints s.keys); ("qdist", digest_qdist s.qdist); ("queries", digest_ints s.sample) ]
(* The ops digest covers streams [0, streams), one at a time, so the
   streams are never all in memory at once. *)
let dyn_digests seed pool ~streams =
  let per_stream = List.init streams (fun i -> digest_ops (dyn_stream seed pool i).ops) in
  [ ("pool", digest_ints pool); ("ops", Digest.to_hex (Digest.string (String.concat "," per_stream))) ]

(* The inputs line: the seed and a digest of every input the run uses,
   so two commits run on one seed are shown to receive the same inputs. *)
let print_inputs kind seed digests =
  Printf.printf "inputs workload=%s seed=%d %s\n%!" (name_of kind) seed
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) digests))

(* ------------------------------------------------------------------ *)
(* Outcome accounting                                                  *)
(* ------------------------------------------------------------------ *)

let attempted = ref 0
let failed = ref 0
let notes = ref []

let account ~ops ~bad what =
  attempted := !attempted + ops;
  failed := !failed + bad;
  if bad > 0 then notes := Printf.sprintf "%s: %d of %d failed" what bad ops :: !notes

(* ------------------------------------------------------------------ *)
(* Structures                                                          *)
(* ------------------------------------------------------------------ *)

(* The build randomness of call [k] (hash draws, replica balancing at
   build time). Timed calls [0, 1, ...] each build with their own draw,
   so the structure metrics average over draws instead of hanging on
   one; warm-up calls use [k = -1]. *)
let build_rng seed k = rng_for seed (100 + k)

let build_lc rng keys = Dictionary.build rng ~universe ~keys

let build_static kind rng s =
  match kind with
  | Fks_zipf_monitor -> Lc_dict.Fks.instance (Lc_dict.Fks.build ~replicate:false rng ~universe ~keys:s.keys)
  | Lc_read | Lc_dyn_churn -> Dictionary.instance (build_lc rng s.keys)

let membership keys =
  let t = Hashtbl.create (2 * Array.length keys) in
  Array.iter (fun k -> Hashtbl.replace t k ()) keys;
  t

(* A fresh epoch dictionary holding the pool, published once. *)
let preloaded_epoch rng pool =
  let epoch = Epoch.create rng ~universe () in
  Array.iter (Epoch.insert epoch) pool;
  Epoch.publish epoch;
  epoch

(* The stream's updates on one domain, as the engine's builder applies
   them: a publication after every [publish_every] updates and after the
   last. [batch] wraps each batch with its publication. *)
let replay ?(batch = fun f -> f ()) ops ~step ~publish =
  let updates, _ = Opstream.split ops ~domains:1 in
  let nu = Array.length updates in
  for b = 0 to ((nu + publish_every - 1) / publish_every) - 1 do
    batch (fun () ->
        for i = b * publish_every to min nu ((b + 1) * publish_every) - 1 do
          step updates.(i)
        done;
        publish ())
  done

(* ------------------------------------------------------------------ *)
(* Output checks                                                       *)
(* ------------------------------------------------------------------ *)

(* Answers of [inst] over the query sample against key-set membership
   [member]. *)
let check_answers seed inst s member =
  span "check.answers" @@ fun () ->
  try
    let got = Engine.answer_all ~domains:2 ~seed inst ~queries:s.sample in
    let bad = ref 0 in
    Array.iteri (fun i x -> if got.(i) <> Hashtbl.mem member x then incr bad) s.sample;
    account ~ops:(Array.length s.sample) ~bad:!bad "answer_all vs key set"
  with e ->
    account ~ops:(Array.length s.sample) ~bad:(Array.length s.sample) ("answer_all raised " ^ Printexc.to_string e)

(* Probe traces of [inst] against [spec] on a prefix of the sample. On
   lc-read this takes seconds and hundreds of MiB, so a run makes it once. *)
let check_spec seed inst s =
  span "check.spec" @@ fun () ->
  let nq = spec_check_queries inst in
  match Instance.check_spec_against_mem inst ~rng:(rng_for seed 6) ~queries:(Array.sub s.sample 0 nq) with
  | Ok () -> account ~ops:nq ~bad:0 "spec"
  | Error msg -> account ~ops:nq ~bad:nq ("probe trace vs spec: " ^ msg)

(* Sweep the working set through a fresh reader on the current snapshot,
   checking every answer against [live]. *)
let sweep seed epoch working live what =
  let reader = Epoch.reader epoch (rng_for seed 7) in
  let n = Array.length working in
  try
    let bad = ref 0 in
    Array.iter (fun k -> if Epoch.mem epoch reader k <> Hashtbl.mem live k then incr bad) working;
    account ~ops:n ~bad:!bad what
  with e -> account ~ops:n ~bad:n (what ^ " raised " ^ Printexc.to_string e)

(* After a dynamic run: the live count, a sweep against the model, and
   reclamation. *)
let check_dynamic seed epoch st =
  span "check" @@ fun () ->
  let live = Epoch.live (Epoch.current epoch) in
  account ~ops:1 ~bad:(if live = Hashtbl.length st.model then 0 else 1) "final live count";
  sweep seed epoch st.working st.model "epoch sweep vs model";
  ignore (Epoch.try_reclaim epoch : int);
  account ~ops:1 ~bad:(Epoch.retired_pending epoch) "retired levels left"

(* The contention of a dynamic dictionary's current levels under uniform
   queries over [working], exact (from the levels' probe plans, no
   sampling). Each level is taken on its own: its hottest cell's load
   over the flat load of the probes that reach it (a query probes every
   level from the largest down to the one that holds it; deleted and
   absent keys probe them all). Returns the worst level. Replicas split
   a level's load evenly, so replica 0 stands for the level. Against the
   whole structure's space instead, a level of a few keys that most
   queries probe reads hundreds of times flat, and how much of a run the
   structure spends with such levels varies from seed to seed. *)
let level_contention epoch working =
  let inner = Epoch.inner epoch in
  let views = List.rev (Dynamic.level_views inner) (* largest first *) in
  let hit = Hashtbl.create (2 * dyn_working_set) in
  List.iter
    (fun (v : Dynamic.level_view) ->
      Array.iter (fun k -> if not (Hashtbl.mem hit k) then Hashtbl.replace hit k v.lv_index) v.lv_keys)
    views;
  List.iter (Hashtbl.remove hit) (Dynamic.tombstone_keys inner);
  List.fold_left
    (fun worst (v : Dynamic.level_view) ->
      let reached =
        Array.of_list
          (List.filter
             (fun k -> match Hashtbl.find_opt hit k with None -> true | Some h -> h <= v.lv_index)
             (Array.to_list working))
      in
      if reached = [||] then worst
      else begin
        let dict = v.lv_replicas.(0) in
        let cells = Dictionary.space dict in
        let c =
          Lc_cellprobe.Contention.exact ~cells ~qdist:(Qdist.uniform ~name:"reached" reached)
            ~spec:(Dictionary.spec dict)
        in
        Float.max worst (c.max_total *. float_of_int cells /. c.mean_probes)
      end)
    0.0 views

(* ------------------------------------------------------------------ *)
(* Engine calls                                                        *)
(* ------------------------------------------------------------------ *)

(* What the benchmark keeps of one served call. The outcome itself, with
   its per-cell count array, is dropped at once so that kept results
   do not grow the heap from call to call. *)
type served = {
  serve_s : float;  (** The engine's own serve-phase wall. *)
  queries : int;
  total_probes : int;
  hotspot : float;
  hottest_share : float;
  updates : (int * int) option;  (** Inserts and deletes the builder applied. *)
}

type call = { wall : float; ops : int; served : served option }

(* One [Engine.run] call, timed from outside. A raising call counts all
   its ops as failed and does not stop the benchmark. *)
let engine_call ?(what = "Engine.run") cfg workload ~ops =
  span what @@ fun () ->
  let w0 = alloc_words () in
  let t0 = now_ns () in
  let r = try Ok (Engine.run cfg workload) with e -> Error e in
  let wall = since t0 in
  count "ops" (float_of_int ops);
  count "alloc_words" (alloc_words () -. w0);
  match r with
  | Ok o ->
    let r = o.Engine.result in
    count "probes" (float_of_int r.Engine.total_probes);
    let updates = Option.map (fun u -> (u.Engine.inserts, u.Engine.deletes)) o.Engine.updates in
    let served =
      {
        serve_s = r.Engine.seconds;
        queries = r.Engine.queries;
        total_probes = r.Engine.total_probes;
        hotspot = Engine.hotspot_ratio r;
        hottest_share = r.Engine.hottest_share;
        updates;
      }
    in
    { wall; ops; served = Some served }
  | Error e ->
    account ~ops ~bad:ops ("Engine.run raised " ^ Printexc.to_string e);
    { wall; ops; served = None }

let static_run ?what ?obs ?monitor ~domains ~seed inst qdist ~qpd =
  let cfg = Engine.Config.make ?obs ?monitor ~domains ~seed () in
  engine_call ?what cfg (Engine.Static { inst; qdist; queries_per_domain = qpd }) ~ops:(domains * qpd)

(* A static call's tally must be whole: every query served, each with
   between 1 and [max_probes] probes. *)
let check_tally inst c =
  match c.served with
  | None -> ()
  | Some r ->
    let ok =
      r.queries = c.ops
      && r.total_probes >= r.queries
      && r.total_probes <= r.queries * inst.Instance.max_probes
    in
    account ~ops:c.ops ~bad:(if ok then 0 else c.ops) "engine tally"

(* One dynamic call: a fresh preloaded epoch (set-up, timed on its own),
   [Engine.run] over stream [st], then the output checks. Returns the
   set-up time, the call and the epoch as the call left it. *)
let dynamic_run seed ~k pool (st : stream) =
  Gc.full_major ();
  let t0 = now_ns () in
  let epoch = preloaded_epoch (build_rng seed k) pool in
  let setup = since t0 in
  let cfg = Engine.Config.make ~domains:1 ~seed () in
  let c = engine_call cfg (Engine.Dynamic { epoch; ops = st.ops; publish_every }) ~ops:(Array.length st.ops) in
  (match c.served with
  | Some { updates = Some (ins', del'); queries; _ } ->
    let ins, del, q = Opstream.counts st.ops in
    let ok = ins' = ins && del' = del && queries = q in
    account ~ops:(ins + del) ~bad:(if ok then 0 else ins + del) "builder update counts"
  | _ -> ());
  check_dynamic seed epoch st;
  (setup, c, epoch)

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

(* Peak resident set size of the process (VmHWM), MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> find ()
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) find

(* One timed call and its set-up time. *)
type sample = { setup : float; call : call }

(* Calls [f k] until [seconds] of serving have been measured, and at
   least [min_calls] calls. Untimed warm-up calls come first, for 2 s:
   the first calls of a process run slower while the heap grows. Each
   call brings its own set-up, timed apart from the call and after a
   full major GC, so set-up and serving are sampled over the same
   stretch of the run. *)
let timed_loop ~seconds ~min_calls f =
  let warm = ref 0.0 in
  while !warm < 2.0 do
    warm := !warm +. (f (-1)).call.wall
  done;
  progress "warm-up done";
  let samples = ref [] and spent = ref 0.0 and k = ref 0 in
  while !spent < seconds || !k < min_calls do
    let x = f !k in
    spent := !spent +. x.call.wall;
    samples := x :: !samples;
    incr k
  done;
  progress "timed calls done";
  List.rev !samples

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* A static workload: each call builds its structure (plus the monitor
   on fks-zipf-monitor) and serves [qpd] queries per domain, fixed so a
   given seed always serves the same batches. Every build's answers are
   checked, outside the timed wall. *)
let static_end_to_end kind ~qpd seed seconds =
  let s = static_inputs kind seed in
  print_inputs kind seed (static_digests s);
  let member = membership s.keys in
  let structure = ref [] and last = ref None in
  let serve k =
    Gc.full_major ();
    let t0 = now_ns () in
    let inst = build_static kind (build_rng seed k) s in
    let monitor =
      if kind = Fks_zipf_monitor then Some (Engine.Monitor.create ~domains:static_domains inst) else None
    in
    let setup = since t0 in
    let call = static_run ?monitor ~domains:static_domains ~seed inst s.qdist ~qpd in
    check_tally inst call;
    check_answers seed inst s member;
    last := Some inst;
    (match call.served with
    | Some r when k >= 0 && k < structures ->
      structure := (r.hotspot, float_of_int inst.Instance.space /. float_of_int (Array.length s.keys)) :: !structure
    | _ -> ());
    { setup; call }
  in
  let samples = timed_loop ~seconds ~min_calls:structures serve in
  let peak = peak_rss_mb () in
  Option.iter (fun inst -> check_spec seed inst s) !last;
  (samples, peak, mean (List.map fst !structure), mean (List.map snd !structure))

(* lc-dyn-churn: call [k] serves stream [k mod dyn_streams] (warm-up
   calls stream 0). The structure metrics are taken on the churned
   levels that each of the first [dyn_streams] timed calls leaves behind,
   outside the timed wall: they follow the structure the workload serves
   without hanging on one stream's history. *)
let dynamic_end_to_end seed seconds =
  let pool = dyn_pool seed in
  print_inputs Lc_dyn_churn seed (dyn_digests seed pool ~streams:dyn_streams);
  let structure = ref [] in
  let samples =
    timed_loop ~seconds ~min_calls:dyn_streams (fun k ->
        let st = dyn_stream seed pool (max 0 k mod dyn_streams) in
        let setup, call, epoch = dynamic_run seed ~k pool st in
        if k >= 0 && k < dyn_streams && call.served <> None then begin
          let snap = Epoch.current epoch in
          let cells = float_of_int (Epoch.space snap) /. float_of_int (max 1 (Epoch.live snap)) in
          structure := (level_contention epoch st.working, cells) :: !structure
        end;
        { setup; call })
  in
  (samples, peak_rss_mb (), mean (List.map fst !structure), mean (List.map snd !structure))

(* A call serves 2 x 65,536 queries on lc-read and 2 x 250,000 on
   fks-zipf-monitor, 0.3 to 0.8 s, so a run's median is taken over tens
   of calls. *)
let end_to_end kind seed seconds =
  let samples, peak, hotspot, cells_per_key =
    match kind with
    | Lc_read -> static_end_to_end kind ~qpd:65_536 seed seconds
    | Fks_zipf_monitor -> static_end_to_end kind ~qpd:250_000 seed seconds
    | Lc_dyn_churn -> dynamic_end_to_end seed seconds
  in
  let ops_per_s =
    List.filter_map (fun x -> Option.map (fun _ -> float_of_int x.call.ops /. x.call.wall) x.call.served) samples
  in
  ( List.map (fun x -> x.call) samples,
    [
      ("ops_per_s", median ops_per_s, "ops/s");
      ("setup_s", median (List.map (fun x -> x.setup) samples), "s");
      ("hotspot_ratio", hotspot, "x");
      ("cells_per_key", cells_per_key, "cells/key");
      ("peak_rss_mb", peak, "MiB");
    ] )

(* ------------------------------------------------------------------ *)
(* Traced run: the layer ladder                                        *)
(* ------------------------------------------------------------------ *)

(* Repeat [pass] (which does [per_pass] operations) until [secs] have
   passed; ns per operation and words allocated per operation. *)
let timed_passes ~secs ~per_pass pass =
  let w0 = Gc.minor_words () in
  let t0 = now_ns () in
  let n = ref 0 in
  while !n = 0 || since t0 < secs do
    pass ();
    n := !n + per_pass
  done;
  let ns = float_of_int (now_ns () - t0) /. float_of_int !n in
  let words = (Gc.minor_words () -. w0) /. float_of_int !n in
  count "ops" (float_of_int !n);
  count "minor_words" (words *. float_of_int !n);
  (ns, words)

(* Queries per timed call of the Engine rungs, fixed per workload so the
   tally-derived metrics are exact for a seed. *)
let rung_queries = function Lc_read -> 32_768 | Fks_zipf_monitor -> 400_000 | Lc_dyn_churn -> 131_072

let traced kind seed seconds =
  let s = static_inputs kind seed in
  let pool = dyn_pool seed in
  let st = dyn_stream seed pool 0 in
  print_inputs kind seed (static_digests s @ dyn_digests seed pool ~streams:1);
  let metrics = ref [] in
  let put name unit v = metrics := (name, v, unit) :: !metrics in
  (* Core layer: the lc build over the workload's keys. *)
  let t0 = now_ns () in
  let lc = span "core.build" (fun () -> build_lc (build_rng seed 0) s.keys) in
  put "core.build_s" "s" (since t0);
  put "core.build_trials" "count" (float_of_int (Dictionary.build_trials lc));
  let inst =
    match kind with
    | Fks_zipf_monitor -> span "fks.build" (fun () -> build_static kind (build_rng seed 0) s)
    | Lc_read | Lc_dyn_churn -> Dictionary.instance lc
  in
  let member = membership s.keys in
  let expected = Array.map (Hashtbl.mem member) s.sample in
  let n = Array.length s.sample in
  (* Warm the process with the workload's own entry point. *)
  (match kind with
  | Lc_dyn_churn -> ignore (span "warmup" (fun () -> dynamic_run seed ~k:(-1) pool st))
  | Lc_read | Fks_zipf_monitor ->
    ignore (span "warmup" (fun () -> static_run ~domains:2 ~seed inst s.qdist ~qpd:(rung_queries kind / 4))));
  let slice f = seconds *. f in
  (* L0: the query algorithm alone; L1: plus the per-cell tally. *)
  let loop name inst' =
    let mem = inst'.Instance.mem and rng = rng_for seed 8 in
    span name @@ fun () ->
    let bad = ref 0 in
    let r =
      timed_passes ~secs:(slice 0.1) ~per_pass:n (fun () ->
          Array.iteri (fun i x -> if mem rng x <> expected.(i) then incr bad) s.sample)
    in
    account ~ops:n ~bad:(min n !bad) (name ^ " answers");
    r
  in
  let l0_ns, l0_words = loop "dict.L0" (Instance.uninstrumented inst) in
  let l1_ns, _ = loop "dict.L1" (Instance.atomic inst) in
  put "dict.mem_ns" "ns" l0_ns;
  put "dict.alloc_words_per_query" "words" l0_words;
  put "dict.tally_overhead_ns" "ns" (l1_ns -. l0_ns);
  put "dict.probes_per_query" "probes"
    (span "dict.spec" (fun () ->
         float_of_int (Array.fold_left (fun a x -> a + Array.length (inst.Instance.spec x)) 0 s.sample)
         /. float_of_int n));
  (* Primitive layers on the workload's inputs. *)
  let rng = rng_for seed 9 in
  let rng_ns, _ =
    span "prim.rng" (fun () ->
        timed_passes ~secs:(slice 0.03) ~per_pass:n (fun () ->
            for _ = 1 to n do ignore (Rng.int rng universe : int) done))
  in
  put "prim.rng_int_ns" "ns" rng_ns;
  let p = Dictionary.params lc in
  let h =
    Lc_hash.Dm_family.create rng ~d:p.Lc_core.Params.d ~p:p.Lc_core.Params.p ~r:p.Lc_core.Params.r
      ~m:p.Lc_core.Params.m
  in
  let dm_ns, _ =
    span "hash.dm" (fun () ->
        timed_passes ~secs:(slice 0.03) ~per_pass:n (fun () ->
            Array.iter (fun x -> ignore (Lc_hash.Dm_family.eval h x : int)) s.sample))
  in
  put "hash.dm_eval_ns" "ns" dm_ns;
  let sample_ns, _ =
    span "cellprobe.sample" (fun () ->
        timed_passes ~secs:(slice 0.03) ~per_pass:n (fun () ->
            for _ = 1 to n do ignore (Qdist.sample s.qdist rng : int) done))
  in
  put "cellprobe.sample_ns" "ns" sample_ns;
  (* L2..L4: Engine.run without telemetry at 1 and 2 domains, with obs
     shards, with the live monitor; interleaved in rounds. The last rung
     repeats L2 at 2 domains outside any span, for the tracing cost. *)
  let q = rung_queries kind in
  let rungs =
    [|
      (fun () -> static_run ~what:"parallel.L2.1d" ~domains:1 ~seed inst s.qdist ~qpd:q);
      (fun () -> static_run ~what:"parallel.L2.2d" ~domains:2 ~seed inst s.qdist ~qpd:(q / 2));
      (fun () ->
        static_run ~what:"obs.L3" ~obs:(Lc_obs.Obs.create ()) ~domains:2 ~seed inst s.qdist ~qpd:(q / 2));
      (fun () ->
        let monitor = Engine.Monitor.create ~domains:2 inst in
        static_run ~what:"obs.L4" ~monitor ~domains:2 ~seed inst s.qdist ~qpd:(q / 2));
      (fun () ->
        Tracer.enabled := false;
        Fun.protect
          ~finally:(fun () -> Tracer.enabled := true)
          (fun () -> static_run ~domains:2 ~seed inst s.qdist ~qpd:(q / 2)));
    |]
  in
  let results = Array.map (fun _ -> ref []) rungs in
  let t_rungs = now_ns () in
  span "engine.rungs" (fun () ->
      while since t_rungs < slice 0.55 || List.length !(results.(0)) < 2 do
        Array.iteri
          (fun i f ->
            Gc.full_major ();
            let c = f () in
            check_tally inst c;
            results.(i) := c :: !(results.(i)))
          rungs
      done);
  let ok i = List.filter (fun c -> c.served <> None) !(results.(i)) in
  let ns_per_query i = median (List.map (fun c -> c.wall *. 1e9 /. float_of_int c.ops) (ok i)) in
  let ns1 = ns_per_query 0 and ns2 = ns_per_query 1 and ns3 = ns_per_query 2 and ns4 = ns_per_query 3 in
  put "parallel.ns_per_query_1d" "ns" ns1;
  put "parallel.ns_per_query_2d" "ns" ns2;
  put "parallel.scaling_2v1" "x" (ns1 /. ns2);
  put "parallel.orchestration_share" "fraction"
    (median (List.filter_map (fun c -> Option.map (fun r -> 1.0 -. (r.serve_s /. c.wall)) c.served) (ok 1)));
  let alloc_2d =
    (* Re-measure one L2 call's allocation outside the span recorder. *)
    let w0 = alloc_words () in
    ignore (static_run ~domains:2 ~seed inst s.qdist ~qpd:(q / 2) : call);
    (alloc_words () -. w0) /. float_of_int q
  in
  put "parallel.alloc_words_per_query" "words" alloc_2d;
  put "parallel.hottest_share" "fraction"
    (Option.fold ~none:nan ~some:(fun r -> r.hottest_share) (List.find_map (fun c -> c.served) (ok 1)));
  put "obs.shards_overhead_ns" "ns" (ns3 -. ns2);
  put "obs.monitor_overhead_ns" "ns" (ns4 -. ns3);
  put "trace.overhead_share" "fraction" ((ns2 /. ns_per_query 4) -. 1.0);
  (* The update path: stream 0's updates replayed on one domain through
     the builder-side entry points. *)
  let epoch = span "dynamic.preload" (fun () -> preloaded_epoch (build_rng seed 0) pool) in
  let inner = Epoch.inner epoch in
  let cw0 = Dynamic.cells_written inner and rb0 = Dynamic.rebuilds inner in
  let ins_ns = ref 0 and ins = ref 0 and del_ns = ref 0 and del = ref 0 in
  let pub_ns = ref 0 and pubs = ref 0 and rec_ns = ref 0 in
  let step op =
    let t0 = now_ns () in
    match op with
    | Opstream.Insert k ->
      Epoch.insert epoch k;
      ins_ns := !ins_ns + (now_ns () - t0);
      incr ins
    | Opstream.Delete k ->
      Epoch.delete epoch k;
      del_ns := !del_ns + (now_ns () - t0);
      incr del
    | Opstream.Query _ -> ()
  in
  let publish () =
    let t0 = now_ns () in
    span "dynamic.publish" (fun () -> Epoch.publish epoch);
    let t1 = now_ns () in
    span "dynamic.reclaim" (fun () -> ignore (Epoch.try_reclaim epoch : int));
    pub_ns := !pub_ns + (t1 - t0);
    rec_ns := !rec_ns + (now_ns () - t1);
    incr pubs
  in
  (* One span per publication batch, closed by its publish. *)
  let batch f =
    span "dynamic.batch" (fun () ->
        let c0 = Dynamic.cells_written inner in
        f ();
        count "cells_written" (float_of_int (Dynamic.cells_written inner - c0)))
  in
  span "dynamic.replay" (fun () -> replay st.ops ~batch ~step ~publish);
  let nu = float_of_int (max 1 (!ins + !del)) in
  put "dynamic.insert_us" "us" (float_of_int !ins_ns /. float_of_int (max 1 !ins) /. 1e3);
  put "dynamic.delete_us" "us" (float_of_int !del_ns /. float_of_int (max 1 !del) /. 1e3);
  put "dynamic.publish_us" "us" (float_of_int !pub_ns /. float_of_int (max 1 !pubs) /. 1e3);
  put "dynamic.reclaim_us" "us" (float_of_int !rec_ns /. float_of_int (max 1 !pubs) /. 1e3);
  put "dynamic.cells_written_per_update" "cells" (float_of_int (Dynamic.cells_written inner - cw0) /. nu);
  put "dynamic.rebuilds_per_update" "count" (float_of_int (Dynamic.rebuilds inner - rb0) /. nu);
  put "dynamic.levels" "count" (float_of_int (List.length (Dynamic.level_sizes inner)));
  let reader = Epoch.reader epoch (rng_for seed 10) in
  let bad = ref 0 in
  let mem_ns, _ =
    span "dynamic.epoch_mem" (fun () ->
        timed_passes ~secs:(slice 0.1) ~per_pass:(Array.length st.working) (fun () ->
            Array.iter (fun k -> if Epoch.mem epoch reader k <> Hashtbl.mem st.model k then incr bad) st.working))
  in
  account ~ops:(Array.length st.working) ~bad:(min !bad (Array.length st.working)) "replayed epoch vs model";
  put "dynamic.epoch_mem_ns" "ns" mem_ns;
  put "dynamic.retired_pending" "count" (float_of_int (Epoch.retired_pending epoch));
  account ~ops:1 ~bad:(Epoch.retired_pending epoch) "retired levels left after replay";
  check_answers seed inst s member;
  check_spec seed inst s;
  List.rev !metrics

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 and spans_out = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " lc-read | fks-zipf-monitor | lc-dyn-churn");
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " measured seconds");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics, 1: traced layer ladder");
      ("--spans", Arg.Set_string spans_out, " span file written by a traced run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  let kind =
    match List.assoc_opt !workload kinds with
    | Some k -> k
    | None ->
      prerr_endline ("unknown workload " ^ !workload);
      exit 2
  in
  let metrics =
    if !trace = 0 then begin
      let calls, m = end_to_end kind !seed !seconds in
      Printf.printf "timed calls=%d ops=%d wall_s=%.3f ops_per_s=[%s]\n" (List.length calls)
        (List.fold_left (fun a c -> a + c.ops) 0 calls)
        (List.fold_left (fun a c -> a +. c.wall) 0.0 calls)
        (String.concat " " (List.map (fun c -> Printf.sprintf "%.4g" (float_of_int c.ops /. c.wall)) calls));
      m
    end
    else begin
      Tracer.enabled := true;
      let m = span "run" (fun () -> traced kind !seed !seconds) in
      if !spans_out <> "" then Tracer.write !spans_out;
      List.iter
        (fun (name, calls, self) -> Printf.printf "span %-24s calls=%-6d self_s=%.4f\n" name calls (float_of_int self *. 1e-9))
        (Tracer.self_by_name ());
      m
    end
  in
  let error_rate = float_of_int !failed /. float_of_int (max 1 !attempted) in
  List.iter (fun (name, v, unit) -> Printf.printf "%-34s %.6g %s\n" name v unit) metrics;
  Printf.printf "%-34s %.6g fraction (%d of %d ops failed)\n" "error_rate" error_rate !failed !attempted;
  List.iter (fun n -> Printf.printf "FAILED %s\n" n) (List.rev !notes);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!failed = 0) !attempted !failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            (* A metric with no measurement (every call failed) is null. *)
            let v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name v unit)
          metrics))
