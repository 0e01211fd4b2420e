(* Scaling artifacts: one structure swept across domain counts, fitted
   to the Universal Scalability Law. The sweep driver reuses the perf
   suite's reproducibility discipline — one seed pins keys, build and
   batches; every trial reconciles telemetry against the engine result
   — and adds the scaling observatory's own invariant: each worker's
   phase attribution must sum exactly to its batch wall time, or the
   sweep refuses to fit anything. The decoded artifact is held to the
   same standard: its summary is recomputed from its points, so a
   tampered headline fails validation instead of being believed. *)

module Codec = Lc_obs.Codec
module Window = Lc_obs.Window
module Metrics = Lc_obs.Metrics
module Engine = Lc_parallel.Engine
module Rng = Lc_prim.Rng
module Stats = Lc_analysis.Stats
module Usl = Lc_analysis.Usl

let schema_name = "lowcon-scaling"
let schema_version = 1

type phase_totals = Engine.phase_totals = {
  probe_ns : int;
  tally_ns : int;
  publish_ns : int;
  pin_ns : int;
  other_ns : int;
  wall_ns : int;
  idle_ns : int;
}

type gc_totals = {
  minor_words : int;
  promoted_words : int;
  major_words : int;
  minor_words_per_query : float;
}

type point = {
  p_domains : int;
  p_trials : int;
  throughput : Artifact.ci;
  p_ns_per_query : float;
  p_phases : phase_totals;
  p_gc : gc_totals;
  p_queries : int;
}

type summary = {
  s_points : int;
  s_peak_qps : float;
  s_peak_domains : int;
  s_sigma : float option;
  s_kappa : float option;
}

type t = {
  fingerprint : Artifact.fingerprint;
  structure : string;
  workload : string;
  queries_per_domain : int;
  trials : int;
  points : point list;
  fit : Usl.fit option;
  fit_error : string option;
  summary : summary;
}

type spec = {
  structure : string;
  workload : string;
  domain_counts : int list;
  queries_per_domain : int;
  trials : int;
  n : int;
}

(* ---------------- the sweep driver ---------------- *)

let validate_spec s =
  if s.domain_counts = [] then invalid_arg "Scaling.run: empty domain_counts";
  if s.trials < 1 then invalid_arg "Scaling.run: trials must be >= 1";
  if s.queries_per_domain < 1 then invalid_arg "Scaling.run: queries_per_domain must be >= 1";
  if s.n < 1 then invalid_arg "Scaling.run: n must be >= 1";
  let rec check = function
    | [] -> ()
    | d :: _ when d < 1 -> invalid_arg "Scaling.run: domains must be >= 1"
    | d :: d' :: _ when d' <= d ->
      invalid_arg "Scaling.run: domain_counts must be ascending and distinct"
    | _ :: rest -> check rest
  in
  check s.domain_counts

(* Same universe derivation as Suite and the CLI. *)
let universe_for n = min (max (16 * n) (n * n)) (1 lsl 28)

(* Frozen seed arithmetic, disjoint from Suite's combo stream: the
   sweep's instance/workload seed and per-(domains, trial) batch seeds
   derive from --seed by fixed multipliers. *)
let combo_seed ~seed = seed + 7919
let trial_seed ~seed ~domains t = seed + (1013 * domains) + (257 * (t + 1))

let zero_phases =
  { probe_ns = 0; tally_ns = 0; publish_ns = 0; pin_ns = 0; other_ns = 0; wall_ns = 0; idle_ns = 0 }

let add_phases a b =
  {
    probe_ns = a.probe_ns + b.probe_ns;
    tally_ns = a.tally_ns + b.tally_ns;
    publish_ns = a.publish_ns + b.publish_ns;
    pin_ns = a.pin_ns + b.pin_ns;
    other_ns = a.other_ns + b.other_ns;
    wall_ns = a.wall_ns + b.wall_ns;
    idle_ns = a.idle_ns + b.idle_ns;
  }

let counter snap name =
  match Metrics.Snapshot.counter_value snap name with
  | Some v -> v
  | None -> failwith (Printf.sprintf "Scaling.run: counter %s missing from snapshot" name)

(* The attribution invariant the artifact stands on: every worker's
   five in-wall phases sum exactly to its batch wall time. *)
let check_phases (phases : Engine.phase_stats array) =
  Array.iter
    (fun (ph : Engine.phase_stats) ->
      let parts =
        ph.Engine.ph_probe_ns + ph.Engine.ph_tally_ns + ph.Engine.ph_publish_ns
        + ph.Engine.ph_pin_ns + ph.Engine.ph_other_ns
      in
      if parts <> ph.Engine.ph_wall_ns then
        failwith
          (Printf.sprintf
             "Scaling.run: worker %d phases sum to %d ns but wall is %d ns — attribution \
              does not reconcile" ph.Engine.ph_domain parts ph.Engine.ph_wall_ns))
    phases

let run_trial ~inst ~qd ~queries_per_domain ~domains ~seed =
  let obs = Lc_obs.Obs.create () in
  let cfg = Engine.Config.make ~obs ~domains ~seed () in
  let o = Engine.run cfg (Engine.Static { inst; qdist = qd; queries_per_domain }) in
  let r = o.Engine.result in
  let phases =
    match o.Engine.phases with
    | Some p -> p
    | None -> failwith "Scaling.run: instrumented run carried no phase accounting"
  in
  check_phases phases;
  let snap = Lc_obs.Obs.snapshot obs in
  let q = counter snap "engine_queries_total" in
  if q <> r.Engine.queries then
    failwith
      (Printf.sprintf "Scaling.run: engine_queries_total %d <> result queries %d — telemetry \
                       does not reconcile" q r.Engine.queries);
  let sum f = Array.fold_left (fun a ph -> a + f ph) 0 phases in
  let gcn = Engine.gc_metric_names in
  ( r,
    {
      probe_ns = sum (fun ph -> ph.Engine.ph_probe_ns);
      tally_ns = sum (fun ph -> ph.Engine.ph_tally_ns);
      publish_ns = sum (fun ph -> ph.Engine.ph_publish_ns);
      pin_ns = sum (fun ph -> ph.Engine.ph_pin_ns);
      other_ns = sum (fun ph -> ph.Engine.ph_other_ns);
      wall_ns = sum (fun ph -> ph.Engine.ph_wall_ns);
      idle_ns = sum (fun ph -> ph.Engine.ph_idle_ns);
    },
    ( counter snap gcn.Window.minor_words_counter,
      counter snap gcn.Window.promoted_words_counter,
      counter snap gcn.Window.major_words_counter ) )

let summary_of ~points ~(fit : Usl.fit option) =
  let s_peak_qps, s_peak_domains =
    List.fold_left
      (fun (bq, bd) p ->
        if p.throughput.Artifact.mean > bq then (p.throughput.Artifact.mean, p.p_domains)
        else (bq, bd))
      (neg_infinity, 0) points
  in
  {
    s_points = List.length points;
    s_peak_qps;
    s_peak_domains;
    s_sigma = Option.map (fun (f : Usl.fit) -> f.Usl.sigma) fit;
    s_kappa = Option.map (fun (f : Usl.fit) -> f.Usl.kappa) fit;
  }

let run ?(progress = fun (_ : string) -> ()) ~seed spec =
  validate_spec spec;
  let universe = universe_for spec.n in
  let rng = Rng.create (combo_seed ~seed) in
  (* One instance and one query distribution for the whole sweep:
     throughput(n) must vary only in n. *)
  let keys = Lc_workload.Keyset.random rng ~universe ~n:spec.n in
  let inst = Select.structure rng ~universe ~keys spec.structure in
  let qd = Select.workload rng ~universe ~keys spec.workload in
  let boot_rng = Rng.create (seed lxor 0x5ca1e) in
  let ci_of samples =
    let arr = Array.of_list samples in
    let lo, hi = Stats.bootstrap_ci ~rng:boot_rng arr in
    { Artifact.mean = Stats.mean arr; lo; hi; samples }
  in
  let points =
    List.map
      (fun d ->
        progress
          (Printf.sprintf "%s / %s / %d domains (%d trials)" spec.structure spec.workload d
             spec.trials);
        let outs =
          List.init spec.trials (fun t ->
              run_trial ~inst ~qd ~queries_per_domain:spec.queries_per_domain ~domains:d
                ~seed:(trial_seed ~seed ~domains:d t))
        in
        let pick f = List.map f outs in
        let p_queries = List.fold_left (fun a (r, _, _) -> a + r.Engine.queries) 0 outs in
        let p_phases =
          List.fold_left (fun a (_, p, _) -> add_phases a p) zero_phases outs
        in
        let gsum f = List.fold_left (fun a (_, _, g) -> a + f g) 0 outs in
        let minor_words = gsum (fun (m, _, _) -> m) in
        {
          p_domains = d;
          p_trials = spec.trials;
          throughput = ci_of (pick (fun (r, _, _) -> r.Engine.throughput));
          p_ns_per_query =
            Stats.mean
              (Array.of_list
                 (pick (fun (r, _, _) ->
                      r.Engine.seconds *. 1e9 /. float_of_int r.Engine.queries)));
          p_phases;
          p_gc =
            {
              minor_words;
              promoted_words = gsum (fun (_, p, _) -> p);
              major_words = gsum (fun (_, _, m) -> m);
              minor_words_per_query = float_of_int minor_words /. float_of_int p_queries;
            };
          p_queries;
        })
      spec.domain_counts
  in
  let fit, fit_error =
    match Usl.fit (List.map (fun p -> (p.p_domains, p.throughput.Artifact.mean)) points) with
    | Ok f -> (Some f, None)
    | Error e -> (None, Some e)
  in
  {
    fingerprint = Artifact.fingerprint ~seed;
    structure = spec.structure;
    workload = spec.workload;
    queries_per_domain = spec.queries_per_domain;
    trials = spec.trials;
    points;
    fit;
    fit_error;
    summary = summary_of ~points ~fit;
  }

(* ---------------- the lowcon-scaling description ---------------- *)

let gc_codec =
  Codec.record
    (fun minor_words promoted_words major_words minor_words_per_query ->
      { minor_words; promoted_words; major_words; minor_words_per_query })
    Codec.
      [
        req "minor_words" int (fun g -> g.minor_words);
        req "promoted_words" int (fun g -> g.promoted_words);
        req "major_words" int (fun g -> g.major_words);
        req "minor_words_per_query" float (fun g -> g.minor_words_per_query);
      ]

let point_codec =
  Codec.record
    (fun p_domains p_trials throughput p_ns_per_query p_phases p_gc p_queries ->
      if p_domains < 1 then Codec.fail "domains must be >= 1";
      if p_trials < 1 then Codec.fail "trials must be >= 1";
      { p_domains; p_trials; throughput; p_ns_per_query; p_phases; p_gc; p_queries })
    Codec.
      [
        req "domains" int (fun p -> p.p_domains);
        req "trials" int (fun p -> p.p_trials);
        req "throughput" Artifact.ci_codec (fun p -> p.throughput);
        req "ns_per_query" float (fun p -> p.p_ns_per_query);
        req "phases" Engine.phase_totals_codec (fun p -> p.p_phases);
        req "gc" gc_codec (fun p -> p.p_gc);
        req "queries" int (fun p -> p.p_queries);
      ]

let rec ascending = function
  | a :: (b :: _ as rest) ->
    if b.p_domains <= a.p_domains then Error "domain counts must be ascending and distinct"
    else ascending rest
  | [ _ ] -> Ok ()
  | [] -> Error "must be non-empty"

let fit_codec =
  Codec.record
    (fun lambda sigma kappa r2 ->
      if lambda <= 0.0 then Codec.fail "fit lambda must be positive";
      if sigma < 0.0 || kappa < 0.0 then Codec.fail "fit sigma/kappa must be non-negative";
      { Usl.lambda; sigma; kappa; r2 })
    Codec.
      [
        req "lambda" float (fun f -> f.Usl.lambda);
        req "sigma" float (fun f -> f.Usl.sigma);
        req "kappa" float (fun f -> f.Usl.kappa);
        req "r2" float (fun f -> f.Usl.r2);
      ]

let summary_codec =
  Codec.record
    (fun s_points s_peak_qps s_peak_domains s_sigma s_kappa ->
      { s_points; s_peak_qps; s_peak_domains; s_sigma; s_kappa })
    Codec.
      [
        req "points" int (fun s -> s.s_points);
        req "peak_qps" float (fun s -> s.s_peak_qps);
        req "peak_domains" int (fun s -> s.s_peak_domains);
        opt "sigma" float (fun s -> s.s_sigma);
        opt "kappa" float (fun s -> s.s_kappa);
      ]

(* Tamper detection: the summary is derived data, so a decoded document
   must agree with a recomputation from its own points. Float fields get
   a tiny relative tolerance for the JSON round-trip. *)
let close a b =
  a = b || Float.abs (a -. b) <= 1e-9 *. Float.max (Float.abs a) (Float.abs b)

let close_opt a b =
  match (a, b) with Some a, Some b -> close a b | None, None -> true | _ -> false

let check_summary ~stored ~computed =
  if
    stored.s_points <> computed.s_points
    || stored.s_peak_domains <> computed.s_peak_domains
    || not (close stored.s_peak_qps computed.s_peak_qps)
    || not (close_opt stored.s_sigma computed.s_sigma)
    || not (close_opt stored.s_kappa computed.s_kappa)
  then Codec.fail "summary does not match a recomputation from points — tampered or corrupt"

(* [spec] shares field names with [t]; this name disambiguates getters. *)
type sweep = t

let codec =
  Codec.document ~schema:schema_name ~version:schema_version
    ~describe:(fun (t : t) ->
      Printf.sprintf "%s/%s, %d point(s), %s" t.structure t.workload (List.length t.points)
        (match t.fit with
        | Some f -> Printf.sprintf "sigma %.4f kappa %.6f" f.Usl.sigma f.Usl.kappa
        | None -> "no fit"))
    (Codec.record
       (fun fingerprint structure workload queries_per_domain trials points fit fit_error summary ->
         (match (fit, fit_error) with
         | Some _, Some _ -> Codec.fail "both fit and fit_error present — exactly one is allowed"
         | None, None -> Codec.fail "neither fit nor fit_error present — exactly one is required"
         | _ -> ());
         check_summary ~stored:summary ~computed:(summary_of ~points ~fit);
         {
           fingerprint;
           structure;
           workload;
           queries_per_domain;
           trials;
           points;
           fit;
           fit_error;
           summary;
         })
       Codec.
         [
           req "fingerprint" Artifact.fingerprint_codec (fun (t : sweep) -> t.fingerprint);
           req "structure" string (fun (t : sweep) -> t.structure);
           req "workload" string (fun (t : sweep) -> t.workload);
           req "queries_per_domain" int (fun (t : sweep) -> t.queries_per_domain);
           req "trials" int (fun (t : sweep) -> t.trials);
           req "points" (check ascending (list point_codec)) (fun t -> t.points);
           opt "fit" fit_codec (fun t -> t.fit);
           opt "fit_error" string (fun t -> t.fit_error);
           req "summary" summary_codec (fun t -> t.summary);
         ])

let to_json = Codec.to_json codec
let to_string = Codec.to_string ~what:"Scaling.to_string" codec
let write ~path t = Lc_obs.Export.write_file ~path (to_string t)
let of_json = Codec.of_json codec
let of_string = Codec.of_string codec
let load = Codec.load codec

(* ---------------- rendering ---------------- *)

let render (t : t) =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    (Printf.sprintf "scaling observatory: %s / %s (%d trials x %d queries/domain)\n" t.structure
       t.workload t.trials t.queries_per_domain);
  Buffer.add_string b
    (Printf.sprintf "%8s %12s %10s %7s %7s %8s %6s %7s %7s %9s\n" "domains" "qps" "ns/query"
       "probe%" "tally%" "publish%" "pin%" "other%" "idle%" "alloc/q");
  List.iter
    (fun p ->
      let share x =
        if p.p_phases.wall_ns = 0 then 0.0
        else 100.0 *. float_of_int x /. float_of_int p.p_phases.wall_ns
      in
      Buffer.add_string b
        (Printf.sprintf "%8d %12.0f %10.1f %7.1f %7.1f %8.1f %6.1f %7.1f %7.1f %9.2f\n"
           p.p_domains p.throughput.Artifact.mean p.p_ns_per_query
           (share p.p_phases.probe_ns) (share p.p_phases.tally_ns)
           (share p.p_phases.publish_ns) (share p.p_phases.pin_ns)
           (share p.p_phases.other_ns) (share p.p_phases.idle_ns)
           p.p_gc.minor_words_per_query))
    t.points;
  (match (t.fit, t.fit_error) with
  | Some f, _ ->
    Buffer.add_string b
      (Printf.sprintf "USL fit: lambda=%.0f qps/domain  sigma=%.4f  kappa=%.6f  r2=%.4f\n"
         f.Usl.lambda f.Usl.sigma f.Usl.kappa f.Usl.r2);
    (match Usl.peak f with
    | Some n -> Buffer.add_string b (Printf.sprintf "predicted peak near %.1f domains\n" n)
    | None -> Buffer.add_string b "fitted curve is monotone (no interior peak)\n")
  | None, Some e -> Buffer.add_string b (Printf.sprintf "USL fit rejected: %s\n" e)
  | None, None -> ());
  Buffer.contents b
