module Rng = Lc_prim.Rng
module Table = Lc_cellprobe.Table
module Qdist = Lc_cellprobe.Qdist
module Instance = Lc_dict.Instance
module Metrics = Lc_obs.Metrics
module Span = Lc_obs.Span
module Window = Lc_obs.Window
module Heavy = Lc_obs.Heavy
module Http = Lc_obs.Http
module Journal = Lc_obs.Journal
module Epoch = Lc_dynamic.Epoch
module Dynamic = Lc_dynamic.Dynamic
module Opstream = Lc_workload.Opstream
module Coheat = Lc_analysis.Coheat

type cost = Free | Spinlock of { hold : int }

type result = {
  name : string;
  domains : int;
  queries : int;
  seconds : float;
  throughput : float;
  total_probes : int;
  counts : int array;
  hottest_cell : int;
  hottest_count : int;
  hottest_share : float;
  flat_bound : float;
}

let make_locks ~cost ~space =
  match cost with
  | Free -> [||]
  | Spinlock { hold } ->
    if hold < 0 then invalid_arg "Engine: Spinlock hold must be >= 0";
    Array.init space (fun _ -> Atomic.make false)

(* Sampled per-probe latency: timing every probe with two gettimeofday
   calls would dominate a ~nanosecond table read, so measure 1 probe in
   [probe_sample_mask + 1]. *)
let probe_sample_mask = 63
let probe_sample_period = probe_sample_mask + 1

(* ------------------------------------------------------------------ *)
(* Phase accounting                                                     *)
(* ------------------------------------------------------------------ *)

(* Per-domain wall-time attribution for instrumented serves: every
   worker's batch time is split into disjoint monotonic-clock windows —
   probe work (inside the dictionary's [mem]), tally work (per-query
   telemetry recording), seqlock window publishes, epoch pin/unpin
   (dynamic runs) — plus the residual [other] (loop overhead, the phase
   bookkeeping itself, GC pauses landing between windows) defined as
   wall minus the attributed phases, so the five phases sum to the
   worker's batch wall time *exactly, by construction*. [idle] is
   filled in by the orchestrator after the join: serve wall time minus
   the worker's own batch wall (spawn/join skew and scheduler time).

   The record is plain (no atomics): each worker builds its own at batch
   end and hands it over through [Domain.join]; the orchestrator only
   copies it, with [idle] filled in — same single-writer discipline as
   the metric shards. *)
type phase_stats = {
  ph_domain : int;
  mutable ph_probe_ns : int;
  mutable ph_tally_ns : int;
  mutable ph_publish_ns : int;
  mutable ph_pin_ns : int;
  mutable ph_other_ns : int;
  mutable ph_wall_ns : int;
  mutable ph_idle_ns : int;
}


type phase_metric_ids = {
  p_probe_c : Metrics.counter;
  p_tally_c : Metrics.counter;
  p_publish_c : Metrics.counter;
  p_pin_c : Metrics.counter;
  p_other_c : Metrics.counter;
  p_wall_c : Metrics.counter;
  p_idle_c : Metrics.counter;
}

(* One shared name list so registration, the /scaling.json body and the
   scaling artifact cannot drift apart. *)
let phase_counter_names =
  [
    ("probe", "engine_phase_probe_ns_total");
    ("tally", "engine_phase_tally_ns_total");
    ("publish", "engine_phase_publish_ns_total");
    ("pin", "engine_phase_pin_ns_total");
    ("other", "engine_phase_other_ns_total");
    ("wall", "engine_phase_wall_ns_total");
    ("idle", "engine_phase_idle_ns_total");
  ]

let register_phase_metrics (o : Lc_obs.Obs.t) =
  let c phase help = Metrics.counter o.metrics ~help (List.assoc phase phase_counter_names) in
  {
    p_probe_c = c "probe" "Worker ns inside the dictionary's mem (probe work)";
    p_tally_c = c "tally" "Worker ns recording per-query telemetry";
    p_publish_c = c "publish" "Worker ns in seqlock window publishes";
    p_pin_c = c "pin" "Reader ns in epoch pin/unpin announcements";
    p_other_c = c "other" "Worker batch ns not attributed to a phase (residual)";
    p_wall_c = c "wall" "Worker batch wall ns (sum of the five phases)";
    p_idle_c = c "idle" "Serve wall ns minus worker batch wall, summed over workers";
  }

(* Flush a worker's phase totals into its own shard, once, at batch end
   (before the final seqlock publish, so the monitor's last window sees
   them). Counters start at zero and each worker flushes exactly once,
   so the registry totals are the sums over domains. *)
let flush_phases shard (p : phase_metric_ids) (ph : phase_stats) =
  Metrics.incr shard p.p_probe_c ph.ph_probe_ns;
  Metrics.incr shard p.p_tally_c ph.ph_tally_ns;
  Metrics.incr shard p.p_publish_c ph.ph_publish_ns;
  Metrics.incr shard p.p_pin_c ph.ph_pin_ns;
  Metrics.incr shard p.p_other_c ph.ph_other_ns;
  Metrics.incr shard p.p_wall_c ph.ph_wall_ns

(* ------------------------------------------------------------------ *)
(* GC telemetry                                                         *)
(* ------------------------------------------------------------------ *)

(* Per-domain allocation accounting. [Gc.counters] reads the calling
   domain's own state (precise, no cross-domain staleness), so each
   worker samples its own cursor at batch start, at every publish point
   and at batch end, flushing the word deltas into its own metric shard.
   [Gc.counters] allocates a tuple of boxed floats — that is why it runs
   only at those boundaries, never per query. *)
type gc_cursor = {
  mutable gcur_minor : float;
  mutable gcur_promoted : float;
  mutable gcur_major : float;
}

type gc_metric_ids = {
  g_minor_c : Metrics.counter;
  g_promoted_c : Metrics.counter;
  g_major_c : Metrics.counter;
}

(* The metric names the windowed GC view diffs — shared with the Window
   config like [update_metric_names]. *)
let gc_metric_names : Window.gc_config =
  {
    Window.minor_words_counter = "engine_gc_minor_words_total";
    promoted_words_counter = "engine_gc_promoted_words_total";
    major_words_counter = "engine_gc_major_words_total";
  }

let register_gc_metrics (o : Lc_obs.Obs.t) =
  let n = gc_metric_names in
  {
    g_minor_c =
      Metrics.counter o.metrics ~help:"Minor-heap words allocated by engine domains"
        n.Window.minor_words_counter;
    g_promoted_c =
      Metrics.counter o.metrics ~help:"Words promoted to the major heap by engine domains"
        n.Window.promoted_words_counter;
    g_major_c =
      Metrics.counter o.metrics ~help:"Words allocated directly on the major heap"
        n.Window.major_words_counter;
  }

(* A cursor at the calling domain's counters now, taken on that domain
   at batch start, so the deltas cover only its own batch. *)
let gc_cursor () =
  let minor, promoted, major = Gc.counters () in
  { gcur_minor = minor; gcur_promoted = promoted; gcur_major = major }

let sample_gc shard (g : gc_metric_ids) (cur : gc_cursor) =
  let minor, promoted, major = Gc.counters () in
  Metrics.incr shard g.g_minor_c (int_of_float (minor -. cur.gcur_minor));
  Metrics.incr shard g.g_promoted_c (int_of_float (promoted -. cur.gcur_promoted));
  Metrics.incr shard g.g_major_c (int_of_float (major -. cur.gcur_major));
  cur.gcur_minor <- minor;
  cur.gcur_promoted <- promoted;
  cur.gcur_major <- major

(* Engine metric ids on an observability handle. Registration is
   idempotent per name, so both [Monitor.create] (which must size the
   seqlock buffers after the metrics exist) and [serve] itself can call
   this in either order. *)
type metric_ids = {
  m_queries : Metrics.counter;
  m_probes : Metrics.counter;
  m_latency : Metrics.histogram;
  m_probe_latency : Metrics.histogram;
  m_spin_wait : Metrics.histogram;
  m_domains : Metrics.gauge;
}

let register_metrics (o : Lc_obs.Obs.t) =
  {
    m_queries =
      Metrics.counter o.metrics ~help:"Queries served by the engine" "engine_queries_total";
    m_probes =
      Metrics.counter o.metrics ~help:"Cell probes issued by the engine" "engine_probes_total";
    m_latency =
      Metrics.histogram o.metrics ~help:"Per-query serve latency (ns)" "engine_query_latency_ns";
    m_probe_latency =
      Metrics.histogram o.metrics
        ~help:
          (Printf.sprintf "Sampled per-probe read latency (ns), 1 in %d probes"
             (probe_sample_mask + 1))
        "engine_probe_latency_ns";
    m_spin_wait =
      Metrics.histogram o.metrics
        ~help:"Per-acquisition spinlock wait (ns); 0 = uncontended"
        "engine_spinlock_wait_ns";
    m_domains = Metrics.gauge o.metrics ~help:"Worker domains in the last serve" "engine_domains";
  }

(* Update-path metric ids (builder-domain shard only). Registered next
   to [register_metrics] so the Window's frozen buffers include them;
   idempotent per name like everything in the registry. *)
type update_metric_ids = {
  u_inserts_c : Metrics.counter;
  u_deletes_c : Metrics.counter;
  u_pubs_c : Metrics.counter;
  u_reclaimed_c : Metrics.counter;
  u_cells_c : Metrics.counter;
  u_rebuild_h : Metrics.histogram;
  u_publish_h : Metrics.histogram;
  u_batch_h : Metrics.histogram;
  u_epoch_g : Metrics.gauge;
  u_retired_g : Metrics.gauge;
  u_lag_g : Metrics.gauge;
}

(* The metric names the windowed update view diffs — one shared value so
   the registration below, the Window config and the /updates.json body
   can never drift apart. *)
let update_metric_names : Window.update_config =
  {
    Window.inserts_counter = "engine_inserts_total";
    deletes_counter = "engine_deletes_total";
    publications_counter = "engine_publications_total";
    cells_counter = "engine_cells_written_total";
    rebuild_histogram = "engine_rebuild_ns";
    epoch_gauge = "engine_epoch";
    retired_gauge = "engine_retired_pending";
    reader_lag_gauge = "engine_reader_lag";
  }

let register_update_metrics (o : Lc_obs.Obs.t) =
  let n = update_metric_names in
  {
    u_inserts_c =
      Metrics.counter o.metrics ~help:"Inserts applied by the builder domain"
        n.Window.inserts_counter;
    u_deletes_c =
      Metrics.counter o.metrics ~help:"Deletes applied by the builder domain"
        n.Window.deletes_counter;
    u_pubs_c =
      Metrics.counter o.metrics ~help:"Epoch snapshots published" n.Window.publications_counter;
    u_reclaimed_c =
      Metrics.counter o.metrics ~help:"Retired levels reclaimed" "engine_reclaimed_total";
    u_cells_c =
      Metrics.counter o.metrics ~help:"Cells written by level rebuilds (exact)"
        n.Window.cells_counter;
    u_rebuild_h =
      Metrics.histogram o.metrics ~help:"Per-level-build duration (ns)"
        n.Window.rebuild_histogram;
    u_publish_h =
      Metrics.histogram o.metrics ~help:"Per-publication latency (ns)" "engine_publish_ns";
    u_batch_h =
      Metrics.histogram o.metrics ~help:"Updates made visible per publication"
        "engine_publish_batch";
    u_epoch_g = Metrics.gauge o.metrics ~help:"Currently published epoch" n.Window.epoch_gauge;
    u_retired_g =
      Metrics.gauge o.metrics ~help:"Retired levels awaiting reclamation"
        n.Window.retired_gauge;
    u_lag_g =
      Metrics.gauge o.metrics
        ~help:"Published epoch minus the slowest pinned reader's epoch"
        n.Window.reader_lag_gauge;
  }

(* Shared by [count_histogram] (exact, post-run) and the live
   /cells.json route (exact mid-run, from the per-cell atomics). *)
let histogram_of_counts counts =
  let max_count = Array.fold_left max 0 counts in
  (* 0 -> bucket 0; otherwise 1 + floor(log2 c). *)
  let rec bucket_of c = if c = 0 then 0 else 1 + bucket_of (c lsr 1) in
  let nbuckets = bucket_of max_count + 1 in
  let cells = Array.make nbuckets 0 in
  Array.iter (fun c -> cells.(bucket_of c) <- cells.(bucket_of c) + 1) counts;
  let upper b = if b = 0 then 0 else (1 lsl b) - 1 in
  List.filter (fun (_, n) -> n > 0) (List.init nbuckets (fun b -> (upper b, cells.(b))))

(* ------------------------------------------------------------------ *)
(* Live monitoring                                                      *)
(* ------------------------------------------------------------------ *)

module Monitor = struct
  type t = {
    obs : Lc_obs.Obs.t;
    window : Window.t;
    sketches : Heavy.t array;  (* one per publisher, same layout *)
    domains : int;
    interval_s : float;
    publish_period : int;
    on_window : (Window.entry -> unit) option;
    journal : Journal.t option;
    on_alert : (Window.entry -> unit) option;
    (* Alert edge detector for the journal / on_alert hook; owned by the
       monitor domain (ticks are serialised). *)
    mutable alert_was_firing : bool;
    mutable live_counts : int Atomic.t array option;
    (* The replication controller, when this run is adaptive: attached
       before serving starts, driven by [tick] (the monitor domain is
       the controller domain), scraped by /control.json. *)
    mutable controller : Lc_control.Controller.t option;
  }

  let create_for ?(ring = 512) ?(interval_s = 0.25) ?(publish_period = 256) ?(top_k = 16)
      ?(alert_factor = 8.0) ?on_window ?journal ?on_alert ?obs ~domains ~space ~max_probes () =
    if domains < 1 then invalid_arg "Monitor.create: domains must be >= 1";
    if interval_s <= 0.0 then invalid_arg "Monitor.create: interval_s must be > 0";
    if publish_period < 1 then invalid_arg "Monitor.create: publish_period must be >= 1";
    if space < 1 then invalid_arg "Monitor.create: space must be >= 1";
    if max_probes < 1 then invalid_arg "Monitor.create: max_probes must be >= 1";
    (match journal with
    | Some j when Journal.writers j < domains + 2 ->
      invalid_arg
        (Printf.sprintf
           "Monitor.create: journal has %d writer rings, need domains + 2 = %d \
            (orchestrator, workers, monitor; dynamic runs want one more for the \
            builder)"
           (Journal.writers j) (domains + 2))
    | _ -> ());
    let obs = match obs with Some o -> o | None -> Lc_obs.Obs.create () in
    (* Register before sizing the seqlock buffers: Window.frozen copies
       only metrics that exist at creation time. The update metrics are
       registered unconditionally — a static run simply never touches
       them, which is exactly the absent-when-static signal the windowed
       update view keys on. *)
    let _ids = register_metrics obs in
    let _uids = register_update_metrics obs in
    let _pids = register_phase_metrics obs in
    let _gids = register_gc_metrics obs in
    let config =
      {
        Window.ring_capacity = ring;
        queries_counter = "engine_queries_total";
        probes_counter = "engine_probes_total";
        latency_histogram = "engine_query_latency_ns";
        space;
        max_probes;
        top_k;
        alert_factor;
      }
    in
    {
      obs;
      (* Publisher layout: 0 = orchestrator, 1..domains = workers,
         domains + 1 = the builder domain of a dynamic run (left zeroed
         by static serves). *)
      window =
        Window.create ~updates:update_metric_names ~gc:gc_metric_names obs.metrics config
          ~publishers:(domains + 2);
      sketches = Array.init (domains + 2) (fun _ -> Heavy.create ~k:top_k);
      domains;
      interval_s;
      publish_period;
      on_window;
      journal;
      on_alert;
      alert_was_firing = false;
      live_counts = None;
      controller = None;
    }

  let create ?ring ?interval_s ?publish_period ?top_k ?alert_factor ?on_window ?journal
      ?on_alert ?obs ~domains inst =
    let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
    create_for ?ring ?interval_s ?publish_period ?top_k ?alert_factor ?on_window ?journal
      ?on_alert ?obs ~domains ~space:D.space ~max_probes:D.max_probes ()

  let obs t = t.obs
  let window t = t.window
  let interval_s t = t.interval_s
  let journal t = t.journal
  let controller t = t.controller

  (* Attach the replication controller before serving starts. The
     monitor domain becomes the controller domain: every [tick] feeds
     the cut window into [Controller.observe], whose decisions journal
     on ring [domains + 3] (when the journal was sized for it) and fire
     the actuator the serving path installed. *)
  let attach_controller t ctl = t.controller <- Some ctl

  (* The controller's journal ring index for a monitored run over
     [domains] workers — next to the builder's [domains + 2]. *)
  let controller_writer ~domains = domains + 3

  (* One monitor heartbeat: cut a window, journal it (plus the alert
     edge and a sketch snapshot), fire the hooks. Runs on the monitor
     domain during the serve and once more on the orchestrator after the
     workers join — never concurrently, so the edge detector needs no
     synchronisation. Hook exceptions are swallowed: a broken dashboard
     or dump must not take the serve down. *)
  let tick t =
    let e = Window.tick t.window in
    (match t.journal with
    | None -> ()
    | Some j ->
      let w = t.domains + 1 in
      Journal.record j ~writer:w
        (Journal.Window_cut
           {
             index = e.Window.index;
             queries = e.Window.queries;
             qps = e.Window.qps;
             p50_ns = e.Window.p50_ns;
             p99_ns = e.Window.p99_ns;
             hotspot_ratio = e.Window.hotspot_ratio;
             alert = e.Window.alert;
           });
      Journal.record j ~writer:w
        (Journal.Sketch_snapshot
           {
             top =
               List.map
                 (fun (c : Heavy.entry) -> (c.item, c.count, c.err))
                 e.Window.top_cells;
           });
      let factor = (Window.config t.window).Window.alert_factor in
      if e.Window.alert && not t.alert_was_firing then
        Journal.record j ~writer:w
          (Journal.Alert_raised
             { index = e.Window.index; ratio = e.Window.hotspot_ratio; factor })
      else if (not e.Window.alert) && t.alert_was_firing then
        Journal.record j ~writer:w
          (Journal.Alert_cleared
             { index = e.Window.index; ratio = e.Window.hotspot_ratio; factor }));
    (if e.Window.alert && not t.alert_was_firing then
       match t.on_alert with None -> () | Some f -> ( try f e with _ -> ()));
    t.alert_was_firing <- e.Window.alert;
    (* Sense → decide → act: the controller sees exactly the entry (and
       merged top-k) this tick journaled, so a journaled decision's
       evidence reconciles field-for-field with the window's own sketch
       snapshot. Runs before [on_window] so the dashboard hook reads
       post-decision controller state. *)
    (match t.controller with
    | None -> ()
    | Some ctl ->
      ignore
        (Lc_control.Controller.observe ctl ~window:e.Window.index
           ~queries:e.Window.queries e.Window.top_cells
          : Lc_control.Controller.decision option));
    (match t.on_window with None -> () | Some f -> ( try f e with _ -> ()));
    e

  (* engine_control_* gauges: appended exposition lines like
     [Window.prometheus_gauges] — the controller's scalars are
     monitor-domain-owned and racy-read tolerant, so the scrape domain
     reads them directly instead of round-tripping through a metric
     shard that would need its own publisher. *)
  let control_gauges t =
    match t.controller with
    | None -> ""
    | Some ctl ->
      let module C = Lc_control.Controller in
      let b = Buffer.create 512 in
      let gauge name help v =
        Buffer.add_string b
          (Printf.sprintf "# HELP %s %s\n# TYPE %s gauge\n%s %s\n" name help name name v)
      in
      gauge "engine_control_applied_boost"
        "Replication boost the builder last applied"
        (string_of_int (C.applied_boost ctl));
      gauge "engine_control_target_boost" "Replication boost the controller wants"
        (string_of_int (C.target_boost ctl));
      gauge "engine_control_score" "Hysteresis contention score"
        (string_of_int (C.score ctl));
      gauge "engine_control_cooldown_windows" "Cooldown windows remaining"
        (string_of_int (C.cooldown ctl));
      gauge "engine_control_decisions_total" "Actuation decisions so far"
        (string_of_int (C.decisions_total ctl));
      gauge "engine_control_windowed_ratio"
        "Windowed contention ratio at the last controller observation"
        (Printf.sprintf "%.6f" (C.last_ratio ctl));
      Buffer.contents b

  let metrics_body t =
    Lc_obs.Export.prometheus (Window.live_snapshot t.window)
    ^ Window.prometheus_gauges t.window
    ^ control_gauges t

  (* The co-heat JSON object shared by /cells.json and /scaling.json:
     per-cell tallies bucketed into cache-line groups (see
     {!Lc_analysis.Coheat}), or [Null] when the run keeps no live
     per-cell counters (dynamic workloads, or before a serve starts). *)
  let coheat_json counts_opt =
    let module J = Lc_obs.Json in
    match counts_opt with
    | None -> J.Null
    | Some counts ->
      let ch = Coheat.of_counts counts in
      J.Obj
        [
          ("line_cells", J.Int ch.Coheat.line_cells);
          ("lines", J.Int ch.Coheat.lines);
          ("total_probes", J.Int ch.Coheat.total);
          ("ratio", J.Float ch.Coheat.ratio);
          ("uniform_bound", J.Float (Coheat.uniform_bound ch));
          ("hottest_line", J.Int ch.Coheat.hottest_line);
          ("hottest_line_heat", J.Int ch.Coheat.hottest_line_heat);
          ("hottest_line_share", J.Float ch.Coheat.hottest_line_share);
        ]

  let live_count_values t =
    match t.live_counts with
    | None -> None
    | Some counters -> Some (Array.map Atomic.get counters)

  let cells_body t =
    let cells = Window.live_cells t.window in
    let exact_counts = live_count_values t in
    let exact_hist =
      match exact_counts with
      | None -> []
      | Some counts -> histogram_of_counts counts
    in
    Lc_obs.Json.to_string
      (Lc_obs.Json.Obj
         [
           ("total_observed", Lc_obs.Json.Int cells.Heavy.total_observed);
           ("error_bound", Lc_obs.Json.Int cells.Heavy.error_bound);
           ("coheat", coheat_json exact_counts);
           ( "top",
             Lc_obs.Json.List
               (List.map
                  (fun (e : Heavy.entry) ->
                    Lc_obs.Json.Obj
                      [
                        ("cell", Lc_obs.Json.Int e.item);
                        ("count", Lc_obs.Json.Int e.count);
                        ("err", Lc_obs.Json.Int e.err);
                      ])
                  cells.Heavy.top) );
           ( "count_histogram",
             Lc_obs.Json.List
               (List.map
                  (fun (upper, n) ->
                    Lc_obs.Json.List [ Lc_obs.Json.Int upper; Lc_obs.Json.Int n ])
                  exact_hist) );
         ])

  let windows_body t =
    Lc_obs.Json.to_string
      (Lc_obs.Json.Obj
         [
           ( "windows",
             Lc_obs.Json.List
               (List.map
                  (fun (e : Window.entry) ->
                    Lc_obs.Json.Obj
                      [
                        ("index", Lc_obs.Json.Int e.index);
                        ("t_start_s", Lc_obs.Json.Float e.t_start_s);
                        ("t_end_s", Lc_obs.Json.Float e.t_end_s);
                        ("queries", Lc_obs.Json.Int e.queries);
                        ("probes", Lc_obs.Json.Int e.probes);
                        ("qps", Lc_obs.Json.Float e.qps);
                        ("probes_per_s", Lc_obs.Json.Float e.probes_per_s);
                        ("p50_ns", Lc_obs.Json.Float e.p50_ns);
                        ("p99_ns", Lc_obs.Json.Float e.p99_ns);
                        ("max_cell", Lc_obs.Json.Int e.max_cell);
                        ("max_share", Lc_obs.Json.Float e.max_share);
                        ("hotspot_ratio", Lc_obs.Json.Float e.hotspot_ratio);
                        ("alert", Lc_obs.Json.Bool e.alert);
                        ("cum_queries", Lc_obs.Json.Int e.cum_queries);
                      ])
                  (Window.entries t.window)) );
           ("alert_active", Lc_obs.Json.Bool (Window.alert_active t.window));
           ("alert_fired_total", Lc_obs.Json.Int (Window.alert_fired_total t.window));
         ])

  (* /updates.json: the update-path counterpart of /windows.json,
     schema-versioned ("lowcon-updates" v1) so `lowcon validate` can
     check a saved scrape. [cumulative] is null and [windows] empty for
     a run that never exercised the update path (static workloads). *)
  let updates_schema_name = "lowcon-updates"
  let updates_schema_version = 1

  let updates_body t =
    let module J = Lc_obs.Json in
    let snap = Window.live_snapshot t.window in
    let n = update_metric_names in
    let c name = Option.value ~default:0 (Metrics.Snapshot.counter_value snap name) in
    let g name =
      match Metrics.Snapshot.gauge_value snap name with
      | None -> 0
      | Some v -> int_of_float v
    in
    let inserts = c n.Window.inserts_counter in
    let deletes = c n.Window.deletes_counter in
    let pubs = c n.Window.publications_counter in
    let cells = c n.Window.cells_counter in
    let active = inserts + deletes + pubs > 0 in
    let cumulative =
      if not active then J.Null
      else
        J.Obj
          [
            ("inserts", J.Int inserts);
            ("deletes", J.Int deletes);
            ("publications", J.Int pubs);
            ("reclaimed", J.Int (c "engine_reclaimed_total"));
            ("cells_written", J.Int cells);
            ( "write_amp",
              J.Float
                (if inserts > 0 then float_of_int cells /. float_of_int inserts else 0.0) );
            ("epoch", J.Int (g n.Window.epoch_gauge));
            ("retired_pending", J.Int (g n.Window.retired_gauge));
            ("reader_lag", J.Int (g n.Window.reader_lag_gauge));
          ]
    in
    let uwindows =
      List.filter_map
        (fun (e : Window.entry) ->
          match e.Window.updates with
          | None -> None
          | Some u ->
            Some
              (J.Obj
                 [
                   ("index", J.Int e.Window.index);
                   ("t_start_s", J.Float e.Window.t_start_s);
                   ("t_end_s", J.Float e.Window.t_end_s);
                   ("inserts", J.Int u.Window.u_inserts);
                   ("deletes", J.Int u.Window.u_deletes);
                   ("ups", J.Float u.Window.ups);
                   ("publications", J.Int u.Window.u_pubs);
                   ("pubs_per_s", J.Float u.Window.pubs_per_s);
                   ("cells_written", J.Int u.Window.u_cells);
                   ("write_amp", J.Float u.Window.write_amp);
                   ("rebuild_p50_ns", J.Float u.Window.rebuild_p50_ns);
                   ("rebuild_p99_ns", J.Float u.Window.rebuild_p99_ns);
                   ("epoch", J.Int u.Window.u_epoch);
                   ("retired_pending", J.Int u.Window.u_retired);
                   ("reader_lag", J.Int u.Window.u_reader_lag);
                 ]))
        (Window.entries t.window)
    in
    J.to_string
      (J.Obj
         [
           ("schema", J.String updates_schema_name);
           ("version", J.Int updates_schema_version);
           ("updates_seen", J.Bool active);
           ("cumulative", cumulative);
           ("windows", J.List uwindows);
         ])

  (* /scaling.json: the scaling observatory's live view — cumulative
     per-phase time attribution, GC/allocation counters, the windowed GC
     entries and the cache-line co-heat diagnostic, schema-versioned
     ("lowcon-scaling-live" v1) so `lowcon validate` can check a saved
     scrape. Distinct from the offline "lowcon-scaling" artifact the
     `lowcon scale` sweep writes: this is one run's telemetry, that is a
     fitted domain sweep. *)
  let scaling_schema_name = "lowcon-scaling-live"
  let scaling_schema_version = 1

  let scaling_body t =
    let module J = Lc_obs.Json in
    let snap = Window.live_snapshot t.window in
    let c name = Option.value ~default:0 (Metrics.Snapshot.counter_value snap name) in
    let phases =
      J.Obj
        (List.map (fun (phase, counter) -> (phase ^ "_ns", J.Int (c counter)))
           phase_counter_names)
    in
    let gn = gc_metric_names in
    let gwindows =
      List.filter_map
        (fun (e : Window.entry) ->
          match e.Window.gc with
          | None -> None
          | Some g ->
            Some
              (J.Obj
                 [
                   ("index", J.Int e.Window.index);
                   ("t_start_s", J.Float e.Window.t_start_s);
                   ("t_end_s", J.Float e.Window.t_end_s);
                   ("queries", J.Int e.Window.queries);
                   ("minor_words", J.Int g.Window.g_minor_words);
                   ("promoted_words", J.Int g.Window.g_promoted_words);
                   ("major_words", J.Int g.Window.g_major_words);
                   ("minor_collections", J.Int g.Window.g_minor_collections);
                   ("major_collections", J.Int g.Window.g_major_collections);
                   ("alloc_per_query", J.Float g.Window.alloc_per_query);
                   ("heap_words", J.Int g.Window.g_heap_words);
                 ]))
        (Window.entries t.window)
    in
    let gc =
      J.Obj
        [
          ("minor_words", J.Int (c gn.Window.minor_words_counter));
          ("promoted_words", J.Int (c gn.Window.promoted_words_counter));
          ("major_words", J.Int (c gn.Window.major_words_counter));
          ("windows", J.List gwindows);
        ]
    in
    J.to_string
      (J.Obj
         [
           ("schema", J.String scaling_schema_name);
           ("version", J.Int scaling_schema_version);
           ("domains", J.Int t.domains);
           ("phases", phases);
           ("gc", gc);
           ("coheat", coheat_json (live_count_values t));
         ])

  (* /control.json: the controller's sense→decide→act state, schema-
     versioned ("lowcon-control" v1) so `lowcon validate` can check a
     saved scrape. [attached] is false (and everything else absent) for
     a run without a controller; otherwise the decision list carries
     exactly the records the controller journaled, so a scrape, the
     flight recorder and a postmortem replay reconcile one to one. *)
  let control_schema_name = "lowcon-control"
  let control_schema_version = 1

  let control_body t =
    let module J = Lc_obs.Json in
    let module C = Lc_control.Controller in
    let header =
      [
        ("schema", J.String control_schema_name);
        ("version", J.Int control_schema_version);
      ]
    in
    match t.controller with
    | None -> J.to_string (J.Obj (header @ [ ("attached", J.Bool false) ]))
    | Some ctl ->
      let pc = C.policy_config ctl in
      let decision (d : C.decision) =
        J.Obj
          [
            ("id", J.Int d.C.d_id);
            ("window", J.Int d.C.d_window);
            ("ratio", J.Float d.C.d_ratio);
            ("cell", J.Int d.C.d_cell);
            ("count", J.Int d.C.d_count);
            ("err", J.Int d.C.d_err);
            ("score", J.Int d.C.d_score);
            ("action", J.String (match d.C.d_action with `Raise -> "raise" | `Lower -> "lower"));
            ("old_boost", J.Int d.C.d_old_boost);
            ("new_boost", J.Int d.C.d_new_boost);
            ("cooldown", J.Int d.C.d_cooldown);
          ]
      in
      J.to_string
        (J.Obj
           (header
           @ [
               ("attached", J.Bool true);
               ( "boost",
                 J.Obj
                   [
                     ("base", J.Int (C.base_boost ctl));
                     ("target", J.Int (C.target_boost ctl));
                     ("applied", J.Int (C.applied_boost ctl));
                   ] );
               ( "policy",
                 J.Obj
                   [
                     ("high_ratio", J.Float pc.Lc_control.Policy.high_ratio);
                     ("low_ratio", J.Float pc.Lc_control.Policy.low_ratio);
                     ("hot_contrib", J.Int pc.Lc_control.Policy.hot_contrib);
                     ("cool_contrib", J.Int pc.Lc_control.Policy.cool_contrib);
                     ("high_threshold", J.Int pc.Lc_control.Policy.high_threshold);
                     ("low_threshold", J.Int pc.Lc_control.Policy.low_threshold);
                     ("cooldown_windows", J.Int pc.Lc_control.Policy.cooldown_windows);
                     ("min_boost", J.Int pc.Lc_control.Policy.min_boost);
                     ("max_boost", J.Int pc.Lc_control.Policy.max_boost);
                     ("step", J.Int pc.Lc_control.Policy.step);
                   ] );
               ( "state",
                 J.Obj
                   [
                     ("score", J.Int (C.score ctl));
                     ("cooldown", J.Int (C.cooldown ctl));
                     ("windows_seen", J.Int (C.windows_seen ctl));
                     ("last_ratio", J.Float (C.last_ratio ctl));
                   ] );
               ("decisions_total", J.Int (C.decisions_total ctl));
               ("decisions", J.List (List.map decision (C.decisions ctl)));
             ]))

  let control_json = control_body

  let routes t : Http.route list =
    [
      ("/metrics", fun () -> Http.text (metrics_body t));
      ( "/snapshot.json",
        fun () -> Http.json (Lc_obs.Export.json_snapshot (Window.live_snapshot t.window)) );
      ("/cells.json", fun () -> Http.json (cells_body t));
      ("/windows.json", fun () -> Http.json (windows_body t));
      ("/updates.json", fun () -> Http.json (updates_body t));
      ("/scaling.json", fun () -> Http.json (scaling_body t));
      ("/control.json", fun () -> Http.json (control_body t));
      ("/healthz", fun () -> Http.text "ok\n");
    ]
end


(* ------------------------------------------------------------------ *)
(* Telemetry tiers                                                      *)
(* ------------------------------------------------------------------ *)

(* How much a run records, mapped once from the config: nothing, obs
   shards and spans, or obs plus the live monitor's windows, sketches and
   journal. *)
type tier = Bare | Obs of Lc_obs.Obs.t | Monitored of Monitor.t

module Config = struct
  type nonrec t = {
    domains : int;
    seed : int;
    cost : cost;
    obs : Lc_obs.Obs.t option;
    monitor : Monitor.t option;
  }

  (* A monitor carries its own observability handle, so it wins when
     both are given; any other [obs] would be silently dropped, so that
     combination is rejected. *)
  let tier t =
    match (t.obs, t.monitor) with
    | None, None -> Bare
    | Some o, None -> Obs o
    | Some o, Some m when o != m.Monitor.obs ->
      invalid_arg "Engine.Config: obs must be Monitor.obs monitor when both are given"
    | _, Some m -> Monitored m

  let make ?(cost = Free) ?obs ?monitor ~domains ~seed () =
    let t = { domains; seed; cost; obs; monitor } in
    ignore (tier t : tier);
    t
end

(* The telemetry of one domain of an instrumented run, at index [slot]
   of the run's layout (see [serve]): its shard, span timeline and
   seqlock publisher. All metric updates land in the domain's own shard
   (plain stores, no atomics, no allocation), so the telemetry itself
   cannot become the contended line it is trying to measure. [sketch]
   (monitored runs) is the domain's Space-Saving sketch; a worker's
   receives every cell index it probes, behind the live hot-cell view. *)
type domain_obs = {
  slot : int;
  shard : Metrics.shard;
  timeline : Span.timeline;
  ids : metric_ids;
  pids : phase_metric_ids;
  gids : gc_metric_ids;
  sketch : Heavy.t option;
  monitor : Monitor.t option;
}

(* Publish a domain's shard and sketch through its seqlock slot, on
   monitored runs. *)
let publish_slot d =
  match (d.monitor, d.sketch) with
  | Some m, Some s -> Window.publish (Window.publisher m.Monitor.window d.slot) d.shard s
  | _ -> ()

let ns_since t0 = Int64.to_int (Int64.sub (Lc_obs.Clock.now_ns ()) t0)

let spin_acquire l =
  while not (Atomic.compare_and_set l false true) do
    Domain.cpu_relax ()
  done

(* The instrumented read of one probed cell: count it into the worker's
   probe tally (which doubles as the latency-sampling tick), feed the
   sketch, and time 1 read in [probe_sample_period]. *)
let observed_peek (wo, probes) table j =
  let tick = !probes in
  probes := tick + 1;
  (match wo.sketch with None -> () | Some s -> Heavy.observe s j);
  if tick land probe_sample_mask = 0 then begin
    let t0 = Lc_obs.Clock.now_ns () in
    let v = Table.peek table j in
    Metrics.observe wo.shard wo.ids.m_probe_latency (ns_since t0);
    v
  end
  else Table.peek table j

(* The probing discipline shared by every worker, one closure per cost
   model: count each visit on a per-cell atomic, optionally serialising
   visits to the same cell through a per-cell test-and-set spinlock.
   Cell contents are only ever read ([Table.peek]); the table's own
   mutable counters are untouched, which is what makes the query path
   reentrant. Without [obs] this is the telemetry-free hot path; with it
   (the worker's telemetry and its probe count) every read goes through
   [observed_peek] and contended spinlock waits are timed. *)
let make_probe ?obs ~cost ~counters ~locks table : Lc_dict.Dict_intf.probe =
  match cost with
  | Free ->
    fun ~step:_ j ->
      Atomic.incr counters.(j);
      (match obs with None -> Table.peek table j | Some o -> observed_peek o table j)
  | Spinlock { hold } ->
    fun ~step:_ j ->
      let l = locks.(j) in
      let v =
        match obs with
        | None ->
          spin_acquire l;
          Table.peek table j
        | Some ((wo, _) as o) ->
          (* Fast path: uncontended acquisition records zero wait
             without touching the clock. *)
          if Atomic.compare_and_set l false true then
            Metrics.observe wo.shard wo.ids.m_spin_wait 0
          else begin
            let t0 = Lc_obs.Clock.now_ns () in
            spin_acquire l;
            Metrics.observe wo.shard wo.ids.m_spin_wait (ns_since t0)
          end;
          observed_peek o table j
      in
      for _ = 1 to hold do
        Domain.cpu_relax ()
      done;
      Atomic.set l false;
      Atomic.incr counters.(j);
      v

(* ------------------------------------------------------------------ *)
(* The run skeleton                                                     *)
(* ------------------------------------------------------------------ *)

(* One worker domain's view of the workload: its membership step, plus
   the hooks the instrumented loop reads — the reader's cumulative probe
   count and the ns it spent announcing epochs (0 for static runs). *)
type reader = {
  query : int -> bool;
  probes : unit -> int;
  pin_ns : unit -> int;
}

(* The bare per-query loop: no clock reads, no metric stores. *)
let bare_loop query batch =
  let hits = ref 0 in
  for i = 0 to Array.length batch - 1 do
    if query (Array.unsafe_get batch i) then incr hits
  done;
  !hits

(* The instrumented per-query loop (obs and monitored tiers). Each query
   is timed into the latency histogram and the probe/tally phases; a
   monitored worker also publishes its shard and sketch through its
   seqlock slot every [publish_period] queries and journals each
   publication on its own ring, one event per period so the recorder
   costs the hot path nothing measurable. Phase time accumulates in
   locals and lands in the worker's [phase_stats] once, at batch end.
   Returns the hit count and that record. *)
let instrumented_loop rd wo batch =
  let journal = Option.bind wo.monitor (fun (m : Monitor.t) -> m.Monitor.journal) in
  let publish served =
    publish_slot wo;
    Option.iter
      (fun j -> Journal.record j ~writer:wo.slot (Journal.Publish { queries = served }))
      journal
  in
  let period = match wo.monitor with None -> max_int | Some m -> m.Monitor.publish_period in
  Span.with_span wo.timeline "serve-batch" @@ fun () ->
  let w0 = Lc_obs.Clock.now_ns () in
  let gcur = gc_cursor () in
  let hits = ref 0 and probes = ref (rd.probes ()) in
  let probe_ns = ref 0 and tally_ns = ref 0 and publish_ns = ref 0 in
  let served = ref 0 and since_publish = ref 0 in
  Array.iter
    (fun x ->
      let t0 = Lc_obs.Clock.now_ns () in
      if rd.query x then incr hits;
      let t1 = Lc_obs.Clock.now_ns () in
      let dt = Int64.to_int (Int64.sub t1 t0) in
      Metrics.observe wo.shard wo.ids.m_latency dt;
      Metrics.incr wo.shard wo.ids.m_queries 1;
      let p = rd.probes () in
      Metrics.incr wo.shard wo.ids.m_probes (p - !probes);
      probes := p;
      let t2 = Lc_obs.Clock.now_ns () in
      (* The phase sums below land after [t2]: the accounting overhead
         charges itself to the [other] residual, never to the phases it
         measures. *)
      probe_ns := !probe_ns + dt;
      tally_ns := !tally_ns + Int64.to_int (Int64.sub t2 t1);
      incr served;
      incr since_publish;
      if !since_publish >= period then begin
        since_publish := 0;
        let pb0 = Lc_obs.Clock.now_ns () in
        sample_gc wo.shard wo.gids gcur;
        publish !served;
        publish_ns := !publish_ns + ns_since pb0
      end)
    batch;
  sample_gc wo.shard wo.gids gcur;
  let wall_ns = ns_since w0 in
  (* Dynamic readers accumulated pin/unpin ns inside the probe windows
     ([Epoch.mem_phased]); carve them out so probe means probe. [other]
     is the exact residual. *)
  let pin_ns = rd.pin_ns () in
  let ph =
    {
      ph_domain = wo.slot - 1;
      ph_probe_ns = !probe_ns - pin_ns;
      ph_tally_ns = !tally_ns;
      ph_publish_ns = !publish_ns;
      ph_pin_ns = pin_ns;
      ph_other_ns = wall_ns - !probe_ns - !tally_ns - !publish_ns;
      ph_wall_ns = wall_ns;
      ph_idle_ns = 0;
    }
  in
  flush_phases wo.shard wo.pids ph;
  (* Final publication: the monitor's last tick must see the complete
     batch (and the flushed phase totals) so windowed totals reconcile
     exactly. Deliberately after the wall cut — it cannot be charged to
     a phase it publishes. *)
  publish !served;
  (!hits, Some ph)

(* The builder domain's telemetry (instrumented dynamic runs): its
   domain slot, the update-path metrics, and [b_record], which journals
   on the builder's ring. *)
type builder_obs = {
  b_dom : domain_obs;
  b_uids : update_metric_ids;
  b_record : Journal.kind -> unit;
}

(* Sleep [total] seconds in short slices so a stop flag set at worker
   join wakes the monitor domain promptly. *)
let interruptible_sleep total stop =
  let slice = 0.02 in
  let remaining = ref total in
  while !remaining > 0.0 && not (Atomic.get stop) do
    let d = Float.min slice !remaining in
    Unix.sleepf d;
    remaining := !remaining -. d
  done

(* The monitor domain ticks windows on its interval while workers are
   hot; the orchestrator stops it (one-way flag) and cuts the final
   window itself. *)
let monitor_loop (m : Monitor.t) stop =
  while not (Atomic.get stop) do
    interruptible_sleep m.Monitor.interval_s stop;
    if not (Atomic.get stop) then ignore (Monitor.tick m : Window.entry)
  done

(* Spawn [f] on a new domain and return its joiner. A raise inside [f],
   or a failed spawn, comes back from the joiner as [Error] with the
   backtrace of the original raise, so the orchestrator can still join
   every other domain before re-raising. *)
let spawn f =
  match
    Domain.spawn (fun () -> try Ok (f ()) with e -> Error (e, Printexc.get_raw_backtrace ()))
  with
  | d -> fun () -> Domain.join d
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    fun () -> Error (e, bt)

(* Join one domain, keeping the first failure seen. *)
let join failure joiner =
  match joiner () with
  | Ok v -> Some v
  | Error f ->
    if Option.is_none !failure then failure := Some f;
    None

(* The one worker-spawn site: run [worker w] for each [w] on its own
   domain and join them all. *)
let run_workers failure domains worker =
  Array.map (join failure) (Array.init domains (fun w -> spawn (worker w)))

(* What a workload reports at merge time, for [result]: its per-cell
   tallies (one per cell of the final table) and probe total. *)
type tally = {
  t_name : string;
  t_counts : int array;
  t_probes : int;
  t_max_probes : int;
}

let make_result ~domains ~queries ~seconds t =
  let counts = t.t_counts in
  let space = Array.length counts in
  let hottest_cell = ref 0 in
  Array.iteri (fun j c -> if c > counts.(!hottest_cell) then hottest_cell := j) counts;
  let hottest_count = if space = 0 then 0 else counts.(!hottest_cell) in
  {
    name = t.t_name;
    domains;
    queries;
    seconds;
    throughput = (if seconds > 0.0 then float_of_int queries /. seconds else Float.infinity);
    total_probes = t.t_probes;
    counts;
    hottest_cell = !hottest_cell;
    hottest_count;
    hottest_share =
      (if t.t_probes = 0 then 0.0 else float_of_int hottest_count /. float_of_int t.t_probes);
    flat_bound =
      (if space = 0 then 0.0
       else float_of_int queries *. float_of_int t.t_max_probes /. float_of_int space);
  }

type workload =
  | Static of {
      inst : Instance.t;
      qdist : Qdist.t;
      queries_per_domain : int;
    }
  | Dynamic of {
      epoch : Epoch.t;
      ops : Opstream.op array;
      publish_every : int;
    }

type update_stats = {
  inserts : int;
  deletes : int;
  query_hits : int;
  publications : int;
  reclaimed : int;
  retired_pending : int;
  keys_rebuilt : int;
  purges : int;
  final_live : int;
  final_epoch : int;
  cells_written : int;
  rebuilds : int;
  rebuild_ns : int;
  publish_ns : int;
  write_amp : float;
  builder_ns : int;
  reclaim_lag_max : int;
}

type outcome = {
  result : result;
  windows : Window.entry list;
  cells : Heavy.merged option;
  alert_windows : int;
  updates : update_stats option;
  phases : phase_stats array option;
}

(* The one run path, for both workload shapes. [sample] yields each
   worker's query batch (run under the "sample-batches" stage, outside
   the timed section); [reader w wo] builds worker [w]'s step on its own
   domain, instrumented iff [wo] is present; the optional [builder] runs
   on one extra domain next to the workers; [merge] reads the tallies
   once every domain has joined.

   Layout, for shards, timelines, seqlock publishers and journal rings
   alike: 0 = orchestrator, 1..domains = workers, domains + 1 = the
   monitor's journal ring and the builder's shard/publisher,
   domains + 2 = the builder's journal ring. Everything per-domain is
   created here, on the orchestrator, before any domain spawns, so the
   domains themselves never touch the registry mutexes.

   Failure: every spawned domain is joined, the builder released and the
   monitor stopped and joined before the first exception re-raises with
   its original backtrace — a raising worker never leaks a domain or
   leaves the monitor ticking. *)
let serve ~domains ~tier ~sample ~reader ?builder ~merge () =
  let obs, monitor =
    match tier with
    | Bare -> (None, None)
    | Obs o -> (Some o, None)
    | Monitored m -> (Some m.Monitor.obs, Some m)
  in
  let journal = Option.bind monitor (fun (m : Monitor.t) -> m.Monitor.journal) in
  let setup =
    Option.map
      (fun o ->
        let ids = register_metrics o in
        let uids = Option.map (fun _ -> register_update_metrics o) builder in
        let pids = register_phase_metrics o in
        let gids = register_gc_metrics o in
        let domain_obs slot =
          {
            slot;
            shard = Lc_obs.Obs.shard o ~domain:slot;
            timeline = Lc_obs.Obs.timeline o ~tid:slot;
            ids;
            pids;
            gids;
            sketch = Option.map (fun (m : Monitor.t) -> m.Monitor.sketches.(slot)) monitor;
            monitor;
          }
        in
        let main = domain_obs 0 in
        Metrics.set_gauge main.shard ids.m_domains (float_of_int domains);
        (* Publish the orchestrator's shard (the domains gauge) once now;
           it is republished after the join with the idle-phase total. *)
        publish_slot main;
        let workers = Array.init domains (fun w -> domain_obs (w + 1)) in
        let bobs =
          Option.map
            (fun b_uids ->
              {
                b_dom = domain_obs (domains + 1);
                b_uids;
                (* Recorded only when the journal was sized for the
                   builder ring, so journals with domains + 2 rings keep
                   working with the builder simply silent. *)
                b_record =
                  (match journal with
                  | Some j when Journal.writers j >= domains + 3 ->
                    Journal.record j ~writer:(domains + 2)
                  | _ -> ignore);
              })
            uids
        in
        (main, workers, bobs))
      obs
  in
  let main_span name f =
    let body () =
      match setup with
      | None -> f ()
      | Some (main, _, _) -> Span.with_span main.timeline name f
    in
    match journal with
    | None -> body ()
    | Some j ->
      (* Orchestrator stage boundaries (ring 0) give a postmortem its
         coarse timeline even when the alert fires before any window. *)
      Journal.record j ~writer:0 (Journal.Stage { name; mark = `Begin });
      Fun.protect
        ~finally:(fun () -> Journal.record j ~writer:0 (Journal.Stage { name; mark = `End }))
        body
  in
  let batches = main_span "sample-batches" sample in
  let queries = Array.fold_left (fun acc b -> acc + Array.length b) 0 batches in
  let worker w () =
    match setup with
    | None -> (bare_loop (reader w None).query batches.(w), None)
    | Some (_, workers, _) ->
      let wo = workers.(w) in
      instrumented_loop (reader w (Some wo)) wo batches.(w)
  in
  let failure = ref None in
  let monitor_stop = Atomic.make false in
  (* One-way flag, like monitor_stop: set once the workers have joined;
     an adaptive builder polls it to end its keep-alive loop. *)
  let readers_done = Atomic.make false in
  (* The monitor domain is stopped (and joined) outside the timed
     section so the throughput columns stay comparable with unmonitored
     runs. *)
  let monitor_d = Option.map (fun m -> spawn (fun () -> monitor_loop m monitor_stop)) monitor in
  let t0 = Unix.gettimeofday () in
  let serve_t0_ns = Lc_obs.Clock.now_ns () in
  let seconds, results, built =
    main_span "serve" @@ fun () ->
    let builder_d =
      Option.map
        (fun b ->
          let bobs = Option.bind setup (fun (_, _, bobs) -> bobs) in
          spawn (fun () -> b bobs readers_done))
        builder
    in
    let results = run_workers failure domains worker in
    Atomic.set readers_done true;
    let built = Option.bind builder_d (join failure) in
    (Unix.gettimeofday () -. t0, results, built)
  in
  let serve_wall_ns = ns_since serve_t0_ns in
  Atomic.set monitor_stop true;
  Option.iter (fun d -> ignore (join failure d : unit option)) monitor_d;
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure;
  let results = Array.map Option.get results in
  (* Idle/join accounting, now that the workers' phase records are
     final: what the serve section spent spawning, joining and waiting
     around each worker's own batch. *)
  let phases =
    Option.map
      (fun (main, _, _) ->
        let phases =
          Array.map
            (fun (_, ph) ->
              let ph = Option.get ph in
              { ph with ph_idle_ns = max 0 (serve_wall_ns - ph.ph_wall_ns) })
            results
        in
        Array.iter (fun ph -> Metrics.incr main.shard main.pids.p_idle_c ph.ph_idle_ns) phases;
        (* Republish the orchestrator's shard so the final tick's merged
           snapshot carries the idle totals, then cut one final,
           authoritative window over whatever the interval ticks had not
           yet consumed. *)
        publish_slot main;
        phases)
      setup
  in
  Option.iter (fun m -> ignore (Monitor.tick m : Window.entry)) monitor;
  main_span "merge" @@ fun () ->
  let tally, updates = merge ~hits:(Array.map fst results) built in
  let result = make_result ~domains ~queries ~seconds tally in
  match monitor with
  | None -> { result; windows = []; cells = None; alert_windows = 0; updates; phases }
  | Some m ->
    {
      result;
      windows = Window.entries m.Monitor.window;
      cells = Some (Window.live_cells m.Monitor.window);
      alert_windows = Window.alert_fired_total m.Monitor.window;
      updates;
      phases;
    }

(* ------------------------------------------------------------------ *)
(* The two workloads                                                    *)
(* ------------------------------------------------------------------ *)

let run_static ~tier ~cost ~domains ~seed inst qdist ~queries_per_domain =
  if queries_per_domain < 1 then invalid_arg "Engine.run: queries_per_domain must be >= 1";
  let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
  let counters = Array.init D.space (fun _ -> Atomic.make 0) in
  (match tier with Monitored m -> m.Monitor.live_counts <- Some counters | _ -> ());
  let locks = make_locks ~cost ~space:D.space in
  serve ~domains ~tier
    (* Pre-sample each domain's query batch outside the timed section so
       throughput measures probing, not distribution sampling. *)
    ~sample:(fun () ->
      Array.init domains (fun w ->
          let rng = Rng.create (seed + (7919 * (w + 1))) in
          Array.init queries_per_domain (fun _ -> Qdist.sample qdist rng)))
    ~reader:(fun w wo ->
      let rng = Rng.create (seed lxor (104729 * (w + 1))) in
      let probes = ref 0 in
      let obs = Option.map (fun wo -> (wo, probes)) wo in
      let probe = make_probe ?obs ~cost ~counters ~locks D.table in
      { query = D.mem ~probe rng; probes = (fun () -> !probes); pin_ns = (fun () -> 0) })
    ~merge:(fun ~hits:_ _ ->
      let counts = Array.map Atomic.get counters in
      ( {
          t_name = D.name;
          t_counts = counts;
          t_probes = Array.fold_left ( + ) 0 counts;
          t_max_probes = D.max_probes;
        },
        None ))
    ()

(* One publication by the builder: apply a pending controller request
   first (a re-replication through the accounted build path, so its
   Level_merge events and rebuild counters fire), publish, reclaim, then
   record all of it on the builder's shard, journal ring and seqlock
   slot. Readers are never blocked: they keep serving the previous
   snapshot until the one Atomic.set inside the publish. *)
let publish_and_reclaim epoch bobs gcur =
  let applied = Epoch.apply_boost_request epoch in
  let pi = Epoch.publish_stats epoch in
  let freed = Epoch.try_reclaim epoch in
  match bobs with
  | None -> ()
  | Some bo ->
    let uids = bo.b_uids and d = bo.b_dom in
    Option.iter
      (fun (ba : Epoch.boost_applied) ->
        bo.b_record
          (Journal.Control_applied
             {
               id = ba.Epoch.ba_id;
               epoch = pi.Epoch.pi_epoch;
               boost = ba.Epoch.ba_boost;
               levels = ba.Epoch.ba_levels;
               cells = ba.Epoch.ba_cells;
               dur_ns = ba.Epoch.ba_ns;
             }))
      applied;
    bo.b_record
      (Journal.Epoch_publish
         {
           epoch = pi.Epoch.pi_epoch;
           batch = pi.Epoch.pi_batch;
           levels = pi.Epoch.pi_levels;
           fresh_cells = pi.Epoch.pi_fresh_cells;
           dur_ns = pi.Epoch.pi_dur_ns;
         });
    Metrics.incr d.shard uids.u_pubs_c 1;
    Metrics.observe d.shard uids.u_publish_h pi.Epoch.pi_dur_ns;
    Metrics.observe d.shard uids.u_batch_h pi.Epoch.pi_batch;
    if freed > 0 then begin
      Metrics.incr d.shard uids.u_reclaimed_c freed;
      bo.b_record
        (Journal.Reclaim
           {
             epoch = pi.Epoch.pi_epoch;
             freed;
             lag = Epoch.reclaim_lag_max epoch;
             pending = Epoch.retired_pending epoch;
           })
    end;
    Metrics.set_gauge d.shard uids.u_epoch_g (float_of_int pi.Epoch.pi_epoch);
    Metrics.set_gauge d.shard uids.u_retired_g (float_of_int (Epoch.retired_pending epoch));
    Metrics.set_gauge d.shard uids.u_lag_g (float_of_int (Epoch.reader_lag epoch));
    (* Builder allocation (level rebuilds dominate it) flushes at every
       publication so the windowed GC view sees write-side churn
       mid-run. *)
    sample_gc d.shard d.gids gcur;
    publish_slot d

(* The builder domain of a dynamic run: apply the update subsequence in
   stream order, publishing every [publish_every] updates and once at
   the end so readers finish against the complete table (and the
   monitor's last tick sees the complete builder shard). Returns the
   inserts, deletes and builder wall ns, measured whether or not
   telemetry is attached. *)
let dynamic_builder epoch ~updates ~publish_every ~adaptive bobs readers_done =
  let t_start = Lc_obs.Clock.now_ns () in
  let gcur = gc_cursor () in
  let publish () = publish_and_reclaim epoch bobs gcur in
  let span name f =
    match bobs with None -> f () | Some bo -> Span.with_span bo.b_dom.timeline name f
  in
  let inserts = ref 0 and deletes = ref 0 in
  let apply () =
    span "apply-updates" (fun () ->
        Array.iteri
          (fun i op ->
            (match op with
            | Opstream.Insert x ->
              Epoch.insert epoch x;
              incr inserts;
              Option.iter (fun bo -> Metrics.incr bo.b_dom.shard bo.b_uids.u_inserts_c 1) bobs
            | Opstream.Delete x ->
              Epoch.delete epoch x;
              incr deletes;
              Option.iter (fun bo -> Metrics.incr bo.b_dom.shard bo.b_uids.u_deletes_c 1) bobs
            | Opstream.Query _ -> assert false (* split put queries elsewhere *));
            if (i + 1) mod publish_every = 0 then publish ())
          updates;
        publish ());
    (* Adaptive runs: the update stream may drain long before the
       readers do, and without a builder no one could apply the
       controller's requests — so keep the builder alive until the
       orchestrator joins the readers, publishing whenever a boost
       request lands and dozing (never spinning) otherwise. The final
       check drains a request that raced the readers_done flag, so the
       post-run /control.json shows applied = target. *)
    if adaptive then
      span "boost-keepalive" (fun () ->
          while not (Atomic.get readers_done) do
            if Epoch.boost_pending epoch then publish ()
            else Unix.sleepf 0.001
          done;
          if Epoch.boost_pending epoch then publish ())
  in
  (match bobs with
  | None -> apply ()
  | Some bo ->
    (* Every level build lands in the builder's own shard (plain stores)
       the moment it happens — the windowed view and the flight recorder
       see rebuild cost mid-run, not at join. *)
    let inner = Epoch.inner epoch in
    Dynamic.set_build_hook inner (fun bi ->
        Metrics.incr bo.b_dom.shard bo.b_uids.u_cells_c bi.Dynamic.bi_cells;
        Metrics.observe bo.b_dom.shard bo.b_uids.u_rebuild_h bi.Dynamic.bi_ns;
        bo.b_record
          (Journal.Level_merge
             {
               level = bi.Dynamic.bi_index;
               keys = bi.Dynamic.bi_keys;
               replicas = bi.Dynamic.bi_replicas;
               cells = bi.Dynamic.bi_cells;
               dur_ns = bi.Dynamic.bi_ns;
             }));
    Fun.protect ~finally:(fun () -> Dynamic.clear_build_hook inner) apply);
  (!inserts, !deletes, ns_since t_start)

(* The dynamic serving mode: [domains] reader domains drain pre-split
   query batches through epoch-pinned lock-free probes while one builder
   domain applies the update subsequence in stream order, publishing a
   fresh snapshot every [publish_every] updates and reclaiming retired
   levels as readers leave. The spinlock cost model is a per-cell lock
   array sized at build time — meaningless when the cell set changes per
   publication — so dynamic serving accepts only [Free]. *)
let run_dynamic ~tier ~cost ~domains ~seed epoch ~ops ~publish_every =
  if publish_every < 1 then invalid_arg "Engine.run: publish_every must be >= 1";
  (match cost with
  | Free -> ()
  | Spinlock _ ->
    invalid_arg "Engine.run: the Spinlock cost model applies to static serving only");
  (* Adaptive runs: wire the controller's act step to the epoch's boost
     request channel before anything spawns. The monitor domain decides
     (Monitor.tick -> Controller.observe -> request_boost, one
     Atomic.set); the builder domain applies at its next publication. *)
  let controller = match tier with Monitored m -> m.Monitor.controller | _ -> None in
  Option.iter
    (fun ctl ->
      Lc_control.Controller.set_actuator ctl (fun ~id ~boost ->
          Epoch.request_boost epoch ~id ~boost);
      Lc_control.Controller.set_applied_reader ctl (fun () -> Epoch.applied_boost epoch))
    controller;
  let updates, query_batches = Opstream.split ops ~domains in
  (* Readers are registered on the orchestrator so worker domains never
     race the slot allocator; each gets a private rng. *)
  let readers =
    Array.init domains (fun w -> Epoch.reader epoch (Rng.create (seed lxor (104729 * (w + 1)))))
  in
  (* Run-scoped baselines: a preloaded epoch arrives with build work
     already on its lifetime totals (Dynamic counters never reset),
     while the engine_* metrics only ever see this run — subtracting
     the baseline keeps [update_stats] reconciling exactly with the
     counters and the windowed sums. *)
  let inner = Epoch.inner epoch in
  let cells0 = Dynamic.cells_written inner in
  let rebuilds0 = Dynamic.rebuilds inner in
  let rebuild_ns0 = Dynamic.rebuild_ns inner in
  let publish_ns0 = Epoch.publish_ns_total epoch in
  serve ~domains ~tier
    ~sample:(fun () -> query_batches)
    ~reader:(fun w wo ->
      let r = readers.(w) in
      let query =
        match wo with
        | None -> Epoch.mem epoch r
        | Some wo ->
          (* The observe hook feeds every probed cell (snapshot-global
             id) into the worker-private sketch, like the static probe. *)
          Option.iter (fun s -> Epoch.set_observe r (Heavy.observe s)) wo.sketch;
          Epoch.mem_phased epoch r
      in
      {
        query;
        probes = (fun () -> Epoch.reader_probes r);
        pin_ns = (fun () -> Epoch.reader_pin_ns r);
      })
    ~builder:(dynamic_builder epoch ~updates ~publish_every ~adaptive:(Option.is_some controller))
    ~merge:(fun ~hits built ->
      let inserts, deletes, builder_ns = Option.get built in
      (* Every reader is quiescent now, so the remainder of the retired
         list reclaims here (the orchestrator has taken over the builder
         role), and the readers' sketch hooks can be detached. *)
      ignore (Epoch.try_reclaim epoch : int);
      Array.iter Epoch.clear_observe readers;
      let snap = Epoch.current epoch in
      let cells_written = Dynamic.cells_written inner - cells0 in
      ( {
          t_name = "lc-dyn";
          t_counts = Epoch.snapshot_counts snap;
          t_probes = Array.fold_left (fun acc r -> acc + Epoch.reader_probes r) 0 readers;
          t_max_probes = Epoch.max_probes snap;
        },
        Some
          {
            inserts;
            deletes;
            query_hits = Array.fold_left ( + ) 0 hits;
            publications = Epoch.publications epoch;
            reclaimed = Epoch.reclaimed epoch;
            retired_pending = Epoch.retired_pending epoch;
            keys_rebuilt = Dynamic.keys_rebuilt inner;
            purges = Dynamic.purges inner;
            final_live = Epoch.live snap;
            final_epoch = Epoch.epoch snap;
            cells_written;
            rebuilds = Dynamic.rebuilds inner - rebuilds0;
            rebuild_ns = Dynamic.rebuild_ns inner - rebuild_ns0;
            publish_ns = Epoch.publish_ns_total epoch - publish_ns0;
            write_amp =
              (if inserts > 0 then float_of_int cells_written /. float_of_int inserts else 0.0);
            builder_ns;
            reclaim_lag_max = Epoch.reclaim_lag_max epoch;
          } ))
    ()

let run (cfg : Config.t) workload =
  let { Config.domains; seed; cost; _ } = cfg in
  let tier = Config.tier cfg in
  if domains < 1 then invalid_arg "Engine.run: domains must be >= 1";
  (match tier with
  | Monitored m when m.Monitor.domains <> domains ->
    invalid_arg
      (Printf.sprintf "Engine.run: monitor was created for %d domains, run got %d"
         m.Monitor.domains domains)
  | _ -> ());
  match workload with
  | Static { inst; qdist; queries_per_domain } ->
    run_static ~tier ~cost ~domains ~seed inst qdist ~queries_per_domain
  | Dynamic { epoch; ops; publish_every } ->
    run_dynamic ~tier ~cost ~domains ~seed epoch ~ops ~publish_every

let hotspot_ratio r = float_of_int r.hottest_count /. r.flat_bound

let answer_all ?(domains = 2) ~seed inst ~queries =
  if domains < 1 then invalid_arg "Engine.answer_all: domains must be >= 1";
  let (module D : Lc_dict.Dict_intf.S) = Instance.core inst in
  let probe : Lc_dict.Dict_intf.probe = fun ~step:_ j -> Table.peek D.table j in
  let n = Array.length queries in
  let out = Array.make n false in
  (* Round-robin index partition: workers write disjoint slots of [out],
     so the only shared mutable state is the (read-only) table cells. *)
  let worker w () =
    let rng = Rng.create (seed + (7919 * w)) in
    let answer i =
      let a = D.mem ~probe rng queries.(i) in
      out.(i) <- a;
      a
    in
    let mine = Array.init ((n - w + domains - 1) / domains) (fun k -> w + (k * domains)) in
    ignore (bare_loop answer mine : int)
  in
  let failure = ref None in
  ignore (run_workers failure domains worker : unit option array);
  Option.iter (fun (e, bt) -> Printexc.raise_with_backtrace e bt) !failure;
  out

let count_histogram r = histogram_of_counts r.counts

let top_cells r ~k =
  let indexed = Array.mapi (fun j c -> (j, c)) r.counts in
  Array.sort (fun (_, a) (_, b) -> compare b a) indexed;
  Array.to_list (Array.sub indexed 0 (min k (Array.length indexed)))
