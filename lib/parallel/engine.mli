(** The multicore query-serving engine — Theorem 3's contention bound as
    measured hardware traffic.

    The sequential harness ({!Lc_cellprobe.Contention},
    {!Lc_cellprobe.Concurrency}) {e counts} or {e simulates} the probes
    that concurrent queries would aim at each cell. This engine runs
    them: [m] OCaml 5 domains issue membership queries against one
    shared table through the reentrant {!Lc_dict.Dict_intf.S} core,
    every probe does a fetch-and-add on a per-cell [Atomic.t] counter,
    and an optional per-cell spinlock makes same-cell visits genuinely
    serialise — the cost model a shared-memory multiprocessor imposes on
    a contended line. What comes out is wall-clock throughput plus the
    exact per-cell probe tally, so "contention [Theta(sqrt n)] vs
    [O(1/n)]" (paper Section 1.3) becomes a measured gap rather than a
    counted one.

    All randomness is per-domain ([Rng.t] is not shared), table cells
    are written only at construction time, and the probing mode never
    touches the table's sequential counters, so runs are data-race
    free. The machine's core count only affects the wall-clock columns;
    probe counts are exact regardless. *)

type cost =
  | Free
      (** Probes cost one fetch-and-add; contention shows up only
          through cache-line traffic on the counters themselves. *)
  | Spinlock of { hold : int }
      (** Each probe acquires a per-cell test-and-set spinlock and holds
          it for [hold] extra [Domain.cpu_relax] iterations: concurrent
          visits to one cell serialise, so a structure with a
          contention-[Theta(1)] cell (binary search's root, unreplicated
          FKS's parameter cell) pays wall-clock time proportional to its
          hot-spot traffic. *)

type result = {
  name : string;  (** Structure name, from the core. *)
  domains : int;  (** Worker domains, the paper's [m]. *)
  queries : int;  (** Total queries served ([domains * queries_per_domain]). *)
  seconds : float;  (** Wall-clock for the serving phase only. *)
  throughput : float;  (** Queries per second. *)
  total_probes : int;  (** Sum of all per-cell counters. *)
  counts : int array;  (** Per-cell atomic probe tallies, length [space]. *)
  hottest_cell : int;  (** Index of the most-probed cell. *)
  hottest_count : int;  (** Its tally — the observed hot spot. *)
  hottest_share : float;  (** [hottest_count / total_probes]. *)
  flat_bound : float;
      (** [queries * max_probes / space] — the per-cell tally a
          perfectly flat (contention [1/s]) structure would show.
          {!hotspot_ratio} divides by this. *)
}

(** {1 Phase accounting}

    The scaling observatory's time-attribution layer: when a run is
    instrumented ([obs] or [monitor] present), every worker splits its
    batch wall time into disjoint monotonic-clock phases, kept in a
    plain record the worker alone writes (same single-writer discipline
    as the metric shards) and read by the orchestrator strictly after
    the join. The invariant tests assert is exact by construction:

    [probe + tally + publish + pin + other = wall].

    [other] is the defined residual (loop overhead, the accounting
    itself, GC pauses between windows); [idle] is serve wall minus the
    worker's own batch wall (spawn/join skew), filled in post-join.
    Totals are also flushed once per worker into the
    [engine_phase_*_ns_total] counters, so [/metrics] and
    [/scaling.json] carry the same numbers. Tally increments on
    per-cell atomics happen {e inside} the dictionary's [mem], so they
    are attributed to probe work — the probe phase is "time the hot
    path spent where contention lives". *)

type phase_stats = {
  ph_domain : int;  (** Worker index [0 .. domains-1]. *)
  mutable ph_probe_ns : int;
      (** Inside the dictionary's [mem] (cell reads, per-cell tallies,
          spin waits); for dynamic runs, minus the pin phase below. *)
  mutable ph_tally_ns : int;
      (** Per-query telemetry recording (latency observe, counters). *)
  mutable ph_publish_ns : int;
      (** Periodic seqlock window publishes + GC sampling + journal
          appends (the final batch-end publish is not charged). *)
  mutable ph_pin_ns : int;
      (** Epoch pin/unpin announcements ({!Lc_dynamic.Epoch.mem_phased});
          0 for static runs. *)
  mutable ph_other_ns : int;  (** Exact residual: [wall] minus the above. *)
  mutable ph_wall_ns : int;  (** The worker's batch wall time. *)
  mutable ph_idle_ns : int;
      (** Serve wall minus [ph_wall_ns], filled in after the join. *)
}

val phase_counter_names : (string * string) list
(** [(phase, counter_name)] pairs for the seven
    [engine_phase_*_ns_total] counters ([probe], [tally], [publish],
    [pin], [other], [wall], [idle]) — shared by registration, the
    [/scaling.json] body and the scaling artifact. *)

val gc_metric_names : Lc_obs.Window.gc_config
(** Names of the per-domain GC allocation counters instrumented runs
    register ([engine_gc_minor_words_total],
    [engine_gc_promoted_words_total], [engine_gc_major_words_total]) —
    each worker flushes its own [Gc.counters] deltas into its shard at
    batch end and before every window publish, so the windowed GC view
    and the scaling artifact read per-domain allocation without any
    cross-domain [Gc] call on the hot path. *)

(** Live monitoring for a serving run: a monitor domain that cuts
    {!Lc_obs.Window} snapshots on an interval while the workers are hot,
    per-worker {!Lc_obs.Heavy} hot-cell sketches published through the
    window seqlocks, and ready-made {!Lc_obs.Http} routes for scraping
    the whole thing mid-run. *)
module Monitor : sig
  type t

  val create :
    ?ring:int ->
    ?interval_s:float ->
    ?publish_period:int ->
    ?top_k:int ->
    ?alert_factor:float ->
    ?on_window:(Lc_obs.Window.entry -> unit) ->
    ?journal:Lc_obs.Journal.t ->
    ?on_alert:(Lc_obs.Window.entry -> unit) ->
    ?obs:Lc_obs.Obs.t ->
    domains:int ->
    Lc_dict.Instance.t ->
    t
  (** A monitor for one monitored {!run} over [inst] with [domains]
      workers. Registers the engine metrics on [obs] (a fresh handle is
      created when omitted) and sizes one window publisher per domain
      plus the orchestrator.

      - [ring] (default 512): windows retained, oldest evicted.
      - [interval_s] (default 0.25): monitor tick period — one window
        per tick.
      - [publish_period] (default 256): queries between a worker's
        seqlock publications.
      - [top_k] (default 16): hot-cell sketch capacity per worker.
      - [alert_factor] (default 8.0): fire when the windowed
        [engine_hotspot_ratio] exceeds this multiple of the flat
        [1/s]-per-query bound — Theorem 3 keeps the ratio [O(1)], so a
        modest factor separates the low-contention dictionary from any
        [Theta(sqrt n)] regression.
      - [on_window]: called on the monitor domain with each completed
        window (the [lowcon monitor] dashboard hook); exceptions are
        swallowed.
      - [journal]: a flight-recorder ring ({!Lc_obs.Journal}) the run
        writes engine events into — window cuts, top-k sketch snapshots,
        alert raise/clear transitions, worker publications and
        orchestrator build/serve stage marks. Must have been created
        with at least [domains + 2] writers (ring 0 is the orchestrator,
        rings 1..[domains] the workers, ring [domains + 1] the monitor
        domain). A {!Dynamic} run additionally records builder events
        (epoch publish, level merge, reclaim) on ring [domains + 2]
        when the journal was sized with [domains + 3] writers — with
        fewer, the builder is simply silent and everything else works
        as before. An attached controller ({!attach_controller})
        likewise records its decisions on ring [domains + 3] when the
        journal has [domains + 4] writers, and is silent with fewer.
        Recording is lock-free and allocation-light, so a
        journal can stay attached to production runs and be dumped only
        when something fires.
      - [on_alert]: called once per quiet->firing alert {e edge} (not
        per firing window) on whichever domain cut the window — the
        dump-on-alert postmortem hook. Exceptions are swallowed.

      A monitor is single-use: its sketches and window deltas are
      cumulative, so reusing one across runs conflates their streams
      (create a fresh monitor per run, like a fresh [obs] handle). *)

  val create_for :
    ?ring:int ->
    ?interval_s:float ->
    ?publish_period:int ->
    ?top_k:int ->
    ?alert_factor:float ->
    ?on_window:(Lc_obs.Window.entry -> unit) ->
    ?journal:Lc_obs.Journal.t ->
    ?on_alert:(Lc_obs.Window.entry -> unit) ->
    ?obs:Lc_obs.Obs.t ->
    domains:int ->
    space:int ->
    max_probes:int ->
    unit ->
    t
  (** {!create} generalised to an explicit [space] / [max_probes]
      budget instead of an {!Lc_dict.Instance.t} — what the dynamic
      serving mode needs, where there is no static instance and the
      budget comes from a published {!Lc_dynamic.Epoch} snapshot
      (typically the preloaded one; the windowed flat bound then tracks
      that budget even as later publications change the level set).
      All other parameters and the single-use rule are as for
      {!create}. *)

  val obs : t -> Lc_obs.Obs.t
  val window : t -> Lc_obs.Window.t
  val interval_s : t -> float

  val journal : t -> Lc_obs.Journal.t option
  (** The attached flight recorder, if any. *)

  val controller : t -> Lc_control.Controller.t option
  (** The attached replication controller, if any. *)

  val attach_controller : t -> Lc_control.Controller.t -> unit
  (** Attach a {!Lc_control.Controller.t} before serving starts. The
      monitor domain becomes the controller's observing domain: every
      {!tick} feeds the cut window's sketch entries into
      {!Lc_control.Controller.observe}, so decisions happen at window
      granularity with no extra domain. A {!Dynamic} run wires the
      controller's actuator to {!Lc_dynamic.Epoch.request_boost}
      automatically; decisions are journaled on ring
      [{!controller_writer} ~domains] when the monitor's journal is
      sized for it. *)

  val controller_writer : domains:int -> int
  (** [domains + 3] — the journal ring an attached controller records
      its decisions on (after orchestrator [0], workers [1..domains],
      monitor [domains + 1] and builder [domains + 2]); size the
      journal with at least [domains + 4] writers to capture them. *)

  val tick : t -> Lc_obs.Window.entry
  (** Cut one window now: {!Lc_obs.Window.tick} plus journal recording
      (window cut, sketch snapshot, alert edges), the controller step
      when one is attached, and the [on_alert] / [on_window] callbacks.
      Monitored {!run}s call this from the monitor domain every
      [interval_s] and once after the join; exposed for tests and
      custom drivers. *)

  val updates_schema_name : string
  (** ["lowcon-updates"] — the [/updates.json] document's schema, so
      [lowcon validate] recognises a saved scrape by content. *)

  val updates_schema_version : int

  val scaling_schema_name : string
  (** ["lowcon-scaling-live"] — the [/scaling.json] document's schema.
      Distinct from the offline ["lowcon-scaling"] artifact written by
      [lowcon scale]: this is one run's live telemetry, that is a
      fitted domain sweep. *)

  val scaling_schema_version : int

  val control_schema_name : string
  (** ["lowcon-control"] — the [/control.json] document's schema:
      the controller's policy, live hysteresis state and full decision
      log, reconciling field for field with the journaled
      [Control_decision] events. *)

  val control_schema_version : int

  val control_json : t -> string
  (** The [/control.json] body, also available without an HTTP server —
      what [lowcon monitor --control-out] saves for offline
      [lowcon validate] / reconciliation. *)

  val routes : t -> Lc_obs.Http.route list
  (** Scrape routes over the live (seqlock-read) state, safe to serve
      from an {!Lc_obs.Http} domain mid-run:

      - [/metrics] — Prometheus text: the merged cumulative snapshot
        (counters monotone across scrapes) plus the per-window gauges
        ({!Lc_obs.Window.prometheus_gauges});
      - [/snapshot.json] — the merged snapshot as JSON
        ({!Lc_obs.Export.json_snapshot});
      - [/cells.json] — merged top-k sketch entries with error bounds,
        plus an exact log-bucketed per-cell count histogram read from
        the engine's live atomics;
      - [/windows.json] — the window ring and alert state;
      - [/updates.json] — the update-path view, schema-versioned
        (["lowcon-updates"] v1): cumulative builder counters (null when
        the run never exercised the update path) and the per-window
        update entries (ups, publications/s, write-amp, rebuild
        p50/p99, epoch/retired/reader-lag gauges);
      - [/scaling.json] — the scaling observatory's live view,
        schema-versioned (["lowcon-scaling-live"] v1): cumulative
        per-phase time attribution, GC allocation counters with the
        per-window GC entries, and the cache-line co-heat diagnostic
        (null for runs without live per-cell counters);
      - [/control.json] — the replication controller's view,
        schema-versioned (["lowcon-control"] v1): policy constants,
        live hysteresis state (score, cooldown, last windowed ratio)
        and the complete decision log ([attached: false] when no
        controller is attached);
      - [/healthz] — liveness.

      [/cells.json] additionally carries the same co-heat object next
      to its count histogram. *)
end

(** {1 The unified entry point}

    One configuration record, one [run] function, two workload shapes.
    [Config] carries everything that describes {e how} to serve
    (parallelism, seed, cost model, observability); the {!workload}
    variant describes {e what} to serve — a static instance under a
    query distribution, or an epoch-published dynamic dictionary under
    a mixed insert/delete/query stream. *)

module Config : sig
  type t = {
    domains : int;  (** Worker (reader) domains, the paper's [m]. *)
    seed : int;  (** Seeds batch sampling and per-domain rngs. *)
    cost : cost;  (** Probe cost model; {!Static} workloads only. *)
    obs : Lc_obs.Obs.t option;
        (** Observability handle: per-domain metric shards and span
            timelines, so telemetry adds no shared mutable state to
            the hot path. Absent = telemetry-free serving. *)
    monitor : Monitor.t option;
        (** Live monitoring; its handle supersedes [obs] when present, so
            [obs] must then be absent or [Monitor.obs monitor]. *)
  }

  val make :
    ?cost:cost ->
    ?obs:Lc_obs.Obs.t ->
    ?monitor:Monitor.t ->
    domains:int ->
    seed:int ->
    unit ->
    t
  (** [cost] defaults to {!Free}; [obs] and [monitor] to absent. Raises
      [Invalid_argument] when both [obs] and [monitor] are given and
      [obs] is not [Monitor.obs monitor] — it would be silently
      dropped. *)
end

type workload =
  | Static of {
      inst : Lc_dict.Instance.t;
      qdist : Lc_cellprobe.Qdist.t;
      queries_per_domain : int;
    }
      (** The read-only serving mode: each domain drains a pre-sampled
          batch of [queries_per_domain] membership queries against a
          static instance. *)
  | Dynamic of {
      epoch : Lc_dynamic.Epoch.t;
      ops : Lc_workload.Opstream.op array;
      publish_every : int;
    }
      (** The read-write serving mode. [ops] is split by
          {!Lc_workload.Opstream.split}: queries are dealt round-robin
          to the [domains] reader domains (lock-free epoch-pinned
          probes), updates go in stream order to one extra builder
          domain, which publishes a snapshot every [publish_every]
          updates (plus once at stream end) and reclaims retired levels
          as readers leave. Requires [cost = Free]: the per-cell
          spinlock array is meaningless when the cell set changes per
          publication. Updates invisible to readers between
          publications; telemetry reconciles exactly —
          [engine_queries_total] = query ops, [engine_probes_total] =
          the readers' cumulative probe count. *)

type update_stats = {
  inserts : int;  (** Insert ops applied by the builder. *)
  deletes : int;  (** Delete ops applied by the builder. *)
  query_hits : int;  (** Queries that answered [true]. *)
  publications : int;  (** Snapshots published. *)
  reclaimed : int;  (** Levels freed by epoch reclamation. *)
  retired_pending : int;
      (** Retired levels still unfreed at the end — 0 after the
          post-join reclaim unless a reader leaked a pin. *)
  keys_rebuilt : int;  (** {!Lc_dynamic.Dynamic.keys_rebuilt} total. *)
  purges : int;  (** Tombstone purges triggered. *)
  final_live : int;  (** Live keys in the final snapshot. *)
  final_epoch : int;  (** Epoch of the final snapshot. *)
  cells_written : int;
      (** Exact cells written by level builds {e during this run}
          (lifetime {!Lc_dynamic.Dynamic.cells_written} minus the
          preload baseline) — reconciles with the
          [engine_cells_written_total] counter and the windowed
          [u_cells] sums. [rebuilds], [rebuild_ns] and [publish_ns]
          are baselined the same way. *)
  rebuilds : int;  (** Level builds performed. *)
  rebuild_ns : int;  (** Wall ns spent inside level builds. *)
  publish_ns : int;  (** Wall ns spent inside {!Lc_dynamic.Epoch.publish}. *)
  write_amp : float;
      (** [cells_written / inserts] — cells written per key inserted;
          0 when the stream had no inserts. *)
  builder_ns : int;
      (** Builder-domain wall time over the whole update stream,
          measured whether or not telemetry is attached — the numerator
          of ns/update. *)
  reclaim_lag_max : int;
      (** Worst reclamation lag in epochs
          ({!Lc_dynamic.Epoch.reclaim_lag_max}). *)
}

type outcome = {
  result : result;
      (** For {!Dynamic}: [queries] counts query ops, [counts] /
          [flat_bound] describe the {e final} snapshot's cells (probes
          to levels retired mid-run are preserved in [total_probes]
          but not in [counts]), and [name] is ["lc-dyn"]. *)
  windows : Lc_obs.Window.entry list;
      (** The window ring at completion, oldest first. The final entry
          is cut after the workers join, so summing [queries] over
          [windows] (when none were evicted) reconciles exactly with
          [result.queries], and its [hotspot_ratio] agrees with
          {!hotspot_ratio} of [result] to within the sketch error
          bound. *)
  cells : Lc_obs.Heavy.merged option;
      (** Final merged hot-cell sketch ([None] without a monitor). *)
  alert_windows : int;  (** Windows that fired the hotspot alert. *)
  updates : update_stats option;
      (** Builder-side statistics; [None] for {!Static} workloads. *)
  phases : phase_stats array option;
      (** Per-worker phase accounting, one element per worker domain;
          [None] exactly when the run was uninstrumented (no [obs], no
          [monitor]) — the obs-off hot path stays byte-identical. *)
}

val run : Config.t -> workload -> outcome
(** The single entry point. [run config (Static ...)] is the windowed
    read-only mode (telemetry-free when unobserved); [run config
    (Dynamic ...)] is the epoch-published read-write mode, with online
    re-replication when the config's monitor carries an attached
    controller. Raises [Invalid_argument] on a monitor sized for a
    different domain count, on an [obs] that is not the monitor's own
    handle, and for {!Dynamic} with a [Spinlock] cost.

    When a worker or the builder raises mid-run, [run] still joins
    every domain it spawned (releasing an adaptive builder and stopping
    the monitor domain, which cuts no further window) and then re-raises
    the first exception with its original backtrace. *)

val probe_sample_period : int
(** The engine samples 1 probe in this many for
    [engine_probe_latency_ns] — a calibration constant recorded in perf
    artifact fingerprints so artifacts from different engine builds are
    not silently compared. *)

val hotspot_ratio : result -> float
(** [hotspot_ratio r] is [r.hottest_count /. r.flat_bound]: how many
    times over the perfectly-flat tally the worst cell is. [O(1)] for
    the low-contention dictionary (Theorem 3); [Theta(space)] for a
    structure that funnels every query through one cell. *)

val answer_all :
  ?domains:int -> seed:int -> Lc_dict.Instance.t -> queries:int array -> bool array
(** [answer_all ~domains ~seed inst ~queries] answers the whole query
    array by round-robin partition across [domains] concurrent domains
    (counter-free probes), returning answers aligned with [queries] —
    the multi-domain counterpart of mapping [inst.mem] sequentially,
    used by the tier-1 agreement tests. Default [domains] is 2. *)

val count_histogram : result -> (int * int) list
(** Log-bucketed per-cell histogram: pairs [(upper, cells)] meaning
    [cells] cells received between [prev_upper + 1] and [upper] probes
    ([(0, k)] counts untouched cells). Buckets are powers of two; empty
    buckets are omitted. *)

val top_cells : result -> k:int -> (int * int) list
(** The [k] hottest cells as [(cell, count)], descending. *)
