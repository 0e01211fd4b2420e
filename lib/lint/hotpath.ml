(* What counts as "hot" for the scoped rules, as data.

   - [hot_module] (LC002): modules whose code runs on the probe, query,
     or publish path of the serving engine. Blocking there is a bug by
     construction. All of lib/parallel, lib/dict, lib/cellprobe,
     lib/dynamic (the epoch read path and the builder it feeds) and
     lib/workload (op streams consumed mid-run), plus the per-probe
     modules of lib/obs. lib/obs modules that run on the monitor/export
     side (span registry, HTTP server, exporters, JSON) are warm, not
     hot: they may block.
   - [shared_scope] (LC003, LC007): libraries whose values are reachable
     from more than one domain at once — the multicore engine, the
     observability layer it publishes into, the epoch-published dynamic
     dictionary (readers and builder share it by design), the op streams
     the engine deals across domains and the controller state scraped
     over HTTP.
   - [harness] (LC006 caller scan): single-domain driver code — the
     experiment registry, offline analysis, the perf suite and the
     lower-bound simulations. These build private instances and may call
     builder entry points freely; a "second writer" there is a
     sequential harness, not a race, so the ownership scan skips them.
     Everything else under lib/ participates: a stray writer in the
     dictionary or engine layers is exactly what LC006 exists to catch.
   - [hot_functions] (LC004 direct audit, LC008 roots): the per-module
     manifest of functions that must stay allocation-free (or carry a
     documented suppression). LC008 closes this manifest over the call
     graph, so helpers no longer need to be listed by hand — only the
     roots do. Factory functions that *build* hot closures
     (Engine.make_probe, one closure per cost model for every telemetry
     tier) are deliberately absent: closure construction there is
     per-run setup, and the closures' per-probe callees (Metrics.observe,
     Heavy.observe, Window.publish, Journal.record, Table.peek) are the
     manifest entries that audit the actual loop.
   - [published_types] (LC007): record types whose values are published
     across domains by the epoch/seqlock protocols. A plain field read
     of such a record must be dominated by a pin ([pin_functions]) —
     locally, or on every shared-scope caller path.
   - [pin_functions] (LC007): qualified names of the functions that
     establish a pin (epoch announcement or seqlock-validated copy). A
     read inside one of these, or inside a function that calls one
     before the read, or reachable only through them, is safe. *)

type t = {
  hot_module : string -> bool;
  shared_scope : string -> bool;
  harness : string -> bool;
  hot_functions : string -> string list;
  published_types : string list;  (* qualified "Module.type" names *)
  pin_functions : string list;  (* qualified "Module.fn" names *)
}

let has_prefix ~prefix s =
  String.length s >= String.length prefix && String.sub s 0 (String.length prefix) = prefix

let obs_hot =
  [
    "lib/obs/metrics.ml";
    "lib/obs/window.ml";
    "lib/obs/heavy.ml";
    "lib/obs/journal.ml";
    "lib/obs/clock.ml";
  ]

let default_manifest =
  [
    ("lib/obs/metrics.ml", [ "bucket_of"; "incr"; "set_gauge"; "observe" ]);
    (* Epoch read path: pin/mem/unpin run per query on every reader
       domain. The reader's probe closure factory (Epoch.reader) is
       deliberately absent — closure construction there is per-reader
       setup, same policy as Engine.make_probe. *)
    (* acquire/release are the parked-pin variants of pin/unpin;
       reader_lag/reader_staleness are the epoch-lifecycle gauges the
       monitor scrapes per window cut while readers probe — none may
       allocate. mem_phased is the instrumented variant of mem that
       also attributes pin time — it runs per query whenever phase
       accounting is on, so it belongs in the audit even though its
       clock reads carry a documented boxed-Int64 suppression.
       probe_pinned is the probe body both of them run per query, so it
       is audited directly, like them. *)
    ( "lib/dynamic/epoch.ml",
      [
        "pin"; "unpin"; "tombstoned"; "mem"; "acquire"; "release"; "reader_lag";
        "reader_staleness"; "mem_phased"; "probe_pinned";
      ] );
    (* Phase accounting flush and the per-window GC sample: each runs
       once per worker batch end / window publish on a worker domain —
       between query batches, not per query, but still inside the
       serving loop, so they are audited like the publish path. *)
    ("lib/parallel/engine.ml", [ "flush_phases"; "sample_gc" ]);
    (* The replication controller's sense→decide→act step runs on the
       monitor domain once per window cut, inside the serving loop's
       heartbeat — audited like the publish path. The policy step is
       the pure hysteresis core of that path. *)
    ("lib/control/controller.ml", [ "windowed_evidence"; "observe" ]);
    ("lib/control/policy.ml", [ "step" ]);
    ("lib/obs/heavy.ml", [ "observe"; "min_count"; "copy_into" ]);
    ("lib/obs/window.ml", [ "publish" ]);
    ("lib/obs/journal.ml", [ "record" ]);
    ("lib/cellprobe/table.ml", [ "peek" ]);
    ("lib/core/query.ml", [ "mem_probe" ]);
    ("lib/dict/fks.ml", [ "mem_probe" ]);
    ("lib/dict/dm_dict.ml", [ "mem_probe" ]);
    ("lib/dict/cuckoo.ml", [ "mem_probe" ]);
    ("lib/dict/sorted_array.ml", [ "mem_probe" ]);
  ]

let default =
  {
    hot_module =
      (fun p ->
        has_prefix ~prefix:"lib/parallel/" p
        || has_prefix ~prefix:"lib/dict/" p
        || has_prefix ~prefix:"lib/cellprobe/" p
        || has_prefix ~prefix:"lib/dynamic/" p
        || has_prefix ~prefix:"lib/workload/" p
        || List.mem p obs_hot);
    shared_scope =
      (fun p ->
        has_prefix ~prefix:"lib/parallel/" p
        || has_prefix ~prefix:"lib/obs/" p
        || has_prefix ~prefix:"lib/dynamic/" p
        || has_prefix ~prefix:"lib/workload/" p
        (* Controller state is written by the monitor domain and read
           racily by the HTTP scrape domain (/control.json, gauges). *)
        || has_prefix ~prefix:"lib/control/" p);
    harness =
      (fun p ->
        has_prefix ~prefix:"lib/experiments/" p
        || has_prefix ~prefix:"lib/analysis/" p
        || has_prefix ~prefix:"lib/perf/" p
        || has_prefix ~prefix:"lib/lowerbound/" p);
    hot_functions =
      (fun p -> match List.assoc_opt p default_manifest with Some fns -> fns | None -> []);
    (* Epoch snapshots and their levels are published by one Atomic.set
       and reclaimed against announced epochs; Window publishers are the
       worker-side seqlock slots that stable_read copies out. *)
    published_types = [ "Epoch.snapshot"; "Epoch.elevel"; "Window.publisher" ];
    pin_functions = [ "Epoch.pin"; "Epoch.acquire"; "Window.stable_read" ];
  }
