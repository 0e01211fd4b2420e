(* Postmortem artifacts: what the flight recorder dumps when the
   hotspot alert fires. The dump freezes three things the moment the
   quiet->firing edge is seen — the window ring, the journal rings, and
   the alert state — together with the same environment fingerprint a
   bench artifact carries, so "what led up to this alert" can be
   answered offline, from the JSON alone, long after the process is
   gone. *)

module Json = Lc_obs.Json
module Codec = Lc_obs.Codec
module Journal = Lc_obs.Journal
module Window = Lc_obs.Window
module Heavy = Lc_obs.Heavy

let schema_name = "lowcon-postmortem"
let schema_version = 1

type trigger = { index : int; ratio : float; factor : float }
type alert_state = { active : bool; firing_run : int; fired_total : int }

type t = {
  fingerprint : Artifact.fingerprint;
  structure : string;
  workload : string;
  domains : int;
  alert_factor : float;
  trigger : trigger;
  windows : Window.entry list;
  events : Journal.event list;
  dropped : int;
  alert : alert_state;
}

let capture ~fingerprint ~structure ~workload ~domains ~trigger:(e : Window.entry) mon =
  let w = Lc_parallel.Engine.Monitor.window mon in
  let factor = (Window.config w).Window.alert_factor in
  let events, dropped =
    match Lc_parallel.Engine.Monitor.journal mon with
    | None -> ([], 0)
    | Some j -> (Journal.events j, Journal.dropped j)
  in
  {
    fingerprint;
    structure;
    workload;
    domains;
    alert_factor = factor;
    trigger = { index = e.Window.index; ratio = e.Window.hotspot_ratio; factor };
    windows = Window.entries w;
    events;
    dropped;
    alert =
      {
        active = Window.alert_active w;
        firing_run = Window.alert_firing_run w;
        fired_total = Window.alert_fired_total w;
      };
  }

(* ---------------- the lowcon-postmortem description ---------------- *)

let case tag = Codec.case (Json.String tag)

let alert_args : (_, Journal.kind) Codec.args =
  Codec.[ arg "index" int; arg "ratio" float; arg "factor" float ]

(* A controller decision is journaled with exactly the members
   /control.json lists it with, so both use the monitor's description. *)
let decision_of_journal id window ratio cell count err score action old_boost new_boost cooldown =
  {
    Lc_control.Controller.d_id = id;
    d_window = window;
    d_ratio = ratio;
    d_cell = cell;
    d_count = count;
    d_err = err;
    d_score = score;
    d_action = action;
    d_old_boost = old_boost;
    d_new_boost = new_boost;
    d_cooldown = cooldown;
  }

let kind_codec =
  Codec.union "type"
    [
      case "window_cut"
        Codec.
          [
            arg "index" int;
            arg "queries" int;
            arg "qps" float;
            arg "p50_ns" float;
            arg "p99_ns" float;
            arg "hotspot_ratio" float;
            arg "alert" bool;
          ]
        (fun index queries qps p50_ns p99_ns hotspot_ratio alert ->
          Journal.Window_cut { index; queries; qps; p50_ns; p99_ns; hotspot_ratio; alert })
        (function
          | Journal.Window_cut { index; queries; qps; p50_ns; p99_ns; hotspot_ratio; alert } ->
            Some Codec.[ index; queries; qps; p50_ns; p99_ns; hotspot_ratio; alert ]
          | _ -> None);
      case "alert_raised" alert_args
        (fun index ratio factor -> Journal.Alert_raised { index; ratio; factor })
        (function
          | Journal.Alert_raised { index; ratio; factor } -> Some Codec.[ index; ratio; factor ]
          | _ -> None);
      case "alert_cleared" alert_args
        (fun index ratio factor -> Journal.Alert_cleared { index; ratio; factor })
        (function
          | Journal.Alert_cleared { index; ratio; factor } -> Some Codec.[ index; ratio; factor ]
          | _ -> None);
      case "sketch_snapshot"
        Codec.[ arg "top" (list (triple int int int)) ]
        (fun top -> Journal.Sketch_snapshot { top })
        (function Journal.Sketch_snapshot { top } -> Some Codec.[ top ] | _ -> None);
      case "stage"
        Codec.[ arg "name" string; arg "mark" (enum [ ("begin", `Begin); ("end", `End) ]) ]
        (fun name mark -> Journal.Stage { name; mark })
        (function Journal.Stage { name; mark } -> Some Codec.[ name; mark ] | _ -> None);
      case "publish"
        Codec.[ arg "queries" int ]
        (fun queries -> Journal.Publish { queries })
        (function Journal.Publish { queries } -> Some Codec.[ queries ] | _ -> None);
      case "epoch_publish"
        Codec.
          [
            arg "epoch" int;
            arg "batch" int;
            arg "levels" int;
            arg "fresh_cells" int;
            arg "dur_ns" int;
          ]
        (fun epoch batch levels fresh_cells dur_ns ->
          Journal.Epoch_publish { epoch; batch; levels; fresh_cells; dur_ns })
        (function
          | Journal.Epoch_publish { epoch; batch; levels; fresh_cells; dur_ns } ->
            Some Codec.[ epoch; batch; levels; fresh_cells; dur_ns ]
          | _ -> None);
      case "level_merge"
        Codec.
          [ arg "level" int; arg "keys" int; arg "replicas" int; arg "cells" int; arg "dur_ns" int ]
        (fun level keys replicas cells dur_ns ->
          Journal.Level_merge { level; keys; replicas; cells; dur_ns })
        (function
          | Journal.Level_merge { level; keys; replicas; cells; dur_ns } ->
            Some Codec.[ level; keys; replicas; cells; dur_ns ]
          | _ -> None);
      case "reclaim"
        Codec.[ arg "epoch" int; arg "freed" int; arg "lag" int; arg "pending" int ]
        (fun epoch freed lag pending -> Journal.Reclaim { epoch; freed; lag; pending })
        (function
          | Journal.Reclaim { epoch; freed; lag; pending } ->
            Some Codec.[ epoch; freed; lag; pending ]
          | _ -> None);
      case "control_decision"
        Codec.[ inline Lc_parallel.Engine.Monitor.decision_codec ]
        (fun (d : Lc_control.Controller.decision) ->
          Journal.Control_decision
            {
              id = d.d_id;
              window = d.d_window;
              ratio = d.d_ratio;
              cell = d.d_cell;
              count = d.d_count;
              err = d.d_err;
              score = d.d_score;
              action = d.d_action;
              old_boost = d.d_old_boost;
              new_boost = d.d_new_boost;
              cooldown = d.d_cooldown;
            })
        (function
          | Journal.Control_decision
              { id; window; ratio; cell; count; err; score; action; old_boost; new_boost; cooldown }
            ->
            Some
              Codec.
                [
                  decision_of_journal id window ratio cell count err score action old_boost
                    new_boost cooldown;
                ]
          | _ -> None);
      case "control_applied"
        Codec.
          [
            arg "id" int;
            arg "epoch" int;
            arg "boost" int;
            arg "levels" int;
            arg "cells" int;
            arg "dur_ns" int;
          ]
        (fun id epoch boost levels cells dur_ns ->
          Journal.Control_applied { id; epoch; boost; levels; cells; dur_ns })
        (function
          | Journal.Control_applied { id; epoch; boost; levels; cells; dur_ns } ->
            Some Codec.[ id; epoch; boost; levels; cells; dur_ns ]
          | _ -> None);
    ]

let event_codec =
  Codec.record
    (fun t_ns writer seq kind -> { Journal.t_ns; writer; seq; kind })
    Codec.
      [
        req "t_ns" (map Int64.of_int Int64.to_int int) (fun e -> e.Journal.t_ns);
        req "writer" int (fun e -> e.Journal.writer);
        req "seq" int (fun e -> e.Journal.seq);
        flat kind_codec (fun e -> e.Journal.kind);
      ]

let trigger_codec =
  Codec.record
    (fun index ratio factor -> { index; ratio; factor })
    Codec.
      [
        req "index" int (fun g -> g.index);
        req "ratio" float (fun g -> g.ratio);
        req "factor" float (fun g -> g.factor);
      ]

let alert_codec =
  Codec.record
    (fun active firing_run fired_total -> { active; firing_run; fired_total })
    Codec.
      [
        req "active" bool (fun a -> a.active);
        req "firing_run" int (fun a -> a.firing_run);
        req "fired_total" int (fun a -> a.fired_total);
      ]

let codec =
  Codec.document ~schema:schema_name ~version:schema_version
    ~describe:(fun t ->
      Printf.sprintf "%d windows, %d events, trigger window %d" (List.length t.windows)
        (List.length t.events) t.trigger.index)
    (Codec.record
       (fun fingerprint structure workload domains alert_factor trigger windows events dropped
            alert ->
         {
           fingerprint;
           structure;
           workload;
           domains;
           alert_factor;
           trigger;
           windows;
           events;
           dropped;
           alert;
         })
       Codec.
         [
           req "fingerprint" Artifact.fingerprint_codec (fun t -> t.fingerprint);
           req "structure" string (fun t -> t.structure);
           req "workload" string (fun t -> t.workload);
           req "domains" int (fun t -> t.domains);
           req "alert_factor" float (fun t -> t.alert_factor);
           req "trigger" trigger_codec (fun t -> t.trigger);
           req "windows" (list Lc_parallel.Engine.Monitor.window_codec) (fun t -> t.windows);
           req "events" (list event_codec) (fun t -> t.events);
           req "dropped" int (fun t -> t.dropped);
           req "alert" alert_codec (fun t -> t.alert);
         ])

let to_json = Codec.to_json codec
let to_string = Codec.to_string ~what:"Postmortem.to_string" codec
let write ~path t = Lc_obs.Export.write_file ~path (to_string t)
let of_json = Codec.of_json codec
let of_string = Codec.of_string codec
let load = Codec.load codec

(* ---------------- analysis ---------------- *)

let kind_line = function
  | Journal.Window_cut { index; queries; qps; p99_ns; hotspot_ratio; alert; _ } ->
    Printf.sprintf "window %3d cut: %d queries, %.0f q/s, p99 %.1f us, hotspot %.1fx%s" index
      queries qps (p99_ns /. 1e3) hotspot_ratio
      (if alert then "  << ALERT" else "")
  | Journal.Alert_raised { index; ratio; factor } ->
    Printf.sprintf "ALERT RAISED at window %d: ratio %.1fx > factor %.1fx" index ratio factor
  | Journal.Alert_cleared { index; ratio; factor } ->
    Printf.sprintf "alert cleared at window %d: ratio %.1fx <= factor %.1fx" index ratio factor
  | Journal.Sketch_snapshot { top } ->
    let cells =
      top
      |> List.filteri (fun i _ -> i < 4)
      |> List.map (fun (i, c, e) -> Printf.sprintf "%d:%d±%d" i c e)
      |> String.concat " "
    in
    Printf.sprintf "sketch top: %s" (if cells = "" then "(empty)" else cells)
  | Journal.Stage { name; mark } ->
    Printf.sprintf "stage %s %s" name (match mark with `Begin -> "begin" | `End -> "end")
  | Journal.Publish { queries } -> Printf.sprintf "worker published (cumulative %d queries)" queries
  | Journal.Epoch_publish { epoch; batch; levels; fresh_cells; dur_ns } ->
    Printf.sprintf "epoch %d published: %d update(s), %d level(s), %d fresh cell(s), %.1f us"
      epoch batch levels fresh_cells
      (float_of_int dur_ns /. 1e3)
  | Journal.Level_merge { level; keys; replicas; cells; dur_ns } ->
    Printf.sprintf "level %d merge: %d key(s) x %d replica(s) -> %d cell(s), %.1f us" level keys
      replicas cells
      (float_of_int dur_ns /. 1e3)
  | Journal.Reclaim { epoch; freed; lag; pending } ->
    Printf.sprintf "reclaim at epoch %d: freed %d level(s) (max lag %d), %d still retired" epoch
      freed lag pending
  | Journal.Control_decision { id; window; ratio; cell; score; action; old_boost; new_boost; cooldown; count; err } ->
    Printf.sprintf
      "CONTROL #%d at window %d: %s boost %d -> %d (ratio %.1fx, cell %d tally %d±%d, score %d, cooldown %d)"
      id window
      (match action with `Raise -> "RAISE" | `Lower -> "lower")
      old_boost new_boost ratio cell count err score cooldown
  | Journal.Control_applied { id; epoch; boost; levels; cells; dur_ns } ->
    Printf.sprintf
      "control #%d applied at epoch %d: boost %d, %d level(s) rebuilt (%d cells, %.1f us)" id
      epoch boost levels cells
      (float_of_int dur_ns /. 1e3)

let writer_label ~domains w =
  if w = 0 then "orch "
  else if w <= domains then Printf.sprintf "wrk%-2d" w
  else if w = domains + 1 then "mon  "
  else if w = domains + 2 then "bld  "
  else "ctl  "

let analyze t =
  let buf = Buffer.create 4096 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "postmortem: %s / %s on %d domains (alert factor %.1fx, git %s, seed %d)\n" t.structure
    t.workload t.domains t.alert_factor
    (String.sub t.fingerprint.Artifact.git_rev 0
       (min 12 (String.length t.fingerprint.Artifact.git_rev)))
    t.fingerprint.Artifact.seed;
  (* A dump is also written at the end of a run whose alert may never
     have fired; its trigger is then just the last window, below the
     bound. The alert fires on ratio > factor, so "exceeded" is claimed
     exactly then. *)
  if t.trigger.ratio > t.trigger.factor then
    add "trigger: window %d hotspot ratio %.1fx exceeded %.1fx the flat bound\n" t.trigger.index
      t.trigger.ratio t.trigger.factor
  else
    add "end-of-run capture: window %d hotspot ratio %.3gx, below %.1fx the flat bound\n"
      t.trigger.index t.trigger.ratio t.trigger.factor;
  add "alert state at dump: %s (firing run %d, fired in %d window(s) total)\n"
    (if t.alert.active then "FIRING" else "quiet")
    t.alert.firing_run t.alert.fired_total;
  let alert_windows = List.filter (fun (w : Window.entry) -> w.Window.alert) t.windows in
  add "windows retained: %d (%d in alert)\n" (List.length t.windows) (List.length alert_windows);
  if t.dropped > 0 then add "journal: %d event(s) overwritten before the dump\n" t.dropped;
  (match t.events with
  | [] -> add "no journal events (run without a flight recorder)\n"
  | first :: _ ->
    add "\ntimeline (%d events, t0 = first retained event):\n" (List.length t.events);
    let t0 = first.Journal.t_ns in
    List.iter
      (fun (e : Journal.event) ->
        add "  +%10.3f ms  [%s]  %s\n"
          (Int64.to_float (Int64.sub e.Journal.t_ns t0) /. 1e6)
          (writer_label ~domains:t.domains e.Journal.writer)
          (kind_line e.Journal.kind))
      t.events);
  (* The hot cells as last sketched before (or at) the raise. *)
  let snap_before_raise =
    let rec scan last = function
      | [] -> last
      | { Journal.kind = Journal.Sketch_snapshot { top }; _ } :: rest -> scan (Some top) rest
      | { Journal.kind = Journal.Alert_raised _; _ } :: _ -> last
      | _ :: rest -> scan last rest
    in
    scan None t.events
  in
  (match snap_before_raise with
  | Some ((_ :: _) as top) ->
    add "\nhot cells at the raise (item: count±err):\n";
    List.iteri
      (fun i (item, count, err) -> if i < 8 then add "  cell %d: %d±%d\n" item count err)
      top
  | _ -> ());
  Buffer.contents buf
