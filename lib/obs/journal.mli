(** The flight recorder's storage: per-domain lock-free ring journals of
    recent engine events.

    PR 3's live observatory answers "what is happening now"; when the
    hotspot alert fires, the question becomes "what {e led up to} this"
    — and by then the evidence (recent windows, sketch states, stage
    boundaries) is gone unless someone kept it. Each recording domain
    (orchestrator, workers, monitor) owns one fixed-capacity ring;
    {!record} is two plain stores with no lock, CAS, or allocation
    beyond the event itself, so journalling adds nothing observable to
    the serving hot path (workers record once per publish period, not
    per query). Old events are overwritten, newest win — exactly the
    recency a postmortem wants.

    Reading ({!events}) may race with writers; this is deliberate and
    safe: slots hold immutable records, so a concurrent reader sees each
    slot's previous or current event, never a torn one. A dump taken at
    alert time is therefore best-effort-fresh rather than a consistent
    cut, which is the right trade for a flight recorder. *)

(** What the engine records. Cell tallies in {!Sketch_snapshot} are
    [(cell, count, err)] triples from the merged Space-Saving top-k. *)
type kind =
  | Window_cut of {
      index : int;
      queries : int;
      qps : float;
      p50_ns : float;
      p99_ns : float;
      hotspot_ratio : float;
      alert : bool;
    }  (** The monitor cut a window ({!Window.tick}). *)
  | Alert_raised of { index : int; ratio : float; factor : float }
      (** The hotspot alert transitioned quiet -> firing at window [index]. *)
  | Alert_cleared of { index : int; ratio : float; factor : float }
      (** The alert transitioned firing -> quiet. *)
  | Sketch_snapshot of { top : (int * int * int) list }
      (** Merged top-k hot cells at a window cut. *)
  | Stage of { name : string; mark : [ `Begin | `End ] }
      (** A build or serve stage boundary (sample-batches, serve, merge,
          build). *)
  | Publish of { queries : int }
      (** A worker published its shard and sketch; [queries] is its
          cumulative query count at publication. *)
  | Epoch_publish of {
      epoch : int;
      batch : int;
      levels : int;
      fresh_cells : int;
      dur_ns : int;
    }
      (** The builder published epoch [epoch]: [batch] updates made
          visible, [levels] levels in the snapshot of which the fresh
          ones total [fresh_cells] cells, in [dur_ns] wall ns. *)
  | Level_merge of {
      level : int;
      keys : int;
      replicas : int;
      cells : int;
      dur_ns : int;
    }
      (** One Bentley–Saxe level build on the builder domain: [keys]
          keys into level [level] across [replicas] replicas, writing
          exactly [cells] cells in [dur_ns] wall ns. *)
  | Reclaim of { epoch : int; freed : int; lag : int; pending : int }
      (** [try_reclaim] at published epoch [epoch] freed [freed] levels
          (max lag [lag] epochs), leaving [pending] still retired. *)
  | Control_decision of {
      id : int;
      window : int;
      ratio : float;
      cell : int;
      count : int;
      err : int;
      score : int;
      action : [ `Raise | `Lower ];
      old_boost : int;
      new_boost : int;
      cooldown : int;
    }
      (** The replication controller decided to actuate at window
          [window]: hysteresis score [score] tripped on windowed
          contention ratio [ratio], whose evidence is sketched cell
          [cell] with tally bracket [count ± err]; the effective
          small-level boost moves [old_boost] -> [new_boost] and the
          controller enters a [cooldown]-window hold. [id] is the
          controller's monotone decision number, echoed by the matching
          {!Control_applied}. *)
  | Control_applied of {
      id : int;
      epoch : int;
      boost : int;
      levels : int;
      cells : int;
      dur_ns : int;
    }
      (** The builder applied controller decision [id]: re-replicated
          [levels] levels ([cells] cells written) to effective boost
          [boost] in [dur_ns] wall ns, published as epoch [epoch]. *)

type event = { t_ns : int64;  (** {!Clock.now_ns} at record time. *)
               writer : int;  (** Ring index of the recording domain. *)
               seq : int;  (** The writer's monotone event number. *)
               kind : kind }

type t

val create : writers:int -> capacity:int -> t
(** [create ~writers ~capacity]: one ring of [capacity] slots per
    writer. For a monitored serve: writer 0 is the orchestrator, [1..m]
    the workers, [m+1] the monitor domain, and — for dynamic
    (read-write) runs, which need one more ring — [m+2] the builder
    domain's update-path events. An adaptive run given yet one more ring records
    the replication controller's decisions on [m+3]. *)

val writers : t -> int
val capacity : t -> int

val record : t -> writer:int -> kind -> unit
(** Append to the writer's own ring, overwriting the oldest entry when
    full. Call from the owning domain only; lock-free, wait-free. *)

val events : t -> event list
(** All retained events, merged across rings in timestamp order. Safe
    to call while writers are recording (see the racy-read note above);
    for a consistent view call it at quiescence. *)

val total_recorded : t -> int
(** Events ever recorded, including overwritten ones. *)

val dropped : t -> int
(** Events lost to ring overwrite ([total_recorded] minus retained). *)
