(** Epoch-published dynamic levels: lock-free concurrent reads over a
    mutating {!Dynamic} dictionary.

    {2 The protocol}

    {!Dynamic} is strictly sequential — every insert may rebuild levels
    in place. This module layers an RCU-style publication scheme on top
    so that {e reads scale across domains while one builder mutates}:

    - The builder (exactly one domain) owns the inner {!Dynamic.t},
      applies inserts/deletes to it, and {!publish}es an immutable
      {!snapshot} of the current level tables — one [Atomic.set] of the
      [current] pointer per publication. Levels whose identity is
      unchanged since the previous snapshot are {e shared}, so their
      per-cell probe tallies keep accumulating.
    - Readers {e pin} the current snapshot before each query: announce
      its epoch in a per-reader slot ([int Atomic.t]), re-read the
      pointer, retry if it moved. Between pin and unpin a reader probes
      only immutable tables through a preallocated probe closure — no
      locks, no allocation, nothing but [Atomic] reads/increments on the
      query path.
    - Reclamation: a level dropped by the publication of epoch [e]
      retires at [e] and is freed only once the minimum announced epoch
      across all reader slots reaches [e] (quiescent slots announce
      [max_int]) — at that point no reader can still hold a snapshot
      that contains it. Freed levels have a poison flag the read path
      checks per level, raising {!Freed_level}; the concurrent property
      test in [test_dynamic] drives builder and readers hard to show the
      flag never trips and answers agree with a sequential oracle.

    Single-builder is a protocol obligation, not an enforced one:
    {!insert}, {!delete}, {!publish} and {!try_reclaim} must all be
    called from one domain at a time. Readers are registered up front
    ({!reader}, one per querying domain) and are mutually concurrent
    with each other and with the builder.

    {2 Accounting}

    Every probe lands on a per-cell [Atomic.t] tally of the level it
    touched and on the reader's own cumulative counter; freed levels
    drain their tallies into a preserved sum, so {!total_probes} equals
    the sum of {!reader_probes} over all readers at any quiescent point
    — the exact-reconciliation invariant the engine's telemetry and the
    perf suite assert. *)

type t
(** The published dictionary: inner {!Dynamic.t} + current snapshot
    pointer + reader slots + builder-side retire/reclaim bookkeeping. *)

type snapshot
(** One immutable published level set. Readers probe exactly one
    snapshot per query; snapshots share unchanged levels. *)

type reader
(** A registered reader: an announcement slot plus the preallocated
    probe state for the zero-allocation query path. One per domain —
    a reader must never be used from two domains concurrently. *)

exception Freed_level of { epoch : int; level : int }
(** Raised by {!mem} if a query ever observes a reclaimed level — the
    poisoned state a correct protocol makes unreachable. *)

val create :
  ?small_level_boost:int ->
  ?max_readers:int ->
  Lc_prim.Rng.t ->
  universe:int ->
  unit ->
  t
(** An empty published dictionary over [0, universe). The initial
    snapshot (epoch 0) has no levels, so every query answers [false].
    [small_level_boost] is {!Dynamic.create}'s replication knob;
    [max_readers] (default 64) bounds {!reader} registrations. *)

(** {2 Builder side — one domain only} *)

val insert : t -> int -> unit
(** Apply an insert to the inner dictionary. Invisible to readers until
    the next {!publish}. *)

val delete : t -> int -> unit
(** Apply a delete (tombstone, possibly purge). Invisible to readers
    until the next {!publish}. *)

val publish : t -> unit
(** Cut a new snapshot of the inner dictionary's levels and swing the
    current pointer — the single linearisation point readers observe.
    Levels no longer referenced retire at the new snapshot's epoch. *)

type publish_info = {
  pi_epoch : int;  (** Epoch of the snapshot just published. *)
  pi_batch : int;
      (** Updates ({!insert} + {!delete} calls) applied since the
          previous publication — the batch this snapshot made visible. *)
  pi_levels : int;  (** Levels in the published snapshot. *)
  pi_fresh_levels : int;
      (** Levels materialised by this publication (not shared with the
          previous snapshot). *)
  pi_fresh_cells : int;  (** Total cells of the fresh levels. *)
  pi_dur_ns : int;
      (** Wall time of snapshot construction + pointer swing, ns. *)
}
(** What one publication did — the per-publish record the engine feeds
    into histograms and the flight recorder. *)

val publish_stats : t -> publish_info
(** {!publish}, additionally returning the publication's accounting.
    [publish t] is [ignore (publish_stats t)]. *)

val try_reclaim : t -> int
(** Free every retired level whose retiring epoch all readers have
    provably left (minimum announced epoch, quiescent = [max_int]);
    returns how many levels were freed. Freed levels are poisoned and
    their probe tallies drained into the preserved sum. Cheap when the
    retired list is empty — the builder calls this after every
    {!publish}. *)

val inner : t -> Dynamic.t
(** The builder's underlying sequential dictionary (for its counters:
    {!Dynamic.keys_rebuilt}, {!Dynamic.purges}, {!Dynamic.size}).
    Builder-side use only. *)

(** {2 Replication-boost actuation}

    The online-adaptation channel between the controller domain and the
    builder. The controller {e requests} an effective
    [small_level_boost] ({!request_boost} — one [Atomic.set] of an
    immutable request record, safe from any domain); the builder, at a
    point of its choosing, {e applies} the latest unapplied request
    ({!apply_boost_request}: {!Dynamic.set_small_level_boost} on the
    inner dictionary, rebuilding exactly the levels whose replica count
    changes) and then publishes as usual — readers pick the
    re-replicated levels up at the next snapshot and are never blocked.
    Requests coalesce: only the newest matters. *)

val request_boost : t -> id:int -> boost:int -> unit
(** Ask the builder to move the effective boost to [boost] (a power of
    two, or [Invalid_argument]). [id] must be a fresh nonzero monotone
    request number (the controller's decision id); the builder applies
    a request exactly once per id and echoes the id in its accounting.
    Safe from any domain. *)

val requested_boost : t -> int
(** The most recently requested boost (the create-time boost before any
    request). Safe from any domain. *)

val applied_boost : t -> int
(** The effective boost the builder last applied (the create-time boost
    before any request) — the actuation gauge. Safe from any domain. *)

val boost_pending : t -> bool
(** Whether a request is waiting for the builder. Builder-side only
    (it reads the builder-owned applied-request cursor). *)

type boost_applied = {
  ba_id : int;  (** The request id applied. *)
  ba_boost : int;  (** The new effective boost. *)
  ba_levels : int;  (** Levels rebuilt under the new boost. *)
  ba_cells : int;  (** Cells written by those rebuilds. *)
  ba_ns : int;  (** Wall ns of the re-replication pass. *)
}
(** One applied boost request — what the engine journals as
    [Control_applied]. *)

val apply_boost_request : t -> boost_applied option
(** Apply the pending request, if any: rebuild the affected levels in
    the inner dictionary (through the accounted build path, so the
    rebuild counters and the build hook fire) and record the new
    effective boost. The caller must follow with {!publish} to make the
    re-replicated levels visible. [None] when no request is pending.
    Builder-side only. *)

(** {2 Reader side} *)

val reader : t -> Lc_prim.Rng.t -> reader
(** Register a reader owning [rng] (replica balancing only). Raises
    [Invalid_argument] once [max_readers] slots are taken. Registration
    is safe from any domain; the returned reader belongs to exactly
    one. *)

val mem : t -> reader -> int -> bool
(** [mem t r x]: pin the current snapshot, probe its levels largest
    first (tombstones answer [false] without probing), unpin. Lock-free
    and allocation-free; every cell visit increments the level's
    per-cell tally and [r]'s cumulative counter, and feeds the observe
    hook with the snapshot-global cell id. *)

val mem_phased : t -> reader -> int -> bool
(** {!mem} with phase accounting: additionally times the pin and unpin
    announcement windows with the monotonic clock and accumulates the
    nanoseconds into a reader-owned counter ({!reader_pin_ns}). Answers
    and probe accounting are identical to {!mem}; the only extra cost is
    four clock reads per query. Both run one shared probe body. The
    engine's instrumented (obs or monitored) dynamic path uses this so
    epoch-protocol overhead shows up as its own phase instead of being
    folded into probe work. *)

val reader_pin_ns : reader -> int
(** Cumulative nanoseconds {!mem_phased} spent announcing (pin) and
    clearing (unpin) this reader's epoch slot. Reads owner scratch —
    call from the owning domain or after joining it. *)

val set_observe : reader -> (int -> unit) -> unit
(** Install a per-probe hook called with the snapshot-global cell index
    of every visit — the engine wires the hot-cell sketch in here for
    monitored runs. The hook runs on the reader's domain. *)

val clear_observe : reader -> unit
(** Reset the hook to a no-op. *)

val reader_probes : reader -> int
(** Cumulative probes this reader has issued. *)

val last_epoch : reader -> int
(** Epoch of the snapshot the reader's latest query pinned — what the
    linearizability property test records next to each answer. *)

val acquire : t -> reader -> unit
(** Pin the current snapshot and {e keep} it pinned — the announce /
    re-read / retry loop {!mem} uses per query, exposed for readers that
    must hold an epoch across other work (batched reads, or the
    reclamation-lag tests that park a reader across publications). While
    pinned, levels of the held snapshot cannot be reclaimed. Do not call
    {!mem} on the same reader while holding an acquire: [mem] manages
    its own pin and returns the slot to quiescent when it finishes. *)

val release : reader -> unit
(** Return the reader's slot to quiescent, ending an {!acquire}. *)

(** {2 Introspection} *)

val current : t -> snapshot
(** The currently published snapshot (any domain may read it). *)

val epoch : snapshot -> int

val space : snapshot -> int
(** Total cells across the snapshot's levels and replicas. *)

val max_probes : snapshot -> int
(** Worst-case probes for one query: the sum over levels of the
    worst replica bound (a miss probes every level). *)

val live : snapshot -> int
(** Live keys at publication time. *)

val snapshot_counts : snapshot -> int array
(** Per-cell probe tallies of the snapshot's levels, concatenated in
    probe order (largest level first, replicas in order) — length
    {!space}. Tallies are cumulative since each level was first
    published. *)

val publications : t -> int
val reclaimed : t -> int
(** Levels freed so far. *)

val retired_pending : t -> int
(** Retired levels still waiting for readers to leave. *)

val pending_updates : t -> int
(** Updates applied since the last publication (the batch the next
    {!publish} will make visible). Builder-owned counter. *)

val publish_ns_total : t -> int
(** Cumulative wall time spent inside {!publish}, nanoseconds.
    Builder-owned. *)

val reclaim_lag_total : t -> int
(** Sum over freed levels of their reclamation lag — how many epochs
    each level sat retired before {!try_reclaim} freed it. With
    {!reclaimed} this gives the mean lag. Builder-owned. *)

val reclaim_lag_max : t -> int
(** Worst reclamation lag observed so far, in epochs. Builder-owned. *)

val announced_min : t -> int option
(** The minimum epoch currently announced across reader slots — the
    reclamation horizon — or [None] when every reader is quiescent.
    Reads only atomics; safe from any domain. *)

val reader_lag : t -> int
(** [epoch (current t) - announced_min], or [0] when all readers are
    quiescent: how far the slowest pinned reader trails the published
    epoch right now. Safe from any domain. *)

val oldest_retired_age : t -> int
(** Age in epochs of the oldest retired-but-unfreed level ([0] when the
    retired list is empty). Builder-owned. *)

val reader_staleness : t -> reader -> int
(** [epoch (current t) - last_epoch r]: how many publications have
    happened since [r] last pinned. Reads [r]'s own snapshot field, so
    call it from [r]'s owning domain or after joining it. *)

val total_probes : t -> int
(** Probes across live levels, retired-but-unfreed levels and the
    drained tallies of freed levels. At any point where no query is in
    flight this equals the sum of {!reader_probes} over all readers. *)
