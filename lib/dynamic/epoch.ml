module Rng = Lc_prim.Rng
module Table = Lc_cellprobe.Table
module Dictionary = Lc_core.Dictionary

exception Freed_level of { epoch : int; level : int }

(* One published level: the immutable replica tables of a Dynamic level,
   plus per-replica/per-cell atomic probe tallies and the poison flag
   reclamation sets when the level's memory is handed back. The record is
   shared by every snapshot that contains the level; [identity] (the
   Dynamic level's own replica array) is the token the builder's cache is
   keyed on. *)
type elevel = {
  el_index : int;
  cores : (module Lc_dict.Dict_intf.S) array;
  tables : Table.t array;
  counters : int Atomic.t array array;  (* per replica, per cell *)
  rep_base : int array;  (* replica's first cell id within the level *)
  el_space : int;
  el_max_probes : int;  (* max over replicas *)
  freed : bool Atomic.t;
  identity : Dictionary.t array;
}

type snapshot = {
  epoch : int;
  levels : elevel array;  (* probe order: largest index first *)
  bases : int array;  (* levels.(i)'s first global cell id *)
  deleted : int array;  (* sorted tombstoned keys *)
  snap_space : int;
  snap_max_probes : int;  (* sum over levels: a miss probes them all *)
  snap_live : int;
  snap_universe : int;
}

(* Reader slots: quiescent readers announce [quiescent]; a pinned reader
   announces the epoch of the snapshot it probes. *)
let quiescent = max_int

(* A replication-boost request from the controller domain: the builder
   applies the request whose id it has not yet seen. The record is
   immutable, so one Atomic holds both fields consistently. *)
type boost_request = { br_id : int; br_boost : int }

type t = {
  inner : Dynamic.t;
  current : snapshot Atomic.t;
  slots : int Atomic.t array;
  next_reader : int Atomic.t;
  boost_request : boost_request Atomic.t;
  applied_boost : int Atomic.t;  (* builder writes, anyone reads *)
  mutable applied_request_id : int;  (* builder-owned *)
  (* Builder-owned bookkeeping (single-writer by protocol; never touched
     on the read path): *)
  mutable cache : (Dictionary.t array * elevel) list;
      (* levels of the current snapshot, keyed by physical identity *)
  mutable retired : (int * elevel) list;  (* (retiring publication epoch, level) *)
  mutable publications : int;
  mutable reclaimed : int;
  mutable drained_probes : int;  (* tallies of freed levels, preserved *)
  (* Update-path observatory (builder-owned, like the rest of this
     block): updates applied since the last publication, cumulative
     publication wall time, and reclamation lag in epochs. *)
  mutable pending_updates : int;
  mutable publish_ns_total : int;
  mutable reclaim_lag_total : int;
  mutable reclaim_lag_max : int;
}

type reader = {
  slot : int Atomic.t;
  r_rng : Rng.t;
  mutable snap : snapshot;  (* last pinned snapshot *)
  mutable r_probes : int;
  (* Owner-domain scratch for phase accounting: nanoseconds spent in the
     pin/unpin announcement windows by [mem_phased]. Plain field — read
     by the engine after joining the owning domain. *)
  mutable r_pin_ns : int;
  (* The probe closure is allocated once per reader and re-pointed at
     the replica under probe by [mem] — the hot read path allocates
     nothing per query or per level. *)
  mutable cur_counters : int Atomic.t array;
  mutable cur_table : Table.t;
  mutable cur_base : int;
  mutable observe : int -> unit;
  mutable probe : Lc_dict.Dict_intf.probe;
}

let no_observe (_ : int) = ()

let make_elevel (v : Dynamic.level_view) =
  let cores = Array.map Dictionary.core v.lv_replicas in
  let tables =
    Array.map (fun c -> let (module D : Lc_dict.Dict_intf.S) = c in D.table) cores
  in
  let spaces =
    Array.map (fun c -> let (module D : Lc_dict.Dict_intf.S) = c in D.space) cores
  in
  let counters = Array.map (fun s -> Array.init s (fun _ -> Atomic.make 0)) spaces in
  let rep_base = Array.make (Array.length cores) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i s ->
      rep_base.(i) <- !total;
      total := !total + s)
    spaces;
  let el_max_probes =
    Array.fold_left
      (fun acc c -> let (module D : Lc_dict.Dict_intf.S) = c in max acc D.max_probes)
      0 cores
  in
  {
    el_index = v.lv_index;
    cores;
    tables;
    counters;
    rep_base;
    el_space = !total;
    el_max_probes;
    freed = Atomic.make false;
    identity = v.lv_replicas;
  }

(* Build the next snapshot from the inner dictionary's current levels,
   reusing published elevels for levels whose identity is unchanged (so
   their probe tallies keep accumulating across publications). Returns
   the snapshot and the refreshed cache. Builder-only. *)
let snapshot_of_inner t ~epoch =
  let views = List.rev (Dynamic.level_views t.inner) (* largest first *) in
  let levels =
    Array.of_list
      (List.map
         (fun (v : Dynamic.level_view) ->
           match List.assq_opt v.lv_replicas t.cache with
           | Some el -> el
           | None -> make_elevel v)
         views)
  in
  let bases = Array.make (Array.length levels) 0 in
  let total = ref 0 in
  Array.iteri
    (fun i l ->
      bases.(i) <- !total;
      total := !total + l.el_space)
    levels;
  let snap_max_probes = Array.fold_left (fun acc l -> acc + l.el_max_probes) 0 levels in
  let deleted = Array.of_list (Dynamic.tombstone_keys t.inner) in
  ( {
      epoch;
      levels;
      bases;
      deleted;
      snap_space = !total;
      snap_max_probes;
      snap_live = Dynamic.size t.inner;
      snap_universe = Dynamic.universe t.inner;
    },
    Array.to_list (Array.map (fun l -> (l.identity, l)) levels) )

let create ?small_level_boost ?(max_readers = 64) rng ~universe () =
  if max_readers < 1 then invalid_arg "Epoch.create: max_readers must be >= 1";
  let inner = Dynamic.create ?small_level_boost rng ~universe () in
  let t =
    {
      inner;
      current =
        Atomic.make
          {
            epoch = 0;
            levels = [||];
            bases = [||];
            deleted = [||];
            snap_space = 0;
            snap_max_probes = 0;
            snap_live = 0;
            snap_universe = universe;
          };
      slots = Array.init max_readers (fun _ -> Atomic.make quiescent);
      next_reader = Atomic.make 0;
      boost_request =
        Atomic.make { br_id = 0; br_boost = Dynamic.small_level_boost inner };
      applied_boost = Atomic.make (Dynamic.small_level_boost inner);
      applied_request_id = 0;
      cache = [];
      retired = [];
      publications = 0;
      reclaimed = 0;
      drained_probes = 0;
      pending_updates = 0;
      publish_ns_total = 0;
      reclaim_lag_total = 0;
      reclaim_lag_max = 0;
    }
  in
  t

(* ------------------------------------------------------------------ *)
(* Builder side                                                        *)
(* ------------------------------------------------------------------ *)

let insert t x =
  Dynamic.insert t.inner x;
  t.pending_updates <- t.pending_updates + 1

let delete t x =
  Dynamic.delete t.inner x;
  t.pending_updates <- t.pending_updates + 1

let inner t = t.inner

type publish_info = {
  pi_epoch : int;
  pi_batch : int;
  pi_levels : int;
  pi_fresh_levels : int;
  pi_fresh_cells : int;
  pi_dur_ns : int;
}

let publish_stats t =
  let t0 = Monotonic_clock.now () in
  let old = Atomic.get t.current in
  let snap, cache = snapshot_of_inner t ~epoch:(old.epoch + 1) in
  (* Levels of the outgoing cache that the new snapshot no longer
     references retire at this publication's epoch: a reader announcing
     an epoch >= snap.epoch can only reach the new snapshot. *)
  let dropped =
    List.filter (fun (id, _) -> not (List.mem_assq id cache)) t.cache
  in
  (* Levels in the new snapshot the outgoing cache did not hold were
     materialised by this publication — the write half of the epoch's
     work, reported exactly. *)
  let fresh =
    List.filter (fun (id, _) -> not (List.mem_assq id t.cache)) cache
  in
  t.retired <- List.map (fun (_, el) -> (snap.epoch, el)) dropped @ t.retired;
  t.cache <- cache;
  t.publications <- t.publications + 1;
  let batch = t.pending_updates in
  t.pending_updates <- 0;
  (* The one linearisation point: readers pinning from here on see the
     new level set. *)
  Atomic.set t.current snap;
  let ns = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
  t.publish_ns_total <- t.publish_ns_total + ns;
  {
    pi_epoch = snap.epoch;
    pi_batch = batch;
    pi_levels = Array.length snap.levels;
    pi_fresh_levels = List.length fresh;
    pi_fresh_cells = List.fold_left (fun a (_, el) -> a + el.el_space) 0 fresh;
    pi_dur_ns = ns;
  }

let publish t = ignore (publish_stats t : publish_info)

(* --- Replication-boost actuation ---------------------------------- *)

let is_power_of_two v = v > 0 && v land (v - 1) = 0

let request_boost t ~id ~boost =
  if not (is_power_of_two boost) then
    invalid_arg "Epoch.request_boost: boost must be a power of two";
  Atomic.set t.boost_request { br_id = id; br_boost = boost }

let requested_boost t = (Atomic.get t.boost_request).br_boost
let applied_boost t = Atomic.get t.applied_boost
let boost_pending t = (Atomic.get t.boost_request).br_id <> t.applied_request_id

type boost_applied = {
  ba_id : int;  (* the request id applied *)
  ba_boost : int;
  ba_levels : int;  (* levels rebuilt under the new boost *)
  ba_cells : int;  (* cells written by those rebuilds *)
  ba_ns : int;
}

let apply_boost_request t =
  let req = Atomic.get t.boost_request in
  if req.br_id = t.applied_request_id then None
  else begin
    let t0 = Monotonic_clock.now () in
    let cells0 = Dynamic.cells_written t.inner in
    let levels = Dynamic.set_small_level_boost t.inner req.br_boost in
    t.applied_request_id <- req.br_id;
    Atomic.set t.applied_boost req.br_boost;
    let ns = Int64.to_int (Int64.sub (Monotonic_clock.now ()) t0) in
    Some
      {
        ba_id = req.br_id;
        ba_boost = req.br_boost;
        ba_levels = levels;
        ba_cells = Dynamic.cells_written t.inner - cells0;
        ba_ns = ns;
      }
  end

let min_announced t =
  Array.fold_left (fun acc s -> min acc (Atomic.get s)) quiescent t.slots

let drain_elevel el =
  Array.fold_left
    (fun acc cells -> Array.fold_left (fun a c -> a + Atomic.get c) acc cells)
    0 el.counters

let try_reclaim t =
  match t.retired with
  | [] -> 0
  | retired ->
    let horizon = min_announced t in
    let now_epoch = (Atomic.get t.current).epoch in
    (* A level that retired at publication epoch [e] is reachable only
       through snapshots of epoch < e; once every announced epoch is
       >= e (quiescent slots announce max_int), no reader can hold such
       a snapshot pinned, so the level is free. *)
    let free, keep = List.partition (fun (e, _) -> e <= horizon) retired in
    List.iter
      (fun (e, el) ->
        Atomic.set el.freed true;
        t.drained_probes <- t.drained_probes + drain_elevel el;
        t.reclaimed <- t.reclaimed + 1;
        (* Reclamation lag: how many publications the level outlived its
           retirement by before memory actually came back. *)
        let lag = now_epoch - e in
        t.reclaim_lag_total <- t.reclaim_lag_total + lag;
        t.reclaim_lag_max <- max t.reclaim_lag_max lag)
      free;
    t.retired <- keep;
    List.length free

(* ------------------------------------------------------------------ *)
(* Reader side                                                         *)
(* ------------------------------------------------------------------ *)

let reader t rng =
  let idx = Atomic.fetch_and_add t.next_reader 1 in
  if idx >= Array.length t.slots then
    invalid_arg "Epoch.reader: max_readers exhausted";
  let r =
    {
      slot = t.slots.(idx);
      r_rng = rng;
      snap = Atomic.get t.current;
      r_probes = 0;
      r_pin_ns = 0;
      cur_counters = [||];
      cur_table = Table.create ~cells:1 ~bits:1 ();
      cur_base = 0;
      observe = no_observe;
      probe = (fun ~step:_ j -> j);
    }
  in
  r.probe <-
    (fun ~step:_ j ->
      Atomic.incr r.cur_counters.(j);
      r.r_probes <- r.r_probes + 1;
      r.observe (r.cur_base + j);
      Table.peek r.cur_table j);
  r

let set_observe r f = r.observe <- f
let clear_observe r = r.observe <- no_observe
let reader_probes r = r.r_probes
let reader_pin_ns r = r.r_pin_ns
let last_epoch r = r.snap.epoch

(* Pin: announce an epoch, then confirm the snapshot did not move past
   us while we were announcing. OCaml atomics are SC, so once the
   re-read returns the same snapshot the builder is guaranteed to see
   our announcement before it retires anything that snapshot holds. *)
let rec pin r t =
  let s = Atomic.get t.current in
  Atomic.set r.slot s.epoch;
  let s' = Atomic.get t.current in
  if s == s' then begin
    r.snap <- s;
    s
  end
  else pin r t

let unpin r = Atomic.set r.slot quiescent

(* Explicit pin/unpin, exposed for readers that need to hold a snapshot
   across other work (and for the reclamation-lag tests, which park a
   reader across many publications). Note [mem] manages its own pin:
   calling it between [acquire] and [release] re-announces and then
   returns the slot to quiescent, ending the held pin. *)
let acquire t r = ignore (pin r t : snapshot)
let release r = unpin r

let tombstoned (deleted : int array) x =
  let n = Array.length deleted in
  if n = 0 then false
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    let found = ref false in
    while (not !found) && !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      let v = deleted.(mid) in
      if v = x then found := true else if v < x then lo := mid + 1 else hi := mid - 1
    done;
    !found
  end

(* The probe body shared by [mem] and [mem_phased]: answer [x] against
   the snapshot [s] the reader has pinned. Error paths (invalid key,
   poisoned level) unpin before raising: they abort the run. *)
let probe_pinned r s x =
  if x < 0 || x >= s.snap_universe then begin
    unpin r;
    invalid_arg "Epoch.mem: key outside universe"
  end;
  if tombstoned s.deleted x then false
  else begin
    (* Largest level first, like Dynamic.mem; stop at the first hit. *)
    let hit = ref false in
    let nl = Array.length s.levels in
    let i = ref 0 in
    while (not !hit) && !i < nl do
      let l = s.levels.(!i) in
      (* Poison check: under a correct reclamation protocol this is
         unreachable; the concurrent property test exists to prove it
         stays that way. *)
      if Atomic.get l.freed then begin
        unpin r;
        raise (Freed_level { epoch = s.epoch; level = l.el_index })
      end;
      let rep = Rng.int r.r_rng (Array.length l.cores) in
      r.cur_counters <- l.counters.(rep);
      r.cur_table <- l.tables.(rep);
      r.cur_base <- s.bases.(!i) + l.rep_base.(rep);
      let (module D : Lc_dict.Dict_intf.S) = l.cores.(rep) in
      if D.mem ~probe:r.probe r.r_rng x then hit := true;
      incr i
    done;
    !hit
  end

let mem t r x =
  let answer = probe_pinned r (pin r t) x in
  unpin r;
  answer

(* Phase-accounted variant of [mem] for instrumented readers: the same
   probe, plus monotonic timing of the pin and unpin announcement
   windows accumulated into the reader-owned [r_pin_ns] scratch. An
   aborted probe is not charged to the pin phase. *)
let mem_phased t r x =
  let p0 = Monotonic_clock.now () in
  let s = pin r t in
  let p1 = Monotonic_clock.now () in
  let answer = probe_pinned r s x in
  let u0 = Monotonic_clock.now () in
  unpin r;
  let u1 = Monotonic_clock.now () in
  r.r_pin_ns <-
    r.r_pin_ns
    + Int64.to_int (Int64.sub p1 p0)
    + Int64.to_int (Int64.sub u1 u0);
  answer

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let current t = Atomic.get t.current
let epoch s = s.epoch
let space s = s.snap_space
let max_probes s = s.snap_max_probes
let live s = s.snap_live

let snapshot_counts s =
  let counts = Array.make s.snap_space 0 in
  Array.iteri
    (fun i l ->
      Array.iteri
        (fun rep cells ->
          let base = s.bases.(i) + l.rep_base.(rep) in
          Array.iteri (fun j c -> counts.(base + j) <- Atomic.get c) cells)
        l.counters)
    s.levels;
  counts

let publications t = t.publications
let reclaimed t = t.reclaimed
let retired_pending t = List.length t.retired
let pending_updates t = t.pending_updates
let publish_ns_total t = t.publish_ns_total
let reclaim_lag_total t = t.reclaim_lag_total
let reclaim_lag_max t = t.reclaim_lag_max

let announced_min t =
  let m = min_announced t in
  if m = quiescent then None else Some m

let reader_lag t =
  match announced_min t with
  | None -> 0
  | Some m -> max 0 ((Atomic.get t.current).epoch - m)

let oldest_retired_age t =
  let cur = (Atomic.get t.current).epoch in
  List.fold_left (fun acc (e, _) -> max acc (cur - e)) 0 t.retired

let reader_staleness t r = (Atomic.get t.current).epoch - r.snap.epoch

let total_probes t =
  (* Live (cached) levels + retired-but-unfreed levels + drained tallies
     of freed levels: every probe any reader ever made is in exactly one
     of the three buckets. *)
  let live = List.fold_left (fun acc (_, el) -> acc + drain_elevel el) 0 t.cache in
  let pending = List.fold_left (fun acc (_, el) -> acc + drain_elevel el) 0 t.retired in
  t.drained_probes + live + pending
