(** The first-class dictionary signature.

    Every membership structure in this repository reduces to the same
    four ingredients: a cell-probe table, a space/probe budget, a query
    procedure, and the exact per-query probe plan. [S] captures them as
    a module signature whose query procedure is {e parameterised by the
    probing function}: the algorithm decides {e which} cells to visit
    (and consumes its [Rng.t] only to pick replicas), while the caller
    decides {e how} a visit is performed — a plain read, a read counted
    on per-cell atomics, or a read counted into whatever arrays the
    caller owns.

    This split is what makes one implementation serve three consumers:

    - sequential measurement ({!Lc_cellprobe.Contention.monte_carlo}
      and the spec cross-check {!Instance.check_spec_against_mem}),
      whose probes count per cell and per step;
    - the plain and atomic {!Instance} modes the experiments use;
    - the multicore serving engine ([lc_parallel]), which drives the
      query path from many domains at once, each counting into its own
      per-cell tally.

    The table itself counts nothing ({!Lc_cellprobe.Table}): every probe
    a query makes flows through the supplied [probe], and whoever wants
    a count keeps it there. *)

type probe = step:int -> int -> int
(** [probe ~step j] visits cell [j] as the [step]-th probe (0-indexed)
    of the running query and returns the cell's contents. {!Instance}
    builds plain reads ({!Instance.uninstrumented}) and fetch-and-add on
    per-cell atomics ({!Instance.atomic}). *)

module type S = sig
  val name : string
  (** Human-readable structure name for tables and reports. *)

  val table : Lc_cellprobe.Table.t
  (** The shared cells. Cell {e contents} are written only at
      construction time, so concurrent probing is safe. *)

  val space : int
  (** Number of cells, the paper's [s]. *)

  val max_probes : int
  (** Worst-case probes per query, the paper's [t]. *)

  val mem : probe:probe -> Lc_prim.Rng.t -> int -> bool
  (** [mem ~probe rng x] answers the membership query, visiting every
      cell through [probe]; [rng] drives only replica balancing, never
      the answer. Reentrant whenever [probe] is. *)

  val spec : int -> Lc_cellprobe.Spec.t
  (** [spec x] is the exact probe plan the query algorithm uses for [x]
      on this table. *)
end
