(** Cell-probe tables.

    The paper's table [T_{S,q} : [s] -> {0,1}^b] of [s] cells of [b] bits
    each. Cells hold OCaml integers constrained to [b <= 62] bits. A
    table holds cells only: it counts nothing. A query visits cells
    through the probe function its caller supplies
    ([Lc_dict.Dict_intf.probe]), and whoever wants the quantity
    [Y^{(t)}(x, j)] of Definition 1 counts it in that probe, in arrays
    of its own: {!Contention.monte_carlo}, the spec cross-check and the
    serving engine's per-domain tallies all do.

    Writes are construction-time operations: the paper measures the
    contention of {e queries} against a static table. *)

type t

val bits_for : int -> int
(** [bits_for v] is the smallest cell width (in bits, at least 1) that
    stores the non-negative value [v]. *)

val create : ?init:int -> cells:int -> bits:int -> unit -> t
(** [create ~cells ~bits ()] is a table of [cells] cells of [bits] bits,
    each initialised to [init] (default 0). Requires [1 <= bits <= 62]
    and [cells >= 0]; every stored value must fit in [bits] bits, except
    that the sentinel [-1] ("empty cell") is always allowed. *)

val size : t -> int
(** Number of cells, the paper's [s]. *)

val bits : t -> int
(** Cell width in bits, the paper's [b]. *)

val peek : t -> int -> int
(** [peek t j] is the contents of cell [j]. Every probe function
    reads cells with it. *)

val write : t -> int -> int -> unit
(** [write t j v] stores [v] in cell [j] (construction time only).
    Raises [Invalid_argument] if [v] does not fit in [bits t] bits. *)

val copy_cells : t -> int array
(** Snapshot of all cell contents. *)

val corrupt : t -> Lc_prim.Rng.t -> unit
(** [corrupt t rng] flips one uniformly random bit of one uniformly
    random non-sentinel cell; failure injection for verifier tests. *)
