(** Group histograms: bucket loads in unary, packed into [rho] words.

    Section 2.2: "a group-histogram is a binary string where the load of
    each bucket in the group is represented consecutively in unary code
    separated by zeros". A group of [g_per_group] buckets with loads
    summing to at most [cap_group] fits in [cap_group + g_per_group]
    bits, hence in [rho] cells of [cell_bits] bits.

    The query algorithm reads the [rho] words (one probe each, from a
    random replica) and folds each into a {!scan} as it arrives: the
    scan validates every run and accumulates the prefix sum of
    {e squared} loads that locates the query's bucket inside the
    group. *)

val encode : Params.t -> loads:int array -> int array
(** [encode p ~loads] packs the loads of one group's buckets (length
    [g_per_group], in group order [k = 0, 1, ...]) into exactly [rho]
    words. Raises [Invalid_argument] if the loads need more bits than the
    histogram budget — the builder only calls this after [P(S)] holds, so
    that would be a logic error. *)

type scan = private int
(** The state of one left-to-right histogram scan for one bucket [k]:
    runs decoded so far, the run under way, and bucket [k]'s load and
    slot offset once known. An immediate int, so scanning allocates
    nothing. *)

val scan_start : scan
(** The state before the first word. *)

val scan_word : Params.t -> k:int -> scan -> int -> scan
(** [scan_word p ~k st w] folds the next histogram word [w] (words in
    order [0 .. rho-1]) into the scan for bucket [k]. Raises
    [Invalid_argument] when [k] is outside [0, g_per_group) or a run
    grows beyond [cap_group]. *)

val finish : Params.t -> scan -> scan
(** [finish p st] is [st] once all [rho] words are scanned; raises
    [Invalid_argument] if fewer than [g_per_group] runs terminated. *)

val load : scan -> int
(** [load st] is bucket [k]'s load on a finished scan: its slot block
    holds [load st * load st] cells (none for an empty bucket). *)

val offset : scan -> int
(** [offset st] is the paper's [i_h(x)] relative to the group base
    address on a finished scan: [sum_{k' < k} loads(k')^2], the start of
    bucket [k]'s slot block within its group. *)

val decode : Params.t -> int array -> int array
(** [decode p words] recovers the [g_per_group] loads, one scan per
    bucket. Raises [Invalid_argument] on a malformed (e.g. corrupted)
    histogram, exactly when a query's scan would. *)
