(** Contention computation — Definition 1 of the paper.

    For a table of [s] cells, a query distribution [q] and a query
    algorithm whose step-[t] probe distribution for query [x] is
    [P_t(x, ·)], the contention of cell [j] at step [t] is

    {[ Phi_t(j) = sum_x q_x P_t(x, j) ]}

    and the total contention is [Phi(j) = sum_t Phi_t(j)].

    Two routes are provided: {!exact} folds the probe specs ({!Spec.t})
    against the pmf symbolically (no sampling noise), and {!monte_carlo}
    replays real queries and normalises the probes it counts. The test
    suite checks that the two agree. *)

type result = {
  cells : int;  (** [s], the table size. *)
  per_cell : float array;  (** Total contention [Phi(j)], length [s]. *)
  per_step_max : float array;
      (** [max_j Phi_t(j)] for each step [t] (up to the longest plan). *)
  max_total : float;  (** [max_j Phi(j)]. *)
  max_step : float;  (** [max_t max_j Phi_t(j)] — the [phi] of Definition 2. *)
  mean_probes : float;  (** Expected number of probes per query under [q]. *)
}

val exact : cells:int -> qdist:Qdist.t -> spec:(int -> Spec.t) -> result
(** [exact ~cells ~qdist ~spec] computes contention symbolically from the
    exact probe plans. *)

val monte_carlo :
  table:Table.t ->
  qdist:Qdist.t ->
  mem:(probe:(step:int -> int -> int) -> Lc_prim.Rng.t -> int -> bool) ->
  rng:Lc_prim.Rng.t ->
  queries:int ->
  result
(** [monte_carlo ~table ~qdist ~mem ~rng ~queries] executes [queries]
    queries sampled from [qdist] through [mem], handing it a probe that
    reads [table] and counts each visit per cell and per step, and
    converts the counts into empirical contention. [mem] has the shape
    of [Lc_dict.Dict_intf.S.mem]. *)

val normalized_max : result -> float
(** [normalized_max r] is [s * max_j Phi(j)] — contention relative to the
    ideal perfectly-flat [1/s]; the figure of merit of experiments
    T1/T2/T5. A value of [Theta(1)] as [n] grows is the paper's
    "asymptotically optimal". *)

val normalized_step_max : result -> float
(** [s * max_t max_j Phi_t(j)]; Definition 2 bounds this per-step. *)

val profile : result -> float array
(** Per-cell normalised contention [s * Phi(j)], sorted descending; the
    flatness profile plotted by experiment F2. *)
