(** Trace replay of the state-of-the-art approach: recompute the minimal
    network subset for every interval of a traffic trace, as the paper does
    in Section 3 to quantify the optimality-scalability trade-off.

    Produces the recomputation-rate metric (Figure 1b), the routing
    configuration dominance (Figure 2a) and the per-pair path ranking that
    reveals the energy-critical paths (Figure 2b). *)

type interval = {
  time : float;
  state : Topo.State.t;
  power_percent : float;
  changed : bool;  (** the active element set differs from the previous interval *)
}

type t = {
  intervals : interval array;
  trace_interval : float;  (** seconds between intervals *)
  ranking : Critical_paths.t;
  recomputations : int;
}

val run :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  ?solver:[ `Greedy | `Greente ] ->
  Topo.Graph.t ->
  Power.Model.t ->
  Traffic.Trace.t ->
  t
(** Replays the whole trace with the chosen per-interval solver (default
    [`Greedy], the CPLEX stand-in). Intervals whose demand is infeasible keep
    the previous configuration and count as unchanged. *)

val recomputation_rate : t -> bucket:float -> (float * float) list
(** Recomputations per hour over buckets of [bucket] seconds:
    [(bucket start time, rate per hour)] — Figure 1b.
    @raise Invalid_argument if [bucket] is not positive. *)

val config_dominance : t -> (string * float) list
(** Fraction of intervals spent in each distinct routing configuration,
    dominant first — Figure 2a. Keys are opaque configuration digests. *)

val mean_power_percent : t -> float
