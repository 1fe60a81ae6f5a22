(** EATe-style distributed energy-aware traffic engineering, the related-work
    comparator of Section 2.3 ([Vasić & Kostić, e-Energy 2010]): edge routers
    aggregate traffic over predetermined paths using link-local information
    only — no offline identification of energy-critical paths. Implemented
    here as an iterative aggregation: each round, every pair moves a bounded
    share of its traffic to the candidate path that is busiest-but-not-full
    (consolidation), until no move improves or the round budget runs out.

    Used by the bench ablation comparing how close a purely online
    aggregation scheme gets to REsPoNse's precomputed-path savings, and how
    many coordination rounds it needs. *)

type result = {
  loads : float array;  (** per-arc offered load at convergence *)
  state : Topo.State.t;  (** elements carrying traffic *)
  power_percent : float;
  rounds : int;  (** aggregation rounds until convergence *)
  max_utilization : float;
}

val run :
  ?k:int ->
  ?threshold:Eutil.Units.ratio Eutil.Units.q ->
  ?max_rounds:int ->
  Topo.Graph.t ->
  Power.Model.t ->
  Traffic.Matrix.t ->
  result
(** [k] predetermined (latency-)shortest paths per pair (default 3);
    [threshold] the utilisation cap below which a path may accept more
    aggregated traffic (default 0.9); [max_rounds] bounds the iteration
    (default 50). Deterministic. *)
