(** Exact mixed-integer formulation of the energy-aware routing problem of
    Section 2.2.1, solved with the {!Lp} substrate. Binary X_i per router,
    Y per link, and unsplittable per-arc flow indicators f_{i->j}(O,D);
    the objective minimises chassis plus active-link power subject to
    multi-commodity flow conservation, capacity, and the paper's coupling
    constraints (1)-(3). Only tractable for small instances — the paper makes
    the same observation about CPLEX — and used here to validate the greedy
    heuristics. *)

type exact = {
  state : Topo.State.t;
  routing : (int * int, Topo.Path.t) Hashtbl.t;
  power_watts : float;
}

val solve :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  ?max_nodes:int ->
  ?pin_link:(int -> bool) ->
  ?delay_bound:(int * int -> float option) ->
  Topo.Graph.t ->
  Power.Model.t ->
  Traffic.Matrix.t ->
  [ `Optimal of exact | `Infeasible | `Limit ]
(** [pin_link] forces Y = 1 (elements already deployed as always-on);
    [delay_bound] adds the REsPoNse-lat constraint (4): the propagation delay
    of a pair's path must not exceed the bound.
    @raise Invalid_argument if the generated LP model fails its own
    invariant check, and [Failure] if a solved model yields no extractable
    flow — both are bug guards, not input errors. *)
