(** On-demand path computation (Section 4.2): paths that start carrying
    traffic when the load exceeds what the always-on paths can offer. Four
    variants, matching the paper's evaluation:

    - [Solver tm]: re-solve the minimisation with the peak traffic matrix,
      keeping every element already used by the always-on paths switched on
      (the baseline "REsPoNse").
    - [Stress q]: demand-oblivious — compute each link's stress factor (flows
      routed over it in the always-on assignment divided by capacity) and
      route on-demand paths avoiding the fraction [q] (paper: 0.2) of links
      with the highest stress.
    - [Ospf]: reuse the OSPF-InvCap routing table ("REsPoNse-ospf").
    - [Heuristic tm]: the GreenTE-style k-shortest-path heuristic
      ("REsPoNse-heuristic"). *)

type variant =
  | Solver of Traffic.Matrix.t
  | Stress of float
  | Ospf
  | Heuristic of Traffic.Matrix.t

val compute :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  ?rounds:int ->
  Topo.Graph.t ->
  Power.Model.t ->
  always_on:Always_on.result ->
  pairs:(int * int) list ->
  variant ->
  (int * int, Topo.Path.t list) Hashtbl.t
(** Produces up to [rounds] (the paper's N-2, default 1) on-demand paths per
    pair, in activation order. Paths equal to the pair's always-on path, or to
    an earlier round's path, are dropped, so lists may be shorter than
    [rounds]. *)

val stress_factors : Topo.Graph.t -> (int * int, Topo.Path.t) Hashtbl.t -> float array
(** Per-link stress factor of a path assignment:
    sf(l) = (number of pairs routed over l) / capacity(l). Exposed for the
    sensitivity analysis (bench [stress]). *)
