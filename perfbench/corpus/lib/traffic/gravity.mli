(** Capacity-based gravity model for traffic demands, as in the paper
    (Section 5.1, following [9, 14]): the flow entering/leaving each PoP is
    proportional to the combined capacity of its adjacent links. *)

val weights : Topo.Graph.t -> float array
(** Per-node gravity mass: the sum of adjacent link capacities. *)

val make :
  Topo.Graph.t ->
  ?pairs:(int * int) list ->
  total:Eutil.Units.bps Eutil.Units.q ->
  unit ->
  Matrix.t
(** Gravity matrix over the given origin-destination pairs (all ordered pairs
    of {!Topo.Graph.traffic_nodes} by default), normalised so demands sum to
    [total] (bit/s). Raises [Invalid_argument] when a positive total is
    requested but every selected pair has zero gravity mass (zero-capacity
    endpoints) — the configuration that would otherwise yield 0/0 demands.
    @raise Invalid_argument when the selected pairs carry zero total
    gravity mass. *)

val random_pairs : Topo.Graph.t -> seed:int -> fraction:float -> (int * int) list
(** Random subset of origin-destination pairs: each ordered traffic-node pair
    is kept with the given probability, deterministically from [seed]. At
    least one pair is always returned. *)

val random_node_pairs : Topo.Graph.t -> seed:int -> fraction:float -> (int * int) list
(** The paper's origin/destination sampling ("we select the origins and
    destinations at random, as in [24]"): a random subset of traffic *nodes*
    is chosen with the given fraction (at least two), and all ordered pairs
    among them are returned. Nodes outside the subset originate nothing, so
    their routers can power off entirely. *)
