(** Always-on path computation (Section 4.1): a routing that carries low to
    medium traffic at the lowest power. Demand-oblivious by default (every
    pair gets an epsilon demand, yielding a minimal-power connected routing);
    alternatively driven by an off-peak traffic matrix estimate. The
    REsPoNse-lat variant additionally bounds each pair's propagation delay to
    (1 + beta) times its OSPF-InvCap delay (constraint (4)). *)

type mode =
  | Oblivious
      (** no traffic measurements: a capacity-derived gravity prior scaled to
          a small fraction of the network capacity (10 %). Compared with pure
          epsilon demands this keeps enough capacity in the always-on set to
          actually carry low-to-medium load — the paper's stated goal — while
          still using nothing but the topology. *)
  | Epsilon
      (** the paper's literal alternative: every flow set to a tiny value
          (1 bit/s), yielding the minimal-power connected routing. Capacity
          never binds, so on capacity-heterogeneous topologies the result can
          concentrate transit on small links. *)
  | Off_peak of Traffic.Matrix.t  (** d(O,D) = dlow(O,D) *)

type result = {
  paths : (int * int, Topo.Path.t) Hashtbl.t;
  state : Topo.State.t;  (** the always-on element set *)
}

val compute :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  ?mode:mode ->
  ?latency_beta:float ->
  Topo.Graph.t ->
  Power.Model.t ->
  pairs:(int * int) list ->
  unit ->
  result
(** [latency_beta] enables the REsPoNse-lat delay bound; pairs whose
    minimal-power path violates the bound are repaired with the cheapest
    (fewest newly activated elements) among their k shortest paths that
    satisfies it.
    @raise Invalid_argument when the demands are infeasible even on the
    full network. *)
