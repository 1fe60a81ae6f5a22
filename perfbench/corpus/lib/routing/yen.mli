(** Yen's algorithm for the K shortest loopless paths, used by the
    GreenTE-style heuristic (restricting the solver to k shortest paths per
    origin-destination pair) and by the latency-bounded always-on variant. *)

val k_shortest :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  src:int ->
  dst:int ->
  k:int ->
  unit ->
  Topo.Path.t list
(** At most [k] loopless paths in nondecreasing weight order (latency by
    default). Returns fewer when the graph has fewer distinct paths. *)
