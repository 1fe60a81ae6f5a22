(** Equal-cost multi-path routing, the paper's datacenter baseline (Figure 4).
    ECMP spreads traffic over all shortest paths and therefore keeps every
    network element powered. *)

val all_shortest :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?limit:int ->
  src:int ->
  dst:int ->
  unit ->
  Topo.Path.t list
(** Every minimum-weight path from [src] to [dst] (latency weights by
    default), capped at [limit] (default 64). *)

val split :
  Topo.Graph.t -> paths:Topo.Path.t list -> demand:float -> (Topo.Path.t * float) list
(** Even hash-style split of a demand over the given equal-cost paths. *)
