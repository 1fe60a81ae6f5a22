(** Single-source shortest paths with pluggable arc weights and an activity
    filter, the workhorse under every routing variant in the repository. *)

type result = {
  dist : float array;  (** distance per node; [infinity] if unreachable *)
  prev_arc : int array;  (** incoming arc on the shortest-path tree; -1 at the source/unreachable *)
}

val run :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  src:int ->
  unit ->
  result
(** Dijkstra from [src]. [weight] defaults to arc latency and must be
    non-negative (an [infinity] weight excludes the arc); [active] defaults to
    everything. Ties are broken deterministically by arc identifier, so equal
    inputs always give equal trees. A settled node's incoming arc is never
    replaced, so zero-weight arcs cannot close a cycle in [prev_arc]. *)

val path_to : Topo.Graph.t -> result -> int -> Topo.Path.t option
(** Extracts the path to a destination from a {!run} result. [None] when
    unreachable; the query node must differ from the source. *)

val shortest_path :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  src:int ->
  dst:int ->
  unit ->
  Topo.Path.t option
(** The path {!path_to} would extract from [run ~src] for [dst], found
    without settling the whole graph: the search stops at the first heap
    pop whose distance is strictly greater than the current [dist.(dst)].
    That is exact for every non-negative weight, zero-weight ties
    included. Popped distances never decrease, so every later relaxation
    offers some node a distance strictly greater than [dist.(dst)]. Every
    node on the extracted path has a distance of at most [dist.(dst)], so
    its [dist] and [prev_arc] (and the tie-break between equal-distance
    arcs) can no longer change. Pops at exactly [dist.(dst)] still run,
    since a zero-weight arc from such a node may win the tie-break into
    [dst]. *)

val distance_matrix :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  unit ->
  float array array
(** All-pairs distances ([node_count] runs of {!run}). *)
