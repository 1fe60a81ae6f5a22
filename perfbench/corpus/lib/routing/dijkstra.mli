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
    inputs always give equal trees. *)

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
(** One-shot convenience wrapper. *)

val distance_matrix :
  Topo.Graph.t ->
  ?weight:(Topo.Graph.arc -> float) ->
  ?active:(Topo.Graph.arc -> bool) ->
  unit ->
  float array array
(** All-pairs distances ([node_count] runs of {!run}). *)
