(** GreenTE-style power-aware traffic engineering heuristic [Zhang et al.,
    ICNP 2010]: the search is restricted to the k shortest paths of every
    origin-destination pair, which bounds computation time at some cost in
    savings. Used by the paper as the REsPoNse-heuristic variant. *)

val candidate_table :
  Topo.Graph.t -> ?k:int -> pairs:(int * int) list -> unit ->
  (int * int, Topo.Path.t list) Hashtbl.t
(** The k (default 4) shortest latency paths per pair. *)

val minimal_subset :
  ?margin:Eutil.Units.ratio Eutil.Units.q ->
  ?k:int ->
  ?pinned:(int -> bool) ->
  Topo.Graph.t ->
  Power.Model.t ->
  Traffic.Matrix.t ->
  Minimal.result option
(** Power-down greedy with rerouting restricted to the candidate table. *)
