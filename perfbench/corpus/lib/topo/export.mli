(** Export of topologies and activity states for external tooling. *)

val to_dot :
  ?state:State.t -> ?highlight:Path.t list -> Graph.t -> string
(** Graphviz rendering: nodes labelled with their names, links annotated with
    capacity; sleeping links (per [state]) dashed and grey; [highlight] paths
    drawn bold. *)

val to_csv : Graph.t -> string
(** One line per link: [src,dst,capacity_bps,latency_s]. *)

val capacity_summary : Graph.t -> (float * int) list
(** Distinct link capacities with their multiplicities, descending. *)
