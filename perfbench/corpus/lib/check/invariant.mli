(** Semantic validators over the domain IR: topology graphs, installed
    paths, REsPoNse path tables (paper §2.2), LP models, traffic matrices,
    and power models. Each validator returns findings instead of raising so
    that callers can aggregate a full report; [Finding.errors] selects the
    hard violations.

    Rules:
    - [graph-arc]: dangling or inconsistent arc/link wiring.
    - [graph-capacity]: non-positive or non-finite arc capacity.
    - [graph-latency]: negative or non-finite arc latency.
    - [path-discontiguous]: arc ids out of range or consecutive arcs that do
      not chain head-to-tail.
    - [path-endpoint]: stored or expected endpoints do not match the arcs.
    - [path-loop]: a node is visited twice.
    - [table-coverage]: an OD pair from [pairs] has no table entry — the
      always-on set must cover every pair.
    - [table-duplicate-pair]: two entries for the same OD pair.
    - [table-ondemand-dup]: the same path installed twice for one pair.
    - [table-failover-overlap] (warning): the failover path shares a link
      with the always-on path it protects; §2.2 wants link-disjointness, but
      some topologies only admit maximally-disjoint failovers.
    - [lp-duplicate-var]: two LP variables share a name.
    - [lp-var-range]: a term references an out-of-range variable.
    - [lp-nonfinite]: NaN or infinite coefficient, bound, or objective term.
    - [lp-bound]: a single-variable upper bound below the implicit lower
      bound 0 (unsatisfiable).
    - [tm-dimension]: traffic matrix size does not match the node count.
    - [tm-negative]: negative or non-finite demand entry.
    - [power-monotone]: a negative or non-finite power component, which
      would make total power non-monotone in the activity state. *)

val check_graph : Topo.Graph.t -> Finding.t list

val check_path :
  Topo.Graph.t -> ?expect:int * int -> where:string -> Topo.Path.t -> Finding.t list
(** [expect] is the OD pair the path is supposed to connect. *)

type table_entry = {
  origin : int;
  dest : int;
  always_on : Topo.Path.t;
  on_demand : Topo.Path.t list;
  failover : Topo.Path.t option;
}
(** Structural mirror of [Response.Tables.entry]; duplicated here so the
    checker does not depend on the [response] library (which itself calls
    these validators at table-install time). *)

val check_tables :
  Topo.Graph.t -> pairs:(int * int) list -> table_entry list -> Finding.t list
(** Validates every entry's paths, coverage of [pairs], distinctness, and
    failover disjointness. *)

val check_model : Lp.Model.t -> Finding.t list

val check_matrix : Topo.Graph.t -> Traffic.Matrix.t -> Finding.t list

val check_power : Power.Model.t -> Topo.Graph.t -> Finding.t list
