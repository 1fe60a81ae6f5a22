(** Deployment feasibility and robustness analysis (Section 4.5 and the
    paper's stated future work).

    ISP deployment installs the energy-critical paths as MPLS tunnels at the
    origin routers; modern routers support a limited number of tunnels
    (about 600 circa 2005 [26]), and memory-limited alternatives such as
    Dual Topology Routing hold only two tables. This module checks those
    budgets, restricts tables to fit them, and quantifies when topology
    changes would warrant recomputing the paths. *)

type tunnel_stats = {
  per_node : (int * int) list;  (** (origin node, head-end tunnel count), descending *)
  max_per_node : int;
  total : int;
}

val tunnel_stats : Tables.t -> tunnel_stats

val fits_mpls : ?tunnel_limit:int -> Tables.t -> bool
(** True when no origin needs more head-end tunnels than the router supports
    (default 600). *)

val restrict : Tables.t -> max_tables:int -> Tables.t
(** Keeps only the [max_tables] most important paths per pair (always-on
    first, then on-demand in activation order, failover last) — the paper's
    answer to memory-limited routing: "deploy only the most important routing
    tables, while keeping the remaining ones ready for later use".
    @raise Invalid_argument if [max_tables < 1]. *)

val single_failure_coverage : Tables.t -> float
(** Fraction (0..1) of pairs that keep at least one usable installed path
    under every single link failure. *)

val coverage_after_failures : Tables.t -> failed:int list -> float
(** Fraction of pairs with at least one installed path avoiding all the
    failed links. *)

val recompute_warranted : ?threshold:float -> Tables.t -> failed:int list -> bool
(** The future-work question made operational: after the given topology
    change, is the fraction of disconnected pairs above [threshold]
    (default 0.05), i.e. should the operator recompute the energy-critical
    paths? *)
