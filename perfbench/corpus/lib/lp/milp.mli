(** Branch-and-bound mixed-integer solver on top of {!Simplex}.

    Sufficient for the exact energy-aware routing instances used to validate
    the heuristics on small topologies (the paper notes CPLEX itself needs
    hours on medium ISP topologies — exactness at scale is not the point). *)

type problem = {
  lp : Simplex.problem;
  integer : bool array;  (** per-variable integrality flags, length [n_vars] *)
}

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded
  | Node_limit  (** search stopped before proving optimality *)

val solve : ?max_nodes:int -> problem -> outcome
(** Depth-first branch and bound, branching on the most fractional integer
    variable; [max_nodes] (default 50_000) bounds the search tree. If an
    incumbent exists when the limit hits, it is returned as [Optimal]. *)
