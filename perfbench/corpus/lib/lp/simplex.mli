(** Dense two-phase primal simplex for linear programs in the form

      minimise c.x  subject to  A x (<= | = | >=) b,  x >= 0.

    This is the solver substrate standing in for CPLEX (see DESIGN.md). It
    uses Bland's rule, so it terminates on degenerate problems; it is exact
    enough for the small energy-aware routing instances the repository solves
    optimally, and it deliberately favours clarity over sparse-matrix speed. *)

type relation = Le | Eq | Ge

type problem = {
  n_vars : int;
  objective : float array;  (** length [n_vars]; coefficients to minimise *)
  rows : (float array * relation * float) list;  (** each row has length [n_vars] *)
}

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

val solve : problem -> outcome
(** Solves the program. Variables are implicitly bounded below by 0; upper
    bounds must be expressed as rows. *)

type basis
(** An optimal basis, reusable as a warm-start hint. A basis taken from a
    problem [p] is a valid hint for any problem whose row list has [p]'s
    rows as a prefix (extra rows appended at the end) and the same
    variables — the layout branch-and-bound produces when it appends bound
    rows per node. *)

val solve_with_basis : ?hint:basis -> problem -> outcome * basis option
(** Like {!solve}, and additionally returns the final basis on [Optimal]
    for threading into subsequent related solves. With [?hint] the solver
    crashes the hinted basis into the tableau, repairs primal feasibility
    with dual simplex steps, and falls back to the cold two-phase path
    whenever the hint is numerically unusable — the outcome is always the
    same as a cold solve, only (usually) cheaper. *)
