type problem = { lp : Simplex.problem; integer : bool array }

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded
  | Node_limit

let int_eps = 1e-6

let m_nodes =
  Obs.Metric.Counter.create ~help:"Branch-and-bound nodes explored"
    "lp_bnb_nodes_total"

let m_solve_seconds =
  Obs.Metric.Histogram.create ~help:"Wall time of one MILP solve"
    "lp_milp_solve_seconds"

let most_fractional integer x =
  let best = ref None in
  Array.iteri
    (fun j is_int ->
      if is_int then begin
        let frac = x.(j) -. Float.round x.(j) in
        let dist = abs_float frac in
        if dist > int_eps then begin
          match !best with
          | Some (_, bd) when bd >= dist -> ()
          | _ -> best := Some (j, dist)
        end
      end)
    integer;
  Option.map fst !best

let bound_row n j coeff rel rhs =
  let row = Array.make n 0.0 in
  row.(j) <- coeff;
  (row, rel, rhs)

let solve_raw ?(max_nodes = 50_000) { lp; integer } =
  if Array.length integer <> lp.Simplex.n_vars then invalid_arg "Milp.solve: integer flags";
  let incumbent = ref None in
  let nodes = ref 0 in
  let hit_limit = ref false in
  let better obj = match !incumbent with None -> true | Some (_, best) -> obj < best -. 1e-9 in
  (* Branching bound rows are appended AFTER the base rows, oldest first, so
     every node's row list has its parent's as a prefix. That keeps the
     simplex column layout stable along a branch, which is what lets the
     parent's optimal basis warm-start the child solve: the child is the
     parent plus one violated bound, and a few dual pivots repair it. *)
  let rev_base = List.rev lp.Simplex.rows in
  let rec branch extra_rows hint =
    if !nodes >= max_nodes then hit_limit := true
    else begin
      incr nodes;
      let rows = List.rev_append rev_base (List.rev extra_rows) in
      let problem = { lp with Simplex.rows = rows } in
      match Simplex.solve_with_basis ?hint problem with
      | Simplex.Infeasible, _ -> ()
      | Simplex.Unbounded, _ ->
          (* A relaxation unbounded at the root makes the MILP unbounded or
             infeasible; deeper in the tree it cannot improve a bounded
             incumbent search, so treat it as a dead end only at depth > 0. *)
          if extra_rows = [] then raise Exit
      | Simplex.Optimal { x; objective }, basis ->
          if better objective then begin
            match most_fractional integer x with
            | None -> incumbent := Some (Array.copy x, objective)
            | Some j ->
                let v = x.(j) in
                let lo = floor v and hi = ceil v in
                (* Explore the branch closest to the relaxation first. *)
                let down () =
                  branch (bound_row lp.Simplex.n_vars j 1.0 Simplex.Le lo :: extra_rows) basis
                in
                let up () =
                  branch (bound_row lp.Simplex.n_vars j 1.0 Simplex.Ge hi :: extra_rows) basis
                in
                if v -. lo <= hi -. v then begin
                  down ();
                  up ()
                end
                else begin
                  up ();
                  down ()
                end
          end
    end
  in
  let outcome =
    match branch [] None with
    | () -> (
        match !incumbent with
        | Some (x, objective) -> Optimal { x; objective }
        | None -> if !hit_limit then Node_limit else Infeasible)
    | exception Exit -> Unbounded
  in
  if Obs.Control.enabled () then Obs.Metric.Counter.add_int m_nodes !nodes;
  outcome

let solve ?max_nodes p =
  if Obs.Control.enabled () then
    Obs.Metric.Histogram.time m_solve_seconds (fun () -> solve_raw ?max_nodes p)
  else solve_raw ?max_nodes p
