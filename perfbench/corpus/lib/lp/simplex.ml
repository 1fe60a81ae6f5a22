type relation = Le | Eq | Ge

type problem = {
  n_vars : int;
  objective : float array;
  rows : (float array * relation * float) list;
}

type outcome =
  | Optimal of { x : float array; objective : float }
  | Infeasible
  | Unbounded

let eps = 1e-9

let m_pivots =
  Obs.Metric.Counter.create ~help:"Simplex pivot operations" "lp_simplex_pivots_total"

let m_solves =
  Obs.Metric.Counter.create ~help:"Simplex solve invocations" "lp_simplex_solves_total"

let m_solve_seconds =
  Obs.Metric.Histogram.create ~help:"Wall time of one simplex solve"
    "lp_simplex_solve_seconds"

(* The tableau holds the constraint rows in canonical (basic) form; [basis]
   maps each row to its basic column. [cost] is the reduced-cost row (length
   ncols) and [obj] the current objective value. Pivoting maintains the
   invariant that basic columns have zero reduced cost. *)
type tableau = {
  t : float array array;  (* m x (ncols + 1); last column is the rhs *)
  basis : int array;
  mutable cost : float array;
  mutable obj : float;
  ncols : int;
  mutable npivots : int;  (* pivots applied to this tableau; published per solve *)
}

let pivot tb ~row ~col =
  tb.npivots <- tb.npivots + 1;
  let m = Array.length tb.t in
  let r = tb.t.(row) in
  let piv = r.(col) in
  (* Pivot selection only ever picks entries with |entry| > eps. *)
  assert (piv <> 0.0);
  for j = 0 to tb.ncols do
    r.(j) <- r.(j) /. piv
  done;
  for i = 0 to m - 1 do
    if i <> row then begin
      let f = tb.t.(i).(col) in
      if abs_float f > 0.0 then begin
        let ri = tb.t.(i) in
        for j = 0 to tb.ncols do
          ri.(j) <- ri.(j) -. (f *. r.(j))
        done;
        ri.(col) <- 0.0
      end
    end
  done;
  let f = tb.cost.(col) in
  if abs_float f > 0.0 then begin
    for j = 0 to tb.ncols - 1 do
      tb.cost.(j) <- tb.cost.(j) -. (f *. r.(j))
    done;
    tb.cost.(col) <- 0.0;
    tb.obj <- tb.obj -. (f *. r.(tb.ncols))
  end;
  tb.basis.(row) <- col

(* Bland's rule: entering = lowest-index column with negative reduced cost;
   leaving = lexicographic min-ratio (ties by lowest basis index). Returns
   [`Optimal], or [`Unbounded] if some improving column has no positive
   entry. *)
let run_phase tb =
  let m = Array.length tb.t in
  let rec iterate guard =
    if guard = 0 then failwith "Simplex.run_phase: iteration guard exceeded";
    let entering = ref (-1) in
    (try
       for j = 0 to tb.ncols - 1 do
         if tb.cost.(j) < -.eps then begin
           entering := j;
           raise Exit
         end
       done
     with Exit -> ());
    if !entering < 0 then `Optimal
    else begin
      let col = !entering in
      (* Exact ratio comparisons: an eps-tolerant tie test can pick a row
         whose ratio is larger by ~1e-9, which a 1e9-scale coefficient then
         amplifies into a primal infeasibility. Ties (exact equality) break
         towards the smallest basis index (Bland). *)
      let best = ref None in
      for i = 0 to m - 1 do
        let a = tb.t.(i).(col) in
        if a > eps then begin
          let ratio = tb.t.(i).(tb.ncols) /. a in
          match !best with
          | None -> best := Some (ratio, i)
          | Some (br, bi) ->
              if ratio < br || (ratio = br && tb.basis.(i) < tb.basis.(bi)) then
                best := Some (ratio, i)
        end
      done;
      match !best with
      | None -> `Unbounded
      | Some (_, row) ->
          pivot tb ~row ~col;
          iterate (guard - 1)
    end
  in
  iterate (200_000 + (2000 * (m + tb.ncols)))

type basis = int array
(* Basic column per tableau row. Structural and slack column indices are
   layout-stable between a problem and any extension of it that appends rows
   at the end (slacks are numbered in row order); artificial indices are not,
   so [sanitized_basis] replaces them with -1 before the basis escapes. *)

(* A built tableau plus the layout facts the phases need. *)
type built = {
  tb : tableau;
  m : int;
  b_n_vars : int;
  n_slack : int;
  n_art : int;
  art_cols : int array;
}

let normalise_rows n_vars rows =
  List.map
    (fun (coeffs, rel, b) ->
      if Array.length coeffs <> n_vars then invalid_arg "Simplex.solve: row length";
      (* Row equilibration: dividing a constraint by its largest coefficient
         magnitude does not change the feasible set but keeps the tableau
         well conditioned when coefficients span many orders of magnitude
         (link capacities in bit/s vs unit flow indicators). *)
      let scale = Array.fold_left (fun acc c -> max acc (abs_float c)) 0.0 coeffs in
      let coeffs, b =
        if scale > 0.0 && scale <> 1.0 then (Array.map (fun c -> c /. scale) coeffs, b /. scale)
        else (coeffs, b)
      in
      if b < 0.0 then begin
        let flipped = match rel with Le -> Ge | Ge -> Le | Eq -> Eq in
        (Array.map (fun c -> -.c) coeffs, flipped, -.b)
      end
      else (coeffs, rel, b))
    rows

let build { n_vars; objective = _; rows } =
  let rows = normalise_rows n_vars rows in
  let m = List.length rows in
  let n_slack = List.length (List.filter (fun (_, r, _) -> r = Le || r = Ge) rows) in
  let n_art = List.length (List.filter (fun (_, r, _) -> r = Ge || r = Eq) rows) in
  let ncols = n_vars + n_slack + n_art in
  let t = Array.make_matrix m (ncols + 1) 0.0 in
  let basis = Array.make m 0 in
  let art_cols = Array.make n_art 0 in
  let slack = ref n_vars in
  let art = ref (n_vars + n_slack) in
  let art_count = ref 0 in
  List.iteri
    (fun i (coeffs, rel, b) ->
      Array.blit coeffs 0 t.(i) 0 n_vars;
      t.(i).(ncols) <- b;
      (match rel with
      | Le ->
          t.(i).(!slack) <- 1.0;
          basis.(i) <- !slack;
          incr slack
      | Ge ->
          t.(i).(!slack) <- -1.0;
          incr slack;
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          art_cols.(!art_count) <- !art;
          incr art_count;
          incr art
      | Eq ->
          t.(i).(!art) <- 1.0;
          basis.(i) <- !art;
          art_cols.(!art_count) <- !art;
          incr art_count;
          incr art))
    rows;
  let tb = { t; basis; cost = Array.make ncols 0.0; obj = 0.0; ncols; npivots = 0 } in
  { tb; m; b_n_vars = n_vars; n_slack; n_art; art_cols }

(* Phase 1: minimise the sum of artificials. Reduced costs: 1 on artificial
   columns minus the rows where artificials are basic. Returns false when the
   problem is infeasible. *)
let phase1 { tb; m; b_n_vars; n_slack; n_art; art_cols } =
  if n_art = 0 then true
  else begin
    Array.iter (fun c -> tb.cost.(c) <- 1.0) art_cols;
    for i = 0 to m - 1 do
      if tb.basis.(i) >= b_n_vars + n_slack then begin
        for j = 0 to tb.ncols - 1 do
          tb.cost.(j) <- tb.cost.(j) -. tb.t.(i).(j)
        done;
        tb.obj <- tb.obj -. tb.t.(i).(tb.ncols)
      end
    done;
    match run_phase tb with
    | `Unbounded -> false (* phase 1 is bounded below by 0; defensive *)
    | `Optimal -> not (-.tb.obj > 1e-6)
  end

(* Drive any remaining artificial variables out of the basis. If no pivot
   exists the row is redundant (all-zero); the basic artificial stays at
   value 0 and is harmless. *)
let drive_out_artificials { tb; m; b_n_vars; n_slack; _ } =
  for i = 0 to m - 1 do
    if tb.basis.(i) >= b_n_vars + n_slack then begin
      let found = ref false in
      let j = ref 0 in
      while (not !found) && !j < b_n_vars + n_slack do
        if abs_float tb.t.(i).(!j) > eps then begin
          pivot tb ~row:i ~col:!j;
          found := true
        end;
        incr j
      done
    end
  done

(* Phase 2 cost row: reduced costs c_j - c_B B^-1 A_j for the real
   objective, with artificial columns frozen out by an effectively infinite
   cost. Valid for any canonical tableau, so the warm path reuses it. *)
let set_phase2_cost { tb; m; b_n_vars; art_cols; _ } objective =
  let cost = Array.make tb.ncols 0.0 in
  Array.blit objective 0 cost 0 b_n_vars;
  Array.iter (fun c -> cost.(c) <- infinity) art_cols;
  tb.cost <- cost;
  tb.obj <- 0.0;
  for i = 0 to m - 1 do
    let b = tb.basis.(i) in
    let cb = if b < b_n_vars then objective.(b) else 0.0 in
    if cb <> 0.0 then begin
      for j = 0 to tb.ncols - 1 do
        if tb.cost.(j) <> infinity then tb.cost.(j) <- tb.cost.(j) -. (cb *. tb.t.(i).(j))
      done;
      tb.obj <- tb.obj -. (cb *. tb.t.(i).(tb.ncols))
    end
  done

(* Phase 2 proper plus solution extraction. *)
let finish { tb; m; b_n_vars; _ } objective =
  match run_phase tb with
  | `Unbounded -> Unbounded
  | `Optimal ->
      let x = Array.make b_n_vars 0.0 in
      for i = 0 to m - 1 do
        if tb.basis.(i) < b_n_vars then x.(tb.basis.(i)) <- tb.t.(i).(tb.ncols)
      done;
      let objective_value =
        Array.fold_left ( +. ) 0.0 (Array.mapi (fun j c -> c *. x.(j)) objective)
      in
      Optimal { x; objective = objective_value }

let solve_raw ({ objective; _ } as p) =
  let b = build p in
  let outcome =
    if not (phase1 b) then Infeasible
    else begin
      drive_out_artificials b;
      set_phase2_cost b objective;
      finish b objective
    end
  in
  (outcome, b)

let solve p =
  if Obs.Control.enabled () then begin
    let outcome, b =
      Obs.Metric.Histogram.time m_solve_seconds (fun () -> solve_raw p)
    in
    Obs.Metric.Counter.incr m_solves;
    Obs.Metric.Counter.add_int m_pivots b.tb.npivots;
    outcome
  end
  else fst (solve_raw p)

(* ------------------------------------------------------------------ *)
(* Warm starts                                                        *)
(* ------------------------------------------------------------------ *)

let m_warm_starts =
  Obs.Metric.Counter.create ~help:"Simplex solves warm-started from a parent basis"
    "lp_simplex_warm_starts_total"

let m_warm_fallbacks =
  Obs.Metric.Counter.create
    ~help:"Warm-start attempts that fell back to a cold two-phase solve"
    "lp_simplex_warm_fallbacks_total"

let sanitized_basis { tb; b_n_vars; n_slack; _ } =
  Array.map (fun c -> if c >= b_n_vars + n_slack then -1 else c) tb.basis

(* Canonicalize towards the hinted basis: pivot each hinted structural or
   slack column into its row where the pivot entry is numerically sound.
   Skipped rows keep their cold basic column (slack or artificial). *)
let crash_basis b hint =
  let { tb; m; b_n_vars; n_slack; _ } = b in
  let is_basic = Array.make (tb.ncols + 1) false in
  Array.iter (fun c -> is_basic.(c) <- true) tb.basis;
  let limit = min m (Array.length hint) in
  for i = 0 to limit - 1 do
    let c = hint.(i) in
    if
      c >= 0
      && c < b_n_vars + n_slack
      && (not is_basic.(c))
      && tb.basis.(i) <> c
      && abs_float tb.t.(i).(c) > 1e-7
    then begin
      is_basic.(tb.basis.(i)) <- false;
      pivot tb ~row:i ~col:c;
      is_basic.(c) <- true
    end
  done

(* After a crash the hinted basis must not leave an artificial basic at a
   nonzero value — that would mean the hint does not span the equality
   structure and phase 1 is unavoidable. *)
let artificials_clear { tb; m; b_n_vars; n_slack; _ } =
  let ok = ref true in
  for i = 0 to m - 1 do
    if tb.basis.(i) >= b_n_vars + n_slack && abs_float tb.t.(i).(tb.ncols) > 1e-6 then ok := false
  done;
  !ok

let dual_feasible { tb; _ } =
  let ok = ref true in
  for j = 0 to tb.ncols - 1 do
    if tb.cost.(j) < -1e-7 then ok := false
  done;
  !ok

(* Dual simplex steps restoring primal feasibility (rhs >= 0) while the
   phase-2 cost row stays dual feasible. [`Infeasible] means some row cannot
   be repaired (the appended bound cut off the feasible set); [`Stalled]
   sends the caller to the cold path. *)
let dual_repair { tb; m; _ } =
  let guard = ref (10_000 + (100 * (m + tb.ncols))) in
  let verdict = ref `Feasible in
  let running = ref true in
  while !running do
    if !guard <= 0 then begin
      verdict := `Stalled;
      running := false
    end
    else begin
      decr guard;
      let row = ref (-1) in
      let most = ref (-.eps) in
      for i = 0 to m - 1 do
        let v = tb.t.(i).(tb.ncols) in
        if v < !most then begin
          most := v;
          row := i
        end
      done;
      if !row < 0 then running := false
      else begin
        let r = tb.t.(!row) in
        let col = ref (-1) in
        let best = ref infinity in
        for j = 0 to tb.ncols - 1 do
          let a = r.(j) in
          if a < -.eps && tb.cost.(j) < infinity then begin
            let ratio = tb.cost.(j) /. -.a in
            if ratio < !best then begin
              best := ratio;
              col := j
            end
          end
        done;
        if !col < 0 then begin
          verdict := `Infeasible;
          running := false
        end
        else pivot tb ~row:!row ~col:!col
      end
    end
  done;
  !verdict

(* Warm attempt: build cold, crash the hint in, repair primal feasibility
   with dual steps, then run phase 2. None = use the cold path instead. *)
let try_warm hint ({ objective; _ } as p) =
  let b = build p in
  crash_basis b hint;
  if not (artificials_clear b) then None
  else begin
    set_phase2_cost b objective;
    if not (dual_feasible b) then None
    else
      match dual_repair b with
      | `Stalled -> None
      | `Infeasible -> Some (Infeasible, b)
      | `Feasible -> Some (finish b objective, b)
  end

let solve_with_basis ?hint p =
  let warm =
    match hint with
    | None -> None
    | Some h -> (try try_warm h p with Failure _ -> None)
  in
  let outcome, b, fell_back =
    match warm with
    | Some (outcome, b) -> (outcome, b, false)
    | None ->
        let outcome, b = solve_raw p in
        (outcome, b, hint <> None)
  in
  if Obs.Control.enabled () then begin
    Obs.Metric.Counter.incr m_solves;
    Obs.Metric.Counter.add_int m_pivots b.tb.npivots;
    if hint <> None then Obs.Metric.Counter.incr m_warm_starts;
    if fell_back then Obs.Metric.Counter.incr m_warm_fallbacks
  end;
  let basis =
    match outcome with Optimal _ -> Some (sanitized_basis b) | Infeasible | Unbounded -> None
  in
  (outcome, basis)
