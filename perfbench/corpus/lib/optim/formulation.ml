module G = Topo.Graph
module U = Eutil.Units

type exact = {
  state : Topo.State.t;
  routing : (int * int, Topo.Path.t) Hashtbl.t;
  power_watts : float;
}

let solve ?margin ?(max_nodes = 200_000) ?(pin_link = fun _ -> false)
    ?(delay_bound = fun _ -> None) g power tm =
  let margin = U.to_float (match margin with Some m -> m | None -> U.ratio 1.0) in
  let m = Lp.Model.create () in
  let flows = Traffic.Matrix.flows tm in
  let n_nodes = G.node_count g in
  let n_links = G.link_count g in
  let n_arcs = G.arc_count g in
  let x = Array.init n_nodes (fun i -> Lp.Model.binary m (Printf.sprintf "X_%d" i)) in
  let y = Array.init n_links (fun l -> Lp.Model.binary m (Printf.sprintf "Y_%d" l)) in
  let f =
    List.map
      (fun (o, d, v) ->
        ((o, d, v), Array.init n_arcs (fun a -> Lp.Model.binary m (Printf.sprintf "f_%d_%d_%d" o d a))))
      flows
  in
  (* Flow conservation. *)
  List.iter
    (fun ((o, d, _), fv) ->
      for n = 0 to n_nodes - 1 do
        let terms = ref [] in
        Array.iter (fun a -> terms := (-1.0, fv.(a)) :: !terms) (G.in_arcs g n);
        Array.iter (fun a -> terms := (1.0, fv.(a)) :: !terms) (G.out_arcs g n);
        let rhs = if n = o then 1.0 else if n = d then -1.0 else 0.0 in
        Lp.Model.constr m !terms Lp.Simplex.Eq rhs
      done)
    f;
  (* Capacity (2) and flow-on-active-link coupling. *)
  for a = 0 to n_arcs - 1 do
    let arc = G.arc g a in
    (* Capacity, pre-scaled by the arc capacity for numerical conditioning:
       sum_v (v/C) f_a <= margin * Y. *)
    let cap_terms =
      (-.margin, y.(arc.G.link)) :: List.map (fun ((_, _, v), fv) -> (v /. arc.G.capacity, fv.(a))) f
    in
    Lp.Model.constr m cap_terms Lp.Simplex.Le 0.0;
    List.iter
      (fun (_, fv) -> Lp.Model.constr m [ (1.0, fv.(a)); (-1.0, y.(arc.G.link)) ] Lp.Simplex.Le 0.0)
      f
  done;
  (* Constraint (1): links of a powered-off router are inactive; and
     constraint (3): a router with no active link is off. *)
  for l = 0 to n_links - 1 do
    let i, j = G.link_endpoints g l in
    Lp.Model.constr m [ (1.0, y.(l)); (-1.0, x.(i)) ] Lp.Simplex.Le 0.0;
    Lp.Model.constr m [ (1.0, y.(l)); (-1.0, x.(j)) ] Lp.Simplex.Le 0.0;
    if pin_link l then Lp.Model.constr m [ (1.0, y.(l)) ] Lp.Simplex.Ge 1.0
  done;
  for n = 0 to n_nodes - 1 do
    let incident =
      let acc = ref [] in
      Array.iter (fun a -> acc := (G.arc g a).G.link :: !acc) (G.out_arcs g n);
      List.sort_uniq Int.compare !acc
    in
    Lp.Model.constr m
      ((1.0, x.(n)) :: List.map (fun l -> (-1.0, y.(l))) incident)
      Lp.Simplex.Le 0.0
  done;
  (* Delay bound (4) for REsPoNse-lat. *)
  List.iter
    (fun ((o, d, _), fv) ->
      match delay_bound (o, d) with
      | None -> ()
      | Some bound ->
          let terms = ref [] in
          Array.iteri (fun a v -> terms := ((G.arc g a).G.latency, v) :: !terms) fv;
          Lp.Model.constr m !terms Lp.Simplex.Le bound)
    f;
  (* Objective: chassis power on X, link power on Y. The coefficients are
     typed watts until this point; the LP substrate is the dimensionless
     boundary, so the conversion is an explicit, annotated escape. *)
  let coeff (w : U.watts U.q) = U.to_float w in
  let obj =
    Array.to_list (Array.mapi (fun i v -> (coeff (Power.Model.node_power power g i), v)) x)
    @ Array.to_list (Array.mapi (fun l v -> (coeff (Power.Model.link_power power g l), v)) y)
  in
  Lp.Model.minimize m obj;
  (* The simplex substrate silently misbehaves on NaN/infinite input, so
     validate the constructed model before handing it over (the check is a
     linear scan, negligible next to branch-and-bound). *)
  (match Check.Finding.errors (Check.Invariant.check_model m) with
  | [] -> ()
  | errors ->
      invalid_arg ("Formulation.solve: malformed LP model:\n" ^ Check.Finding.render errors));
  match Lp.Model.solve ~max_nodes m with
  | `Infeasible -> `Infeasible
  | `Unbounded -> `Infeasible (* power is nonnegative; cannot happen *)
  | `Node_limit -> `Limit
  | `Optimal sol ->
      let state = Topo.State.all_off g in
      for l = 0 to n_links - 1 do
        if Lp.Model.value sol y.(l) > 0.5 then Topo.State.set_link g state l true
      done;
      let routing = Hashtbl.create (List.length f) in
      let visited = Array.make n_nodes false in
      List.iter
        (fun ((o, d, _), fv) ->
          (* Extract the o->d path from the support of f by depth-first
             search. The support always contains such a path (conservation),
             but it may also contain cost-free cycles on links that other
             flows keep active, so a blind walk could loop; DFS with a
             visited set cannot. *)
          Array.fill visited 0 n_nodes false;
          let rec dfs node acc =
            if node = d then Some (List.rev acc)
            else begin
              visited.(node) <- true;
              Array.fold_left
                (fun found a ->
                  match found with
                  | Some _ -> found
                  | None ->
                      let arc = G.arc g a in
                      if Lp.Model.value sol fv.(a) > 0.5 && not visited.(arc.G.dst) then
                        dfs arc.G.dst (a :: acc)
                      else None)
                None (G.out_arcs g node)
            end
          in
          match dfs o [] with
          | Some arcs -> Hashtbl.replace routing (o, d) (Topo.Path.of_arcs g arcs)
          | None -> failwith "Formulation.solve: broken flow extraction")
        f;
      `Optimal { state; routing; power_watts = Lp.Model.objective sol }
