type variant =
  | Solver of Traffic.Matrix.t
  | Stress of float
  | Ospf
  | Heuristic of Traffic.Matrix.t

let stress_factors g assignment =
  let sf = Array.make (Topo.Graph.link_count g) 0.0 in
  (* Fold-then-sort: deterministic pair order regardless of table history
     (and certifiably so for the memo-unsafe audit). *)
  let entries = Hashtbl.fold (fun od p acc -> (od, p) :: acc) assignment [] in
  List.iter
    (fun (_, p) -> Array.iter (fun l -> sf.(l) <- sf.(l) +. 1.0) (Topo.Path.links g p))
    (List.sort (Eutil.Order.by fst Eutil.Order.int_pair) entries);
  Array.mapi (fun l count -> count /. Topo.Graph.link_capacity g l) sf

(* Links excluded by the stress rule: the top [fraction] by stress factor
   (only links that carry something). *)
let excluded_links g assignment fraction =
  let sf = stress_factors g assignment in
  let loaded =
    Array.to_list (Array.mapi (fun l s -> (l, s)) sf) |> List.filter (fun (_, s) -> s > 0.0)
  in
  let sorted =
    List.sort
      (Eutil.Order.by (fun (l, s) -> (s, l)) (Eutil.Order.pair (Eutil.Order.desc Float.compare) Int.compare))
      loaded
  in
  let n_excl = int_of_float (floor (fraction *. float_of_int (List.length sorted))) in
  List.filteri (fun i _ -> i < n_excl) sorted |> List.map fst

let compute ?margin ?(rounds = 1) g power ~always_on ~pairs variant =
  let margin = match margin with Some m -> m | None -> Eutil.Units.ratio 1.0 in
  let table : (int * int, Topo.Path.t list) Hashtbl.t = Hashtbl.create (List.length pairs) in
  List.iter (fun od -> Hashtbl.replace table od []) pairs;
  let previous_of od = Option.value (Hashtbl.find_opt table od) ~default:[] in
  let base_path od = Hashtbl.find_opt always_on.Always_on.paths od in
  let push od p =
    let prev = previous_of od in
    let dup =
      List.exists (Topo.Path.equal p) prev
      || match base_path od with Some b -> Topo.Path.equal b p | None -> false
    in
    if not dup then Hashtbl.replace table od (prev @ [ p ])
  in
  (match variant with
  | Solver peak ->
      (* Round r solves for demand level r/rounds of the peak, with every
         element already selected (always-on or earlier rounds) pinned on —
         the nested sequence the online component activates progressively. *)
      let pinned_state = Topo.State.copy always_on.Always_on.state in
      for r = 1 to rounds do
        let level = float_of_int r /. float_of_int rounds in
        let tm = Traffic.Matrix.scale peak level in
        let pinned l = Topo.State.link_on pinned_state l in
        (match Optim.Minimal.power_down ~margin ~pinned g power tm with
        | None -> ()
        | Some res ->
            List.iter
              (fun od ->
                match Hashtbl.find_opt res.Optim.Minimal.routing od with
                | Some p -> push od p
                | None -> ())
              pairs;
            (* Pin what this round selected for the next round. *)
            Topo.Graph.iter_links g ~f:(fun l ->
                if Topo.State.link_on res.Optim.Minimal.state l then
                  Topo.State.set_link g pinned_state l true))
      done;
      (* The peak solve happily reuses the pinned always-on links wherever
         they have capacity, so some pairs end up with no distinct on-demand
         path at all. Those pairs get a stress-avoidance alternative, so the
         online component always has extra capacity to activate. *)
      let sf = stress_factors g always_on.Always_on.paths in
      List.iter
        (fun (o, d) ->
          if previous_of (o, d) = [] then begin
            match base_path (o, d) with
            | None -> ()
            | Some ao ->
                let hottest =
                  Array.fold_left
                    (fun acc l -> match acc with Some h when sf.(h) >= sf.(l) -> acc | _ -> Some l)
                    None (Topo.Path.links g ao)
                in
                Option.iter
                  (fun h ->
                    match Routing.Disjoint.avoiding g ~avoid:[ h ] ~src:o ~dst:d () with
                    | Some p -> push (o, d) p
                    | None -> ())
                  hottest
          end)
        pairs
  | Stress fraction ->
      (* Each round recomputes stress over everything assigned so far and
         avoids the most stressed links, diversifying successive tables. *)
      let assignment = Hashtbl.copy always_on.Always_on.paths in
      for _ = 1 to rounds do
        let excluded = excluded_links g assignment fraction in
        List.iter
          (fun (o, d) ->
            let p =
              match Routing.Disjoint.avoiding g ~avoid:excluded ~src:o ~dst:d () with
              | Some p -> Some p
              | None -> Routing.Dijkstra.shortest_path g ~src:o ~dst:d ()
            in
            Option.iter
              (fun p ->
                push (o, d) p;
                Hashtbl.replace assignment (o, d) p)
              p)
          pairs
      done
  | Ospf ->
      let routes = Routing.Spf.routes g ~pairs () in
      List.iter
        (fun od -> match Hashtbl.find_opt routes od with Some p -> push od p | None -> ())
        pairs
  | Heuristic peak ->
      let pinned l = Topo.State.link_on always_on.Always_on.state l in
      (match Optim.Greente.minimal_subset ~margin ~pinned g power peak with
      | None -> ()
      | Some res ->
          List.iter
            (fun od ->
              match Hashtbl.find_opt res.Optim.Minimal.routing od with
              | Some p -> push od p
              | None -> ())
            pairs));
  table
