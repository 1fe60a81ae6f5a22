let all_shortest g ?weight ?(limit = 64) ~src ~dst () =
  let weight =
    match weight with Some w -> w | None -> fun a -> a.Topo.Graph.latency
  in
  let res = Dijkstra.run g ~weight ~src () in
  if res.Dijkstra.dist.(dst) = infinity then []
  else begin
    let eps = 1e-12 in
    let target = res.Dijkstra.dist.(dst) in
    (* Enumerate paths over the shortest-path DAG by DFS from the source. *)
    let results = ref [] in
    let count = ref 0 in
    let rec dfs node acc_arcs acc_dist =
      if !count < limit then begin
        if node = dst && abs_float (acc_dist -. target) <= eps *. (1.0 +. target) then begin
          incr count;
          results := Topo.Path.of_arcs g (List.rev acc_arcs) :: !results
        end
        else
          Array.iter
            (fun aid ->
              let arc = Topo.Graph.arc g aid in
              let w = weight arc in
              let v = arc.Topo.Graph.dst in
              let nd = acc_dist +. w in
              (* Stay on the DAG: the prefix distance must match dist(v). *)
              if
                w < infinity
                && abs_float (nd -. res.Dijkstra.dist.(v)) <= eps *. (1.0 +. nd)
                && res.Dijkstra.dist.(v) +. 0.0 <= target +. eps
              then dfs v (aid :: acc_arcs) nd)
            (Topo.Graph.out_arcs g node)
      end
    in
    dfs src [] 0.0;
    List.sort Topo.Path.compare !results
  end

let split _g ~paths ~demand =
  match paths with
  | [] -> []
  | _ ->
      let share = demand /. float_of_int (List.length paths) in
      List.map (fun p -> (p, share)) paths
