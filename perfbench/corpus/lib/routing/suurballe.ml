let default_weight arc = arc.Topo.Graph.latency

let disjoint_pair g ?(weight = default_weight) ?(active = fun _ -> true) ~src ~dst () =
  (* Pass 1: plain shortest path, also yielding the distance potentials. *)
  let first = Dijkstra.run g ~weight ~active ~src () in
  if first.Dijkstra.dist.(dst) = infinity then None
  else begin
    let dist = first.Dijkstra.dist in
    let p1_arcs = Hashtbl.create 16 in
    let rec collect node =
      let a = first.Dijkstra.prev_arc.(node) in
      if a >= 0 then begin
        Hashtbl.replace p1_arcs a ();
        collect (Topo.Graph.arc g a).Topo.Graph.src
      end
    in
    collect dst;
    (* Pass 2 runs on the residual graph: arcs of P1 are forbidden, their
       reversals cost 0; all other arcs use reduced costs
       w'(u,v) = w + d(u) - d(v) >= 0 (so Dijkstra stays valid). *)
    let reduced arc =
      let u = arc.Topo.Graph.src and v = arc.Topo.Graph.dst in
      if Hashtbl.mem p1_arcs arc.Topo.Graph.rev then 0.0
      else if dist.(u) = infinity || dist.(v) = infinity then infinity
      else weight arc +. dist.(u) -. dist.(v)
    in
    let active' arc = active arc && not (Hashtbl.mem p1_arcs arc.Topo.Graph.id) in
    let second = Dijkstra.run g ~weight:reduced ~active:active' ~src () in
    if second.Dijkstra.dist.(dst) = infinity then None
    else begin
      (* Union of the two arc sets with mutually-reversed pairs cancelled. *)
      let used = Hashtbl.copy p1_arcs in
      let rec collect2 node =
        let a = second.Dijkstra.prev_arc.(node) in
        if a >= 0 then begin
          let rev = (Topo.Graph.arc g a).Topo.Graph.rev in
          if Hashtbl.mem used rev then Hashtbl.remove used rev
          else Hashtbl.replace used a ();
          collect2 (Topo.Graph.arc g a).Topo.Graph.src
        end
      in
      collect2 dst;
      (* Decompose the remaining arcs into two link-disjoint s-t paths by
         walking twice from the source. *)
      let out_of = Hashtbl.create 16 in
      (* Arc ids sorted so the decomposition below is independent of hash
         order (memo-safe determinism). *)
      let used_arcs = Hashtbl.fold (fun a () acc -> a :: acc) used [] in
      List.iter
        (fun a ->
          let u = (Topo.Graph.arc g a).Topo.Graph.src in
          Hashtbl.replace out_of u (a :: Option.value (Hashtbl.find_opt out_of u) ~default:[]))
        (List.sort Int.compare used_arcs);
      let take_path () =
        let rec walk node acc =
          if node = dst then Some (List.rev acc)
          else begin
            match Hashtbl.find_opt out_of node with
            | Some (a :: rest) ->
                if rest = [] then Hashtbl.remove out_of node
                else Hashtbl.replace out_of node rest;
                walk (Topo.Graph.arc g a).Topo.Graph.dst (a :: acc)
            | Some [] | None -> None
          end
        in
        walk src []
      in
      match (take_path (), take_path ()) with
      | Some a1, Some a2 ->
          let p1 = Topo.Path.of_arcs g a1 and p2 = Topo.Path.of_arcs g a2 in
          let w p =
            Array.fold_left (fun acc a -> acc +. weight (Topo.Graph.arc g a)) 0.0 p.Topo.Path.arcs
          in
          if w p1 <= w p2 then Some (p1, p2) else Some (p2, p1)
      | _ -> None
    end
  end
