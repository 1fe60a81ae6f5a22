let path_weight g weight p =
  Array.fold_left (fun acc a -> acc +. weight (Topo.Graph.arc g a)) 0.0 p.Topo.Path.arcs

let m_runs =
  Obs.Metric.Counter.create ~help:"Yen k-shortest-path invocations" "routing_yen_runs_total"

let m_path_hops =
  Obs.Metric.Histogram.create ~help:"Hop count of paths accepted by Yen"
    "routing_yen_path_hops"

let k_shortest g ?weight ?(active = fun _ -> true) ~src ~dst ~k () =
  let weight =
    match weight with Some w -> w | None -> fun a -> a.Topo.Graph.latency
  in
  if k <= 0 then []
  else begin
    match Dijkstra.shortest_path g ~weight ~active ~src ~dst () with
    | None -> []
    | Some first ->
        let accepted = ref [ first ] in
        let candidates : (float * Topo.Path.t) list ref = ref [] in
        let seen = Hashtbl.create 16 in
        Hashtbl.add seen first.Topo.Path.arcs ();
        let add_candidate p =
          if not (Hashtbl.mem seen p.Topo.Path.arcs) then begin
            Hashtbl.add seen p.Topo.Path.arcs ();
            candidates := (path_weight g weight p, p) :: !candidates
          end
        in
        (* Ban tables reused across every spur iteration instead of being
           reallocated k * |path| times per run. *)
        let banned_arcs = Hashtbl.create 8 in
        let banned_nodes = Hashtbl.create 8 in
        (try
           while List.length !accepted < k do
             (* [accepted] starts as [first] and only grows. *)
             let prev = match !accepted with p :: _ -> p | [] -> first in
             let prev_arcs = prev.Topo.Path.arcs in
             (* Spur from every node of the previously accepted path. *)
             for i = 0 to Array.length prev_arcs - 1 do
               let spur_node =
                 if i = 0 then src else (Topo.Graph.arc g prev_arcs.(i - 1)).Topo.Graph.dst
               in
               let root = Array.sub prev_arcs 0 i in
               (* Arcs banned: the next arc of every accepted/candidate path
                  sharing the same root, in both directions of the link. *)
               Hashtbl.reset banned_arcs;
               let ban_next p =
                 let arcs = p.Topo.Path.arcs in
                 if Array.length arcs > i && Array.sub arcs 0 i = root then begin
                   Hashtbl.replace banned_arcs arcs.(i) ();
                   Hashtbl.replace banned_arcs (Topo.Graph.arc g arcs.(i)).Topo.Graph.rev ()
                 end
               in
               List.iter ban_next !accepted;
               (* Nodes of the root (except the spur node) are banned to keep
                  paths loopless. *)
               Hashtbl.reset banned_nodes;
               Array.iteri
                 (fun idx a ->
                   let arc = Topo.Graph.arc g a in
                   if idx = 0 then Hashtbl.replace banned_nodes arc.Topo.Graph.src ();
                   if arc.Topo.Graph.dst <> spur_node then
                     Hashtbl.replace banned_nodes arc.Topo.Graph.dst ())
                 root;
               let active' arc =
                 active arc
                 && (not (Hashtbl.mem banned_arcs arc.Topo.Graph.id))
                 && (not (Hashtbl.mem banned_nodes arc.Topo.Graph.dst))
                 && not (Hashtbl.mem banned_nodes arc.Topo.Graph.src && arc.Topo.Graph.src <> spur_node)
               in
               match Dijkstra.shortest_path g ~weight ~active:active' ~src:spur_node ~dst () with
               | None -> ()
               | Some spur ->
                   let total = Array.append root spur.Topo.Path.arcs in
                   add_candidate { Topo.Path.src; dst; arcs = total }
             done;
             match
               List.sort
                 (Eutil.Order.by
                    (fun (w, p) -> (w, p.Topo.Path.arcs))
                    (Eutil.Order.pair Float.compare (Eutil.Order.array Int.compare)))
                 !candidates
             with
             | [] -> raise Exit
             | (_, best) :: rest ->
                 candidates := rest;
                 accepted := best :: !accepted
           done
         with Exit -> ());
        let paths = List.rev !accepted in
        if Obs.Control.enabled () then begin
          Obs.Metric.Counter.incr m_runs;
          List.iter
            (fun p ->
              Obs.Metric.Histogram.observe m_path_hops
                (float_of_int (Array.length p.Topo.Path.arcs)))
            paths
        end;
        paths
  end
