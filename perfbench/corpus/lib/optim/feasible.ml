type t = {
  g : Topo.Graph.t;
  margin_v : float;
  st : Topo.State.t;
  residual_a : float array;
  load_a : float array;
  placed : (int * int, Topo.Path.t * float) Hashtbl.t;
}

let create ?(margin = 1.0) ?state g =
  if margin <= 0.0 then invalid_arg "Feasible.create: margin";
  let st = match state with Some s -> s | None -> Topo.State.all_on g in
  let n_arcs = Topo.Graph.arc_count g in
  let residual_a =
    Array.init n_arcs (fun a -> margin *. (Topo.Graph.arc g a).Topo.Graph.capacity)
  in
  { g; margin_v = margin; st; residual_a; load_a = Array.make n_arcs 0.0; placed = Hashtbl.create 64 }

let graph t = t.g
let state t = t.st
let margin t = t.margin_v
let residual t a = t.residual_a.(a)
let load t a = t.load_a.(a)

let link_load t l =
  let a1, a2 = Topo.Graph.arcs_of_link t.g l in
  max t.load_a.(a1) t.load_a.(a2)

let utilization t a = t.load_a.(a) /. (Topo.Graph.arc t.g a).Topo.Graph.capacity

let max_utilization t =
  let m = ref 0.0 in
  Array.iteri (fun a _ -> m := max !m (utilization t a)) t.load_a;
  !m

let congestion_weight t arc =
  arc.Topo.Graph.latency *. (1.0 +. (3.0 *. utilization t arc.Topo.Graph.id))

let commit t p demand =
  Array.iter
    (fun a ->
      t.residual_a.(a) <- t.residual_a.(a) -. demand;
      t.load_a.(a) <- t.load_a.(a) +. demand)
    p.Topo.Path.arcs;
  Hashtbl.replace t.placed (p.Topo.Path.src, p.Topo.Path.dst) (p, demand)

let place t o d demand =
  if Hashtbl.mem t.placed (o, d) then invalid_arg "Feasible.place: already placed";
  if demand <= 0.0 then invalid_arg "Feasible.place: demand";
  let active arc =
    Topo.State.arc_on t.g t.st arc.Topo.Graph.id
    && t.residual_a.(arc.Topo.Graph.id) >= demand -. 1e-9
  in
  match
    Routing.Dijkstra.shortest_path t.g ~weight:(congestion_weight t) ~active ~src:o ~dst:d ()
  with
  | None -> None
  | Some p ->
      commit t p demand;
      Some p

let place_on t p demand =
  let key = (p.Topo.Path.src, p.Topo.Path.dst) in
  if Hashtbl.mem t.placed key then invalid_arg "Feasible.place_on: already placed";
  let ok =
    Array.for_all
      (fun a ->
        Topo.State.arc_on t.g t.st a && t.residual_a.(a) >= demand -. 1e-9)
      p.Topo.Path.arcs
  in
  if ok then commit t p demand;
  ok

let remove t o d =
  match Hashtbl.find_opt t.placed (o, d) with
  | None -> None
  | Some (p, demand) ->
      Array.iter
        (fun a ->
          t.residual_a.(a) <- t.residual_a.(a) +. demand;
          t.load_a.(a) <- t.load_a.(a) -. demand)
        p.Topo.Path.arcs;
      Hashtbl.remove t.placed (o, d);
      Some (p, demand)

let path_of t o d = Option.map fst (Hashtbl.find_opt t.placed (o, d))

let flows t =
  Hashtbl.fold (fun (o, d) (_, v) acc -> (o, d, v) :: acc) t.placed []
  |> List.sort (Eutil.Order.triple Int.compare Int.compare Float.compare)

let route_matrix t tm =
  List.for_all
    (fun (o, d, demand) -> place t o d demand <> None)
    (Traffic.Matrix.flows_desc tm)

type snapshot = {
  s_residual : float array;
  s_load : float array;
  s_placed : (int * int, Topo.Path.t * float) Hashtbl.t;
}

let snapshot t =
  {
    s_residual = Array.copy t.residual_a;
    s_load = Array.copy t.load_a;
    s_placed = Hashtbl.copy t.placed;
  }

let restore t s =
  Array.blit s.s_residual 0 t.residual_a 0 (Array.length t.residual_a);
  Array.blit s.s_load 0 t.load_a 0 (Array.length t.load_a);
  Hashtbl.reset t.placed;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.s_placed [] in
  List.iter
    (fun (k, v) -> Hashtbl.replace t.placed k v)
    (List.sort (Eutil.Order.by fst Eutil.Order.int_pair) entries)
