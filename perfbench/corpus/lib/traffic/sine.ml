module U = Eutil.Units

type locality = Near | Far

let fattree_pairs ft loc =
  let n = Topo.Fattree.n_hosts ft in
  let k = ft.Topo.Fattree.k in
  let per_pod = k * k / 4 in
  List.init n (fun i ->
      let peer =
        match loc with
        | Near ->
            let pod = i / per_pod in
            let off = i mod per_pod in
            (pod * per_pod) + ((off + 1) mod per_pod)
        | Far -> (i + (n / 2)) mod n
      in
      (Topo.Fattree.host ft i, Topo.Fattree.host ft peer))
  |> List.filter (fun (a, b) -> a <> b)

let demand_at ~peak ~period t =
  let period = U.to_float period in
  if period <= 0.0 then invalid_arg "Traffic.Sine.demand_at: period must be positive";
  U.scale ((1.0 -. cos (2.0 *. Float.pi *. t /. period)) /. 2.0) peak

let fattree ft loc ~peak ~period t =
  let g = ft.Topo.Fattree.graph in
  let m = Matrix.create (Topo.Graph.node_count g) in
  let v = U.to_float (demand_at ~peak ~period t) in
  List.iter (fun (o, d) -> Matrix.add_to m o d v) (fattree_pairs ft loc);
  m
