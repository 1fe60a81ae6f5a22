module U = Eutil.Units

let weights g =
  let w = Array.make (Topo.Graph.node_count g) 0.0 in
  Topo.Graph.iter_links g ~f:(fun l ->
      let i, j = Topo.Graph.link_endpoints g l in
      let c = Topo.Graph.link_capacity g l in
      w.(i) <- w.(i) +. c;
      w.(j) <- w.(j) +. c);
  w

(* Ordered cross product [o <> d], in row-major node order. *)
let cross_pairs nodes =
  let acc = ref [] in
  Array.iter
    (fun o -> Array.iter (fun d -> if o <> d then acc := (o, d) :: !acc) nodes)
    nodes;
  List.rev !acc

let all_pairs g = cross_pairs (Topo.Graph.traffic_nodes g)

let make g ?pairs ~total () =
  let total = U.to_float total in
  let pairs = match pairs with Some p -> p | None -> all_pairs g in
  let w = weights g in
  let raw = List.map (fun (o, d) -> (o, d, w.(o) *. w.(d))) pairs in
  let mass = List.fold_left (fun acc (_, _, m) -> acc +. m) 0.0 raw in
  let m = Matrix.create (Topo.Graph.node_count g) in
  if mass > 0.0 then List.iter (fun (o, d, x) -> Matrix.add_to m o d (total *. x /. mass)) raw
  else if total > 0.0 && pairs <> [] then
    (* Without this the caller would get an all-zero matrix for a positive
       requested volume — or, without the [mass > 0] guard above, a matrix
       of 0/0 NaN demands. Fail loudly instead. *)
    invalid_arg
      "Traffic.Gravity.make: every selected pair has zero gravity mass \
       (zero-capacity endpoints); cannot scale a positive total demand";
  m

let random_node_pairs g ~seed ~fraction =
  let rng = Eutil.Prng.create seed in
  let nodes = Array.copy (Topo.Graph.traffic_nodes g) in
  Eutil.Prng.shuffle rng nodes;
  let keep = max 2 (int_of_float (fraction *. float_of_int (Array.length nodes))) in
  let subset = Array.sub nodes 0 (min keep (Array.length nodes)) in
  List.sort Eutil.Order.int_pair (cross_pairs subset)

let random_pairs g ~seed ~fraction =
  let rng = Eutil.Prng.create seed in
  let kept = List.filter (fun _ -> Eutil.Prng.float rng < fraction) (all_pairs g) in
  match kept with
  | [] -> (
      match all_pairs g with [] -> [] | first :: _ -> [ first ])
  | l -> l
