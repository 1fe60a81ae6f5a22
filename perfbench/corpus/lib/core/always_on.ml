module U = Eutil.Units

type mode = Oblivious | Epsilon | Off_peak of Traffic.Matrix.t

type result = {
  paths : (int * int, Topo.Path.t) Hashtbl.t;
  state : Topo.State.t;
}

(* Cost of a candidate repair path: power of the links it would newly
   activate. *)
let activation_power g power state p =
  Array.fold_left
    (fun acc l ->
      if Topo.State.link_on state l then acc
      else U.( +: ) acc (Power.Model.link_power power g l))
    U.zero (Topo.Path.links g p)

let repair_latency g power state bounds paths pairs =
  List.iter
    (fun (o, d) ->
      match (Hashtbl.find_opt paths (o, d), Hashtbl.find_opt bounds (o, d)) with
      | Some p, Some bound when Topo.Path.latency g p > bound +. 1e-12 ->
          let candidates = Routing.Yen.k_shortest g ~src:o ~dst:d ~k:8 () in
          let ok = List.filter (fun c -> Topo.Path.latency g c <= bound +. 1e-12) candidates in
          let best =
            List.fold_left
              (fun acc c ->
                let cost = (activation_power g power state c, Topo.Path.latency g c) in
                match acc with
                | Some (bc, _) when bc <= cost -> acc
                | _ -> Some (cost, c))
              None ok
          in
          Option.iter
            (fun (_, c) ->
              Hashtbl.replace paths (o, d) c;
              Array.iter (fun l -> Topo.State.set_link g state l true) (Topo.Path.links g c))
            best
      | _ -> ())
    pairs

let compute ?margin ?(mode = Oblivious) ?latency_beta g power ~pairs () =
  let margin = match margin with Some m -> m | None -> U.ratio 1.0 in
  let tm =
    match mode with
    | Oblivious ->
        (* Prior volume: 5 % of what the selected endpoints can inject. On an
           ISP PoP topology this is ~10 % of the summed link capacity; on an
           overprovisioned fat-tree it stays proportional to the host uplinks
           rather than to the fabric, and with sampled pairs it scales with
           the sampled endpoints. *)
        let w = Traffic.Gravity.weights g in
        let endpoints =
          List.concat_map (fun (o, d) -> [ o; d ]) pairs |> List.sort_uniq Int.compare
        in
        let injection = List.fold_left (fun acc n -> acc +. w.(n)) 0.0 endpoints in
        Traffic.Gravity.make g ~pairs ~total:(U.bps (0.05 *. injection)) ()
    | Epsilon ->
        (* "one can set all flows equal to a small value epsilon (e.g. 1
           bit/s) to obtain a minimal-power routing with full connectivity" *)
        Traffic.Matrix.uniform (Topo.Graph.node_count g) ~pairs ~demand:1.0
    | Off_peak m -> m
  in
  match Optim.Minimal.power_down ~margin g power tm with
  | None -> invalid_arg "Always_on.compute: demands infeasible on the full network"
  | Some r ->
      let paths = Hashtbl.create (List.length pairs) in
      List.iter
        (fun (o, d) ->
          match Hashtbl.find_opt r.Optim.Minimal.routing (o, d) with
          | Some p -> Hashtbl.replace paths (o, d) p
          | None -> ())
        pairs;
      let state = Topo.State.copy r.Optim.Minimal.state in
      (match latency_beta with
      | None -> ()
      | Some beta ->
          let bounds = Routing.Spf.delay_bound_table g ~pairs ~beta in
          repair_latency g power state bounds paths pairs);
      { paths; state }
