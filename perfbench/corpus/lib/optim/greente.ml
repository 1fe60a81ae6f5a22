let candidate_table g ?(k = 4) ~pairs () =
  let table = Hashtbl.create (List.length pairs) in
  List.iter
    (fun (o, d) ->
      let paths = Routing.Yen.k_shortest g ~src:o ~dst:d ~k () in
      if paths <> [] then Hashtbl.replace table (o, d) paths)
    pairs;
  table

let minimal_subset ?margin ?(k = 4) ?pinned g power tm =
  let pairs = Traffic.Matrix.pairs tm in
  let table = candidate_table g ~k ~pairs () in
  Minimal.power_down ?margin ?pinned ~reroute:(Minimal.ksp_reroute table) g power tm
