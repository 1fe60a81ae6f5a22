type tunnel_stats = {
  per_node : (int * int) list;
  max_per_node : int;
  total : int;
}

let tunnel_stats tables =
  let g = Tables.graph tables in
  let counts = Array.make (Topo.Graph.node_count g) 0 in
  List.iter
    (fun e ->
      counts.(e.Tables.origin) <- counts.(e.Tables.origin) + Array.length (Tables.paths e))
    (Tables.entries tables);
  let per_node =
    Array.to_list (Array.mapi (fun n c -> (n, c)) counts)
    |> List.filter (fun (_, c) -> c > 0)
    |> List.sort
         (Eutil.Order.by (fun (n, c) -> (c, n)) (Eutil.Order.pair (Eutil.Order.desc Int.compare) Int.compare))
  in
  {
    per_node;
    max_per_node = (match per_node with (_, c) :: _ -> c | [] -> 0);
    total = Array.fold_left ( + ) 0 counts;
  }

let fits_mpls ?(tunnel_limit = 600) tables = (tunnel_stats tables).max_per_node <= tunnel_limit

let restrict tables ~max_tables =
  if max_tables < 1 then invalid_arg "Deploy.restrict: max_tables >= 1";
  let g = Tables.graph tables in
  let entries =
    List.map
      (fun e ->
        let rec take n = function
          | [] -> []
          | x :: r -> if n <= 0 then [] else x :: take (n - 1) r
        in
        let budget_after_ao = max_tables - 1 in
        let keep_failover = e.Tables.failover <> None && budget_after_ao > 0 in
        let od_budget = budget_after_ao - if keep_failover then 1 else 0 in
        {
          e with
          Tables.on_demand = take od_budget e.Tables.on_demand;
          failover = (if keep_failover then e.Tables.failover else None);
        })
      (Tables.entries tables)
  in
  Tables.make g entries

let coverage_after_failures tables ~failed =
  let g = Tables.graph tables in
  let entries = Tables.entries tables in
  if entries = [] then 1.0
  else begin
    let ok =
      List.length
        (List.filter
           (fun e ->
             Array.exists
               (fun p -> not (List.exists (fun l -> Topo.Path.uses_link g p l) failed))
               (Tables.paths e))
           entries)
    in
    float_of_int ok /. float_of_int (List.length entries)
  end

let single_failure_coverage tables =
  let g = Tables.graph tables in
  let worst = ref 1.0 in
  Topo.Graph.iter_links g ~f:(fun l -> worst := min !worst (coverage_after_failures tables ~failed:[ l ]));
  !worst

let recompute_warranted ?(threshold = 0.05) tables ~failed =
  1.0 -. coverage_after_failures tables ~failed > threshold
