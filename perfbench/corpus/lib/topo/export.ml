let pretty_capacity c =
  if c >= Eutil.Units.giga then Printf.sprintf "%.1fG" (c /. Eutil.Units.giga)
  else if c >= Eutil.Units.mega then Printf.sprintf "%.0fM" (c /. Eutil.Units.mega)
  else Printf.sprintf "%.0fk" (c /. Eutil.Units.kilo)

let to_dot ?state ?(highlight = []) g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph topology {\n  node [shape=ellipse, fontsize=10];\n";
  for n = 0 to Graph.node_count g - 1 do
    let shape = if Graph.role g n = Graph.Host then ", shape=box" else "" in
    Buffer.add_string buf (Printf.sprintf "  %d [label=\"%s\"%s];\n" n (Graph.name g n) shape)
  done;
  let highlighted = Hashtbl.create 16 in
  List.iter
    (fun p -> Array.iter (fun l -> Hashtbl.replace highlighted l ()) (Path.links g p))
    highlight;
  Graph.iter_links g ~f:(fun l ->
      let i, j = Graph.link_endpoints g l in
      let asleep = match state with Some st -> not (State.link_on st l) | None -> false in
      let attrs =
        String.concat ", "
          (List.filter
             (fun s -> s <> "")
             [
               Printf.sprintf "label=\"%s\"" (pretty_capacity (Graph.link_capacity g l));
               (if asleep then "style=dashed, color=grey" else "");
               (if Hashtbl.mem highlighted l then "penwidth=3" else "");
             ])
      in
      Buffer.add_string buf (Printf.sprintf "  %d -- %d [%s];\n" i j attrs));
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let to_csv g =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "src,dst,capacity_bps,latency_s\n";
  Graph.iter_links g ~f:(fun l ->
      let i, j = Graph.link_endpoints g l in
      Buffer.add_string buf
        (Printf.sprintf "%s,%s,%.0f,%.6f\n" (Graph.name g i) (Graph.name g j)
           (Graph.link_capacity g l) (Graph.link_latency g l)));
  Buffer.contents buf

let capacity_summary g =
  let counts = Hashtbl.create 8 in
  Graph.iter_links g ~f:(fun l ->
      let c = Graph.link_capacity g l in
      Hashtbl.replace counts c (1 + Option.value (Hashtbl.find_opt counts c) ~default:0));
  Hashtbl.fold (fun c n acc -> (c, n) :: acc) counts []
  |> List.sort (Eutil.Order.by fst (Eutil.Order.desc Float.compare))
