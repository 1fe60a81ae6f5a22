module G = Topo.Graph
module P = Topo.Path

let finite x = Float.is_finite x

let node_name g i = if i >= 0 && i < G.node_count g then G.name g i else Printf.sprintf "#%d" i

(* ----------------------------- graphs ----------------------------- *)

let check_graph g =
  let n = G.node_count g in
  let na = G.arc_count g in
  let nl = G.link_count g in
  let fs = ref [] in
  let add ?severity rule where msg = fs := Finding.v ?severity ~rule ~where msg :: !fs in
  for i = 0 to na - 1 do
    let a = G.arc g i in
    let where = Printf.sprintf "arc %d" i in
    if a.G.id <> i then add "graph-arc" where (Printf.sprintf "arc id %d stored at index %d" a.G.id i);
    if a.G.src < 0 || a.G.src >= n || a.G.dst < 0 || a.G.dst >= n then
      add "graph-arc" where
        (Printf.sprintf "dangling endpoint %d -> %d in a graph of %d nodes" a.G.src a.G.dst n)
    else if a.G.src = a.G.dst then add "graph-arc" where "self-loop arc";
    if a.G.rev < 0 || a.G.rev >= na then add "graph-arc" where "reverse arc id out of range"
    else begin
      let r = G.arc g a.G.rev in
      if r.G.rev <> i || r.G.src <> a.G.dst || r.G.dst <> a.G.src then
        add "graph-arc" where (Printf.sprintf "reverse arc %d is not its mirror" a.G.rev)
    end;
    if a.G.link < 0 || a.G.link >= nl then add "graph-arc" where "link id out of range"
    else begin
      let x, y = G.link_endpoints g a.G.link in
      if not ((x = a.G.src && y = a.G.dst) || (x = a.G.dst && y = a.G.src)) then
        add "graph-arc" where
          (Printf.sprintf "endpoints %d-%d do not match link %d (%d-%d)" a.G.src a.G.dst a.G.link x
             y)
    end;
    if (not (finite a.G.capacity)) || a.G.capacity <= 0.0 then
      add "graph-capacity" where (Printf.sprintf "non-positive capacity %g" a.G.capacity);
    if (not (finite a.G.latency)) || a.G.latency < 0.0 then
      add "graph-latency" where (Printf.sprintf "invalid latency %g" a.G.latency)
  done;
  List.rev !fs

(* ------------------------------ paths ----------------------------- *)

let arcs_in_range g (p : P.t) =
  Array.for_all (fun a -> a >= 0 && a < G.arc_count g) p.P.arcs

let check_path g ?expect ~where (p : P.t) =
  let fs = ref [] in
  let add rule msg = fs := Finding.v ~rule ~where msg :: !fs in
  if not (arcs_in_range g p) then add "path-discontiguous" "arc id out of range"
  else begin
    let arcs = p.P.arcs in
    let k = Array.length arcs in
    let contiguous = ref true in
    for j = 1 to k - 1 do
      if (G.arc g arcs.(j - 1)).G.dst <> (G.arc g arcs.(j)).G.src then contiguous := false
    done;
    if not !contiguous then add "path-discontiguous" "consecutive arcs do not chain head-to-tail";
    if k = 0 then begin
      if p.P.src <> p.P.dst then add "path-endpoint" "empty arc list but src <> dst"
    end
    else begin
      let first = G.arc g arcs.(0) and last = G.arc g arcs.(k - 1) in
      if first.G.src <> p.P.src || last.G.dst <> p.P.dst then
        add "path-endpoint"
          (Printf.sprintf "stored endpoints %s-%s do not match the arc sequence %s-%s"
             (node_name g p.P.src) (node_name g p.P.dst) (node_name g first.G.src)
             (node_name g last.G.dst))
    end;
    (match expect with
    | Some (o, d) when p.P.src <> o || p.P.dst <> d ->
        add "path-endpoint"
          (Printf.sprintf "path connects %s-%s but the entry expects %s-%s" (node_name g p.P.src)
             (node_name g p.P.dst) (node_name g o) (node_name g d))
    | _ -> ());
    if !contiguous then begin
      let seen = Hashtbl.create (k + 1) in
      let dup = ref None in
      let visit node = if Hashtbl.mem seen node then dup := Some node else Hashtbl.add seen node () in
      visit p.P.src;
      Array.iter (fun a -> visit (G.arc g a).G.dst) arcs;
      match !dup with
      | Some node -> add "path-loop" (Printf.sprintf "node %s visited twice" (node_name g node))
      | None -> ()
    end
  end;
  List.rev !fs

(* ----------------------------- tables ----------------------------- *)

type table_entry = {
  origin : int;
  dest : int;
  always_on : P.t;
  on_demand : P.t list;
  failover : P.t option;
}

let check_tables g ~pairs entries =
  let fs = ref [] in
  let add ?severity rule where msg = fs := Finding.v ?severity ~rule ~where msg :: !fs in
  let seen = Hashtbl.create (List.length entries) in
  List.iter
    (fun e ->
      let od = (e.origin, e.dest) in
      let where =
        Printf.sprintf "table entry %s->%s" (node_name g e.origin) (node_name g e.dest)
      in
      if Hashtbl.mem seen od then add "table-duplicate-pair" where "duplicate OD pair"
      else Hashtbl.replace seen od ();
      fs := List.rev_append (check_path g ~expect:od ~where:(where ^ " (always-on)") e.always_on) !fs;
      List.iteri
        (fun i p ->
          fs :=
            List.rev_append
              (check_path g ~expect:od ~where:(Printf.sprintf "%s (on-demand %d)" where i) p)
              !fs)
        e.on_demand;
      Option.iter
        (fun p ->
          fs := List.rev_append (check_path g ~expect:od ~where:(where ^ " (failover)") p) !fs)
        e.failover;
      (* Distinctness across the whole entry: installing the same path twice
         wastes a table slot and defeats the on-demand level machinery. *)
      let all =
        match e.failover with
        | Some f -> f :: e.always_on :: e.on_demand
        | None -> e.always_on :: e.on_demand
      in
      let rec dup_scan = function
        | [] -> ()
        | p :: rest ->
            if List.exists (P.equal p) rest then
              add "table-ondemand-dup" where "the same path is installed more than once";
            dup_scan rest
      in
      dup_scan all;
      (* §2.2: the failover path should be link-disjoint from the always-on
         path so that any single link failure leaves the pair connected. *)
      (match e.failover with
      | Some f when arcs_in_range g f && arcs_in_range g e.always_on ->
          if P.shares_link g f e.always_on then begin
            let ao = P.links g e.always_on in
            let shared = ref [] in
            Array.iter
              (fun l -> if Array.exists (fun l' -> l = l') ao then shared := l :: !shared)
              (P.links g f);
            let shared = List.sort_uniq Int.compare !shared in
            add ~severity:Finding.Warn "table-failover-overlap" where
              (Printf.sprintf "failover shares %d link(s) with the always-on path: %s"
                 (List.length shared)
                 (String.concat ", "
                    (List.map
                       (fun l ->
                         let x, y = G.link_endpoints g l in
                         Printf.sprintf "%s-%s" (node_name g x) (node_name g y))
                       shared)))
          end
      | _ -> ()))
    entries;
  List.iter
    (fun (o, d) ->
      if not (Hashtbl.mem seen (o, d)) then
        add "table-coverage"
          (Printf.sprintf "pair %s->%s" (node_name g o) (node_name g d))
          "no table entry: the always-on set must cover every OD pair")
    pairs;
  List.rev !fs

(* ---------------------------- LP models --------------------------- *)

let check_model m =
  let names = Lp.Model.var_names m in
  let n = Array.length names in
  let fs = ref [] in
  let add rule where msg = fs := Finding.v ~rule ~where msg :: !fs in
  let seen = Hashtbl.create n in
  Array.iteri
    (fun i name ->
      match Hashtbl.find_opt seen name with
      | Some j ->
          add "lp-duplicate-var"
            (Printf.sprintf "variable %d" i)
            (Printf.sprintf "name %S already used by variable %d" name j)
      | None -> Hashtbl.add seen name i)
    names;
  let var_label v =
    let i = Lp.Model.var_index v in
    if i >= 0 && i < n then names.(i) else Printf.sprintf "#%d" i
  in
  let check_terms where terms =
    List.iter
      (fun (c, v) ->
        let i = Lp.Model.var_index v in
        if i < 0 || i >= n then
          add "lp-var-range" where (Printf.sprintf "term references unknown variable %d" i);
        if not (finite c) then
          add "lp-nonfinite" where
            (Printf.sprintf "coefficient %g on variable %s" c (var_label v)))
      terms
  in
  List.iteri
    (fun idx (terms, _rel, rhs) ->
      let where = Printf.sprintf "constraint %d" idx in
      check_terms where terms;
      if not (finite rhs) then add "lp-nonfinite" where (Printf.sprintf "right-hand side %g" rhs);
      match (terms, _rel) with
      | [ (c, v) ], Lp.Simplex.Le when c > 0.0 && finite c && finite rhs && rhs /. c < 0.0 ->
          add "lp-bound" where
            (Printf.sprintf "upper bound %g on %s is below the implicit lower bound 0" (rhs /. c)
               (var_label v))
      | _ -> ())
    (Lp.Model.constraints m);
  Option.iter (check_terms "objective") (Lp.Model.objective_terms m);
  List.rev !fs

(* ------------------------- traffic matrices ----------------------- *)

let check_matrix g tm =
  let n = G.node_count g in
  if Traffic.Matrix.size tm <> n then
    [
      Finding.v ~rule:"tm-dimension" ~where:"traffic matrix"
        (Printf.sprintf "matrix is %dx%d but the graph has %d nodes" (Traffic.Matrix.size tm)
           (Traffic.Matrix.size tm) n);
    ]
  else begin
    let bad = ref 0 in
    let worst = ref 0.0 in
    ignore
      (Traffic.Matrix.fold_values tm ~init:() ~f:(fun () v ->
           if (not (finite v)) || v < 0.0 then begin
             incr bad;
             if Float.is_nan v || v < !worst then worst := v
           end));
    if !bad = 0 then []
    else
      [
        Finding.v ~rule:"tm-negative" ~where:"traffic matrix"
          (Printf.sprintf "%d negative or non-finite demand entr%s (worst %g)" !bad
             (if !bad = 1 then "y" else "ies")
             !worst);
      ]
  end

(* ---------------------------- power models ------------------------ *)

let check_power power g =
  let fs = ref [] in
  let add where msg = fs := Finding.v ~rule:"power-monotone" ~where msg :: !fs in
  G.fold_nodes g ~init:() ~f:(fun () i ->
      let w = Eutil.Units.to_float (Power.Model.node_power power g i) in
      if (not (finite w)) || w < 0.0 then
        add
          (Printf.sprintf "node %s" (node_name g i))
          (Printf.sprintf "chassis power %g W; total power would not be monotone" w));
  G.iter_links g ~f:(fun l ->
      let w = Eutil.Units.to_float (Power.Model.link_power power g l) in
      if (not (finite w)) || w < 0.0 then begin
        let x, y = G.link_endpoints g l in
        add
          (Printf.sprintf "link %s-%s" (node_name g x) (node_name g y))
          (Printf.sprintf "link power %g W; total power would not be monotone" w)
      end);
  List.rev !fs
