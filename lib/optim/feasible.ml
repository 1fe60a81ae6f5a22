(* The undo trail of an open trial. Arc writes are logged as (arc, old
   residual, old load) in parallel arrays so the floats stay unboxed;
   pair writes are logged as the pair's previous binding. Rollback
   replays both logs newest first, so every arc ends on the value it had
   when the trial began, bit for bit. *)
type trail = {
  mutable arcs : int array;
  mutable old_residual : float array;
  mutable old_load : float array;
  mutable len : int;
  mutable pairs : ((int * int) * (Topo.Path.t * float) option) list;
}

type t = {
  g : Topo.Graph.t;
  margin_v : float;
  st : Topo.State.t;
  residual_a : float array;
  load_a : float array;
  placed : (int * int, Topo.Path.t * float) Hashtbl.t;
  mutable in_trial : bool;
  trail : trail;
}

let create ?(margin = 1.0) ?state g =
  if margin <= 0.0 then invalid_arg "Feasible.create: margin";
  let st = match state with Some s -> s | None -> Topo.State.all_on g in
  let n_arcs = Topo.Graph.arc_count g in
  let residual_a =
    Array.init n_arcs (fun a -> margin *. (Topo.Graph.arc g a).Topo.Graph.capacity)
  in
  {
    g;
    margin_v = margin;
    st;
    residual_a;
    load_a = Array.make n_arcs 0.0;
    placed = Hashtbl.create 64;
    in_trial = false;
    trail =
      { arcs = [||]; old_residual = [||]; old_load = [||]; len = 0; pairs = [] };
  }

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

let log_arc t a =
  let tr = t.trail in
  if tr.len = Array.length tr.arcs then begin
    let cap = max 64 (2 * tr.len) in
    let grow arr fill =
      let bigger = Array.make cap fill in
      Array.blit arr 0 bigger 0 tr.len;
      bigger
    in
    tr.arcs <- grow tr.arcs 0;
    tr.old_residual <- grow tr.old_residual 0.0;
    tr.old_load <- grow tr.old_load 0.0
  end;
  tr.arcs.(tr.len) <- a;
  tr.old_residual.(tr.len) <- t.residual_a.(a);
  tr.old_load.(tr.len) <- t.load_a.(a);
  tr.len <- tr.len + 1

let log_pair t key =
  t.trail.pairs <- (key, Hashtbl.find_opt t.placed key) :: t.trail.pairs

let commit t p demand =
  Array.iter
    (fun a ->
      if t.in_trial then log_arc t a;
      t.residual_a.(a) <- t.residual_a.(a) -. demand;
      t.load_a.(a) <- t.load_a.(a) +. demand)
    p.Topo.Path.arcs;
  let key = (p.Topo.Path.src, p.Topo.Path.dst) in
  if t.in_trial then log_pair t key;
  Hashtbl.replace t.placed key (p, demand)

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
          if t.in_trial then log_arc t a;
          t.residual_a.(a) <- t.residual_a.(a) +. demand;
          t.load_a.(a) <- t.load_a.(a) -. demand)
        p.Topo.Path.arcs;
      if t.in_trial then log_pair t (o, d);
      Hashtbl.remove t.placed (o, d);
      Some (p, demand)

let path_of t o d = Option.map fst (Hashtbl.find_opt t.placed (o, d))

let flows t =
  Hashtbl.fold (fun (o, d) (_, v) acc -> (o, d, v) :: acc) t.placed []
  |> List.sort (Eutil.Order.triple Int.compare Int.compare Float.compare)

let flows_through t links =
  Hashtbl.fold
    (fun (o, d) (p, v) acc ->
      if List.exists (fun l -> Topo.Path.uses_link t.g p l) links then (o, d, v) :: acc
      else acc)
    t.placed []
  |> List.sort
       (Eutil.Order.by
          (fun (o, d, v) -> (v, o, d))
          (Eutil.Order.triple (Eutil.Order.desc Float.compare) Int.compare Int.compare))

let begin_trial t =
  if t.in_trial then invalid_arg "Feasible.begin_trial: trial already open";
  t.in_trial <- true

let end_trial t =
  if not t.in_trial then invalid_arg "Feasible.end_trial: no open trial";
  t.in_trial <- false;
  t.trail.len <- 0;
  t.trail.pairs <- []

let rollback t =
  if not t.in_trial then invalid_arg "Feasible.rollback: no open trial";
  let tr = t.trail in
  for i = tr.len - 1 downto 0 do
    let a = tr.arcs.(i) in
    t.residual_a.(a) <- tr.old_residual.(i);
    t.load_a.(a) <- tr.old_load.(i)
  done;
  List.iter
    (fun (key, old) ->
      match old with
      | Some binding -> Hashtbl.replace t.placed key binding
      | None -> Hashtbl.remove t.placed key)
    tr.pairs;
  end_trial t

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
