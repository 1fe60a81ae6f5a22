module U = Eutil.Units

type result = {
  state : Topo.State.t;
  routing : (int * int, Topo.Path.t) Hashtbl.t;
  arc_load : float array;
  power_watts : float;
  power_percent : float;
}

type reroute = Feasible.t -> int -> int -> float -> Topo.Path.t option

let dijkstra_reroute f o d demand = Feasible.place f o d demand

let ksp_reroute table f o d demand =
  match Hashtbl.find_opt table (o, d) with
  | None -> None
  | Some candidates ->
      let g = Feasible.graph f in
      let st = Feasible.state f in
      let usable =
        List.filter
          (fun p ->
            Topo.Path.active g st p
            && Array.for_all (fun a -> Feasible.residual f a >= demand -. 1e-9) p.Topo.Path.arcs)
          candidates
      in
      let cost p =
        Array.fold_left
          (fun acc a -> acc +. Feasible.congestion_weight f (Topo.Graph.arc g a))
          0.0 p.Topo.Path.arcs
      in
      let best =
        List.fold_left
          (fun acc p ->
            match acc with
            | Some (bc, _) when bc <= cost p -> acc
            | _ -> Some (cost p, p))
          None usable
      in
      Option.map
        (fun (_, p) ->
          let ok = Feasible.place_on f p demand in
          assert ok;
          p)
        best

(* Candidate moves: a move is a set of links switched off together. *)
type move = { links : int list; gain : float }

let router_moves g power tm =
  (* A router can only be switched off when it neither originates nor
     terminates demand. *)
  let has_demand = Array.make (Topo.Graph.node_count g) false in
  Traffic.Matrix.iter_flows tm ~f:(fun o d _ ->
      has_demand.(o) <- true;
      has_demand.(d) <- true);
  Topo.Graph.fold_nodes g ~init:[] ~f:(fun acc n ->
      if has_demand.(n) || Topo.Graph.role g n = Topo.Graph.Host then acc
      else begin
        let links =
          let ls = ref [] in
          Array.iter
            (fun a -> ls := (Topo.Graph.arc g a).Topo.Graph.link :: !ls)
            (Topo.Graph.out_arcs g n);
          List.sort_uniq Int.compare !ls
        in
        let gain =
          U.to_float
            (List.fold_left
               (fun s l -> U.( +: ) s (Power.Model.link_power power g l))
               (Power.Model.node_power power g n)
               links)
        in
        { links; gain } :: acc
      end)
  |> List.sort (Eutil.Order.by (fun m -> (m.gain, m.links))
                  (Eutil.Order.pair (Eutil.Order.desc Float.compare) (List.compare Int.compare)))

let link_moves g power =
  Topo.Graph.fold_links g ~init:[] ~f:(fun acc l ->
      { links = [ l ]; gain = U.to_float (Power.Model.link_power power g l) } :: acc)
  |> List.sort (Eutil.Order.by (fun m -> (m.gain, m.links))
                  (Eutil.Order.pair (Eutil.Order.desc Float.compare) (List.compare Int.compare)))

let result_of g power f =
  let st = Feasible.state f in
  let routing = Hashtbl.create 64 in
  List.iter
    (fun (o, d, _) ->
      match Feasible.path_of f o d with Some p -> Hashtbl.replace routing (o, d) p | None -> ())
    (Feasible.flows f);
  let arc_load = Array.init (Topo.Graph.arc_count g) (fun a -> Feasible.load f a) in
  let power_watts = U.to_float (Power.Model.total power g st) in
  {
    state = st;
    routing;
    arc_load;
    power_watts;
    power_percent = Power.Model.percent_of_full power g st;
  }

(* Greedy work, tallied per [power_down] call and flushed to the registry
   once at its end, as [Routing.Dijkstra] does with its heap counters. *)
let m_moves_tried =
  Obs.Metric.Counter.create ~help:"Power-down greedy moves that displaced links"
    "optim_moves_tried_total"

let m_moves_accepted =
  Obs.Metric.Counter.create ~help:"Power-down greedy moves kept (links switched off)"
    "optim_moves_accepted_total"

let m_flows_rerouted =
  Obs.Metric.Counter.create ~help:"Reroute attempts for flows displaced by greedy moves"
    "optim_flows_rerouted_total"

type tally = { mutable tried : int; mutable accepted : int; mutable rerouted : int }

(* Switches the move's active links off and reroutes the flows that used
   them, largest first; on the first flow that cannot be rerouted the
   links come back on and the trial is rolled back. *)
let try_move g f reroute tally links =
  let st = Feasible.state f in
  let relevant = List.filter (fun l -> Topo.State.link_on st l) links in
  if relevant <> [] then begin
    tally.tried <- tally.tried + 1;
    let affected = Feasible.flows_through f relevant in
    Feasible.begin_trial f;
    List.iter (fun (o, d, _) -> ignore (Feasible.remove f o d)) affected;
    List.iter (fun l -> Topo.State.set_link g st l false) relevant;
    let ok =
      List.for_all
        (fun (o, d, v) ->
          tally.rerouted <- tally.rerouted + 1;
          reroute f o d v <> None)
        affected
    in
    if ok then begin
      tally.accepted <- tally.accepted + 1;
      Feasible.end_trial f
    end
    else begin
      List.iter (fun l -> Topo.State.set_link g st l true) relevant;
      Feasible.rollback f
    end
  end

let moves g power tm =
  let links m = m.links in
  List.rev_append
    (List.rev_map links (router_moves g power tm))
    (List.map links (link_moves g power))

let power_down ?margin ?(pinned = fun _ -> false) ?(reroute = dijkstra_reroute) g power
    tm =
  let margin = U.to_float (match margin with Some m -> m | None -> U.ratio 1.0) in
  let f = Feasible.create ~margin g in
  if not (Feasible.route_matrix f tm) then None
  else begin
    let tally = { tried = 0; accepted = 0; rerouted = 0 } in
    List.iter
      (fun links -> if not (List.exists pinned links) then try_move g f reroute tally links)
      (moves g power tm);
    if Obs.Control.enabled () then begin
      Obs.Metric.Counter.add_int m_moves_tried tally.tried;
      Obs.Metric.Counter.add_int m_moves_accepted tally.accepted;
      Obs.Metric.Counter.add_int m_flows_rerouted tally.rerouted
    end;
    Some (result_of g power f)
  end

let evaluate ?margin g power tm state =
  let margin = U.to_float (match margin with Some m -> m | None -> U.ratio 1.0) in
  let f = Feasible.create ~margin ~state g in
  if Feasible.route_matrix f tm then Some (result_of g power f) else None
