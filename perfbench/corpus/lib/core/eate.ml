module U = Eutil.Units

type result = {
  loads : float array;
  state : Topo.State.t;
  power_percent : float;
  rounds : int;
  max_utilization : float;
}

let run ?(k = 3) ?threshold ?(max_rounds = 50) g power tm =
  let threshold = U.to_float (match threshold with Some t -> t | None -> U.ratio 0.9) in
  let pairs = Traffic.Matrix.pairs tm in
  let candidates = Optim.Greente.candidate_table g ~k ~pairs () in
  let n_arcs = Topo.Graph.arc_count g in
  let loads = Array.make n_arcs 0.0 in
  (* Start: every pair on its shortest candidate. *)
  let assignment : (int * int, Topo.Path.t) Hashtbl.t = Hashtbl.create (List.length pairs) in
  let apply p v sign =
    Array.iter (fun a -> loads.(a) <- loads.(a) +. (sign *. v)) p.Topo.Path.arcs
  in
  List.iter
    (fun (o, d) ->
      match Hashtbl.find_opt candidates (o, d) with
      | Some (p :: _) ->
          Hashtbl.replace assignment (o, d) p;
          apply p (Traffic.Matrix.get tm o d) 1.0
      | _ -> ())
    pairs;
  let util a = loads.(a) /. (Topo.Graph.arc g a).Topo.Graph.capacity in
  (* Aggregation score of a path for a flow: how much of the path already
     carries other traffic (higher = better target for consolidation), as
     long as adding the flow keeps every link under the threshold. *)
  let fits p v =
    Array.for_all
      (fun a -> (loads.(a) +. v) /. (Topo.Graph.arc g a).Topo.Graph.capacity <= threshold)
      p.Topo.Path.arcs
  in
  let busy_links p =
    Array.fold_left (fun acc a -> if loads.(a) > 0.0 then acc + 1 else acc) 0 p.Topo.Path.arcs
  in
  let rounds = ref 0 in
  let moved = ref true in
  while !moved && !rounds < max_rounds do
    incr rounds;
    moved := false;
    List.iter
      (fun (o, d) ->
        match Hashtbl.find_opt assignment (o, d) with
        | None -> ()
        | Some current ->
            let v = Traffic.Matrix.get tm o d in
            apply current v (-1.0);
            (* Prefer the candidate with the most already-busy links; break
               ties towards fewer hops (less energy). Fall back to the
               current path when no candidate fits. *)
            let best = ref (current, busy_links current, Topo.Path.hops current) in
            List.iter
              (fun p ->
                if fits p v then begin
                  let score = (busy_links p, -Topo.Path.hops p) in
                  let _, bb, bh = !best in
                  if score > (bb, -bh) then best := (p, fst score, Topo.Path.hops p)
                end)
              (Option.value (Hashtbl.find_opt candidates (o, d)) ~default:[]);
            let target, _, _ = !best in
            let target = if fits target v then target else current in
            apply target v 1.0;
            if not (Topo.Path.equal target current) then begin
              Hashtbl.replace assignment (o, d) target;
              moved := true
            end)
      pairs
  done;
  let link_load l =
    let a1, a2 = Topo.Graph.arcs_of_link g l in
    loads.(a1) +. loads.(a2)
  in
  let state = Power.Model.state_of_loads g link_load in
  {
    loads;
    state;
    power_percent = Power.Model.percent_of_full power g state;
    rounds = !rounds;
    max_utilization = Array.fold_left max 0.0 (Array.init n_arcs util);
  }
