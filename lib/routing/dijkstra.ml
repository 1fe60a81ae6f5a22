type result = { dist : float array; prev_arc : int array }

let default_weight arc = arc.Topo.Graph.latency

(* Heap traffic is tallied into locals (an int add per op) and flushed to
   the registry once per run, so the hot loop carries no observability
   calls. *)
let m_runs =
  Obs.Metric.Counter.create ~help:"Dijkstra single-source invocations"
    "routing_dijkstra_runs_total"

let m_heap_pushes =
  Obs.Metric.Counter.create ~help:"Heap pushes across all Dijkstra runs"
    "routing_heap_pushes_total"

let m_heap_pops =
  Obs.Metric.Counter.create ~help:"Heap pops across all Dijkstra runs"
    "routing_heap_pops_total"

(* With [stop_after >= 0] the search ends at the first pop whose distance
   exceeds [dist.(stop_after)] (see dijkstra.mli for why that is exact);
   [stop_after = -1] settles every reachable node. *)
let search g ~weight ~active ~src ~stop_after =
  let n = Topo.Graph.node_count g in
  let dist = Array.make n infinity in
  let prev_arc = Array.make n (-1) in
  let done_ = Array.make n false in
  let heap : int Eutil.Heap.t = Eutil.Heap.create () in
  let pushes = ref 1 and pops = ref 0 in
  dist.(src) <- 0.0;
  Eutil.Heap.push heap 0.0 src;
  let rec loop () =
    match Eutil.Heap.pop heap with
    | None -> ()
    | Some (d, _) when stop_after >= 0 && d > dist.(stop_after) -> incr pops
    | Some (d, u) ->
        incr pops;
        if not done_.(u) then begin
          done_.(u) <- true;
          let out = Topo.Graph.out_arcs g u in
          Array.iter
            (fun aid ->
              let arc = Topo.Graph.arc g aid in
              if active arc then begin
                let w = weight arc in
                if w < infinity && w >= 0.0 then begin
                  let nd = d +. w in
                  let v = arc.Topo.Graph.dst in
                  (* Deterministic tie-break: keep the smaller arc id. A
                     settled node keeps its arc, or a zero-weight tie could
                     close a cycle of [prev_arc]s. *)
                  if
                    nd < dist.(v)
                    || (nd = dist.(v) && (not done_.(v)) && prev_arc.(v) >= 0
                       && aid < prev_arc.(v))
                  then begin
                    dist.(v) <- nd;
                    prev_arc.(v) <- aid;
                    if not done_.(v) then begin
                      incr pushes;
                      Eutil.Heap.push heap nd v
                    end
                  end
                end
              end)
            out;
          loop ()
        end
        else loop ()
  in
  loop ();
  if Obs.Control.enabled () then begin
    Obs.Metric.Counter.incr m_runs;
    Obs.Metric.Counter.add_int m_heap_pushes !pushes;
    Obs.Metric.Counter.add_int m_heap_pops !pops
  end;
  { dist; prev_arc }

let run g ?(weight = default_weight) ?(active = fun _ -> true) ~src () =
  search g ~weight ~active ~src ~stop_after:(-1)

let path_to g res dst =
  if res.dist.(dst) = infinity then None
  else begin
    let rec collect acc node =
      let a = res.prev_arc.(node) in
      if a < 0 then acc else collect (a :: acc) (Topo.Graph.arc g a).Topo.Graph.src
    in
    match collect [] dst with [] -> None | arcs -> Some (Topo.Path.of_arcs g arcs)
  end

let shortest_path g ?(weight = default_weight) ?(active = fun _ -> true) ~src ~dst () =
  path_to g (search g ~weight ~active ~src ~stop_after:dst) dst

let distance_matrix g ?weight ?active () =
  let n = Topo.Graph.node_count g in
  Array.init n (fun src -> (run g ?weight ?active ~src ()).dist)
