type interval = {
  time : float;
  state : Topo.State.t;
  power_percent : float;
  changed : bool;
}

type t = {
  intervals : interval array;
  trace_interval : float;
  ranking : Critical_paths.t;
  recomputations : int;
}

let m_steps =
  Obs.Metric.Counter.create ~help:"Trace intervals replayed" "core_replay_steps_total"

let m_recomputations =
  Obs.Metric.Counter.create ~help:"Replay intervals whose network state changed"
    "core_replay_recomputations_total"

let m_step_seconds =
  Obs.Metric.Histogram.create ~help:"Wall time of one replay interval"
    "core_replay_step_seconds"

let run ?margin ?(solver = `Greedy) g power trace =
  let margin = match margin with Some m -> m | None -> Eutil.Units.ratio 1.0 in
  let ranking = Critical_paths.create g in
  let solve tm =
    match solver with
    | `Greedy -> Optim.Minimal.power_down ~margin g power tm
    | `Greente -> Optim.Greente.minimal_subset ~margin g power tm
  in
  let previous = ref None in
  let recomputations = ref 0 in
  let intervals =
    Array.make (Traffic.Trace.length trace)
      { time = 0.0; state = Topo.State.all_on g; power_percent = 100.0; changed = false }
  in
  Traffic.Trace.iter trace ~f:(fun i time tm ->
      Obs.Metric.Histogram.time m_step_seconds @@ fun () ->
      Obs.Metric.Counter.incr m_steps;
      let state, power_percent, routing =
        match solve tm with
        | Some r ->
            (r.Optim.Minimal.state, r.Optim.Minimal.power_percent, Some r.Optim.Minimal.routing)
        | None -> (
            (* Infeasible interval: the network keeps the previous (or full)
               configuration. *)
            match !previous with
            | Some (st, pct) -> (st, pct, None)
            | None -> (Topo.State.all_on g, 100.0, None))
      in
      (match routing with Some r -> Critical_paths.observe ranking r tm | None -> ());
      let changed =
        match !previous with
        | None -> false
        | Some (prev_state, _) -> not (Topo.State.equal prev_state state)
      in
      if changed then begin
        incr recomputations;
        Obs.Metric.Counter.incr m_recomputations
      end;
      previous := Some (state, power_percent);
      intervals.(i) <- { time; state; power_percent; changed });
  { intervals; trace_interval = trace.Traffic.Trace.interval; ranking; recomputations = !recomputations }

let recomputation_rate t ~bucket =
  if bucket <= 0.0 then invalid_arg "Replay.recomputation_rate";
  let buckets = Hashtbl.create 64 in
  Array.iter
    (fun iv ->
      let b = floor (iv.time /. bucket) *. bucket in
      let count = Option.value (Hashtbl.find_opt buckets b) ~default:0 in
      Hashtbl.replace buckets b (count + if iv.changed then 1 else 0))
    t.intervals;
  Hashtbl.fold (fun b c acc -> (b, float_of_int c *. 3600.0 /. bucket) :: acc) buckets []
  |> List.sort (Eutil.Order.pair Float.compare Float.compare)

let config_dominance t =
  let counts = Hashtbl.create 64 in
  Array.iter
    (fun iv ->
      let key = Topo.State.key iv.state in
      Hashtbl.replace counts key (1 + Option.value (Hashtbl.find_opt counts key) ~default:0))
    t.intervals;
  let total = float_of_int (Array.length t.intervals) in
  if total = 0.0 then []
  else
    Hashtbl.fold (fun k c acc -> (k, float_of_int c /. total) :: acc) counts []
  |> List.sort
       (Eutil.Order.by (fun (k, f) -> (f, k))
          (Eutil.Order.pair (Eutil.Order.desc Float.compare) String.compare))

let mean_power_percent t =
  Array.fold_left (fun acc iv -> acc +. iv.power_percent) 0.0 t.intervals
  /. float_of_int (Array.length t.intervals)
