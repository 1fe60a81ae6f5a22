type client = { node : int; join_time : float }

type scenario = {
  source : int;
  bitrate : float;
  block_duration : float;
  startup_buffer : float;
  clients : client list;
  duration : float;
}

type client_stats = {
  node : int;
  join_time : float;
  playable_percent : float;
  mean_block_latency : float;
}

type summary = {
  per_client : client_stats list;
  playable : Eutil.Stats.boxplot;
  mean_block_latency : float;
  mean_power_percent : float;
}

(* Demand matrix with every client active at [t]: per destination node, the
   number of active clients times the bitrate. *)
let demand_at scenario g t =
  let m = Traffic.Matrix.create (Topo.Graph.node_count g) in
  List.iter
    (fun (c : client) ->
      if c.join_time <= t && c.node <> scenario.source then
        Traffic.Matrix.add_to m scenario.source c.node scenario.bitrate)
    scenario.clients;
  m

let run ?(config = Netsim.Sim.default_config) ~tables ~power scenario =
  let g = Response.Tables.graph tables in
  let join_times =
    List.map (fun (c : client) -> c.join_time) scenario.clients |> List.sort_uniq Float.compare
  in
  let events =
    List.map (fun t -> Netsim.Sim.Set_demand (t, demand_at scenario g t)) join_times
  in
  let r =
    Netsim.Sim.run ~config ~tables ~power ~events ~duration:scenario.duration ()
  in
  let samples = r.Netsim.Sim.samples in
  let dt = config.Netsim.Sim.sample_interval in
  (* Active clients per destination node over time (to split the pair rate). *)
  let actives t node =
    List.length
      (List.filter (fun (c : client) -> c.node = node && c.join_time <= t) scenario.clients)
  in
  let pair_rate sample node =
    Option.value
      (List.assoc_opt (scenario.source, node) sample.Netsim.Sim.pair_rates)
      ~default:0.0
  in
  (* Propagation component of block retrieval: the always-on path's one-way
     latency (paths differ between routings, which is what the paper's ~5 %
     block-latency comparison measures). *)
  let path_latency node =
    match Response.Tables.find tables scenario.source node with
    | Some e -> Topo.Path.latency g e.Response.Tables.always_on
    | None -> 0.0
  in
  let per_client =
    List.map
      (fun (c : client) ->
        (* Cumulative bits received since joining, sampled at dt. *)
        let received = ref 0.0 in
        let block_bits = scenario.bitrate *. scenario.block_duration in
        let n_blocks =
          max 0 (int_of_float ((scenario.duration -. c.join_time) /. scenario.block_duration) - 1)
        in
        let arrival = Array.init n_blocks (fun _ -> infinity) in
        let next_block = ref 0 in
        Array.iter
          (fun sm ->
            let t = sm.Netsim.Sim.time in
            if t >= c.join_time then begin
              let n = max 1 (actives t c.node) in
              let before = !received in
              received := before +. (pair_rate sm c.node /. float_of_int n *. dt);
              while
                !next_block < n_blocks
                && !received >= float_of_int (!next_block + 1) *. block_bits
              do
                (* Interpolate the completion instant inside the sample step
                   so latencies are not quantised to the sample interval. *)
                let needed = float_of_int (!next_block + 1) *. block_bits in
                let frac =
                  if !received > before then (needed -. before) /. (!received -. before) else 1.0
                in
                arrival.(!next_block) <- t +. (dt *. (frac -. 1.0));
                incr next_block
              done
            end)
          samples;
        let playable = ref 0 in
        let lat_sum = ref 0.0 and lat_n = ref 0 in
        let lat = path_latency c.node in
        for i = 0 to n_blocks - 1 do
          let sent = c.join_time +. (float_of_int i *. scenario.block_duration) in
          let deadline = sent +. scenario.startup_buffer in
          if arrival.(i) +. lat <= deadline then incr playable;
          if arrival.(i) < infinity then begin
            lat_sum := !lat_sum +. (arrival.(i) +. lat -. sent);
            incr lat_n
          end
        done;
        {
          node = c.node;
          join_time = c.join_time;
          playable_percent =
            (if n_blocks = 0 then 100.0
             else 100.0 *. float_of_int !playable /. float_of_int n_blocks);
          mean_block_latency = (if !lat_n = 0 then 0.0 else !lat_sum /. float_of_int !lat_n);
        })
      scenario.clients
  in
  let playable =
    Eutil.Stats.boxplot
      (Array.of_list (List.map (fun (c : client_stats) -> c.playable_percent) per_client))
  in
  let mean_block_latency =
    Eutil.Stats.mean
      (Array.of_list (List.map (fun (c : client_stats) -> c.mean_block_latency) per_client))
  in
  { per_client; playable; mean_block_latency; mean_power_percent = r.Netsim.Sim.mean_power_percent }
