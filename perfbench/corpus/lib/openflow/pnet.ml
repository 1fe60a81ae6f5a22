type config = { packet_size : int; buffer_packets : int }

let default_config = { packet_size = 1250; buffer_packets = 64 }

type flow_stats = {
  origin : int;
  dest : int;
  offered : int;
  delivered : int;
  dropped : int;
  mean_latency : float;
}

type result = {
  flows : flow_stats list;
  delivered_fraction : float;
  arc_bytes : float array;
}

type ev =
  | Inject of int  (* flow index *)
  | Arrive of { flow : int; node : int; sent : float }

type counters = {
  mutable offered : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable latency_sum : float;
}

let run ?(config = default_config) ctl ~flows ~duration =
  let flows_a = Array.of_list flows in
  let n_flows = Array.length flows_a in
  let stats =
    Array.init n_flows (fun _ -> { offered = 0; delivered = 0; dropped = 0; latency_sum = 0.0 })
  in
  if flows = [] then invalid_arg "Pnet.run: no flows";
  let graph = Controller.graph ctl in
  let n_arcs = Topo.Graph.arc_count graph in
  let arc_bytes = Array.make n_arcs 0.0 in
  (* Per-arc transmitter: time the arc becomes free, plus the backlog used
     for buffer accounting. *)
  let next_free = Array.make n_arcs 0.0 in
  let queue = Eutil.Heap.create () in
  let pkt_bits = float_of_int (8 * config.packet_size) in
  if pkt_bits <= 0.0 then invalid_arg "Pnet.run: packet_size must be positive";
  (* Schedule injections. *)
  Array.iteri
    (fun i (_, _, rate) ->
      if rate > 0.0 then begin
        let period = pkt_bits /. rate in
        let n = int_of_float (duration *. rate /. pkt_bits) in
        for k = 0 to n - 1 do
          Eutil.Heap.push queue (float_of_int k *. period) (Inject i)
        done
      end)
    flows_a;
  let forward now flow node sent =
    let o, d, _ = flows_a.(flow) in
    if node = d then begin
      stats.(flow).delivered <- stats.(flow).delivered + 1;
      stats.(flow).latency_sum <- stats.(flow).latency_sum +. (now -. sent)
    end
    else begin
      match Flowtable.lookup (Controller.table_of ctl node) ~src:o ~dst:d with
      | None -> stats.(flow).dropped <- stats.(flow).dropped + 1
      | Some e -> (
          match Flowtable.select e ~key:flow with
          | None -> stats.(flow).dropped <- stats.(flow).dropped + 1
          | Some a ->
              let arc = Topo.Graph.arc graph a in
              let ser = pkt_bits /. arc.Topo.Graph.capacity in
              let backlog = max 0.0 (next_free.(a) -. now) in
              if backlog > float_of_int config.buffer_packets *. ser then
                stats.(flow).dropped <- stats.(flow).dropped + 1
              else begin
                Flowtable.account e ~bytes:(float_of_int config.packet_size);
                arc_bytes.(a) <- arc_bytes.(a) +. float_of_int config.packet_size;
                let depart = max now next_free.(a) +. ser in
                next_free.(a) <- depart;
                Eutil.Heap.push queue
                  (depart +. arc.Topo.Graph.latency)
                  (Arrive { flow; node = arc.Topo.Graph.dst; sent })
              end)
    end
  in
  let rec loop () =
    match Eutil.Heap.pop queue with
    | None -> ()
    | Some (t, ev) ->
        (match ev with
        | Inject i ->
            let o, _, _ = flows_a.(i) in
            stats.(i).offered <- stats.(i).offered + 1;
            forward t i o t
        | Arrive { flow; node; sent } -> forward t flow node sent);
        loop ()
  in
  loop ();
  let flow_stats =
    Array.to_list
      (Array.mapi
         (fun i c ->
           let o, d, _ = flows_a.(i) in
           {
             origin = o;
             dest = d;
             offered = c.offered;
             delivered = c.delivered;
             dropped = c.dropped;
             mean_latency =
               (if c.delivered = 0 then 0.0 else c.latency_sum /. float_of_int c.delivered);
           })
         stats)
  in
  let offered = Array.fold_left (fun acc c -> acc + c.offered) 0 stats in
  let delivered = Array.fold_left (fun acc c -> acc + c.delivered) 0 stats in
  {
    flows = flow_stats;
    delivered_fraction =
      (if offered = 0 then 1.0 else float_of_int delivered /. float_of_int offered);
    arc_bytes;
  }
