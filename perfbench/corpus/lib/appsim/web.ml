type config = {
  n_files : int;
  median_size : float;
  sigma : float;
  requests : int;
  server_time : float;
  seed : int;
}

let default =
  {
    n_files = 100;
    (* SPECweb2005 banking: tens-of-KB median with a heavy tail. *)
    median_size = 30_000.0;
    sigma = 1.0;
    requests = 2_000;
    server_time = 2e-3;
    seed = 2005;
  }

type result = {
  mean_latency : float;
  p95_latency : float;
  latencies : float array;
}

let file_sizes cfg =
  let rng = Eutil.Prng.create cfg.seed in
  Array.init cfg.n_files (fun _ ->
      Eutil.Prng.lognormal rng ~mu:(log cfg.median_size) ~sigma:cfg.sigma)

let run g ~path_of ~background_util ~clients cfg =
  if clients = [] then invalid_arg "Web.run: no clients";
  let sizes = file_sizes cfg in
  let rng = Eutil.Prng.create (cfg.seed + 1) in
  let clients = Array.of_list clients in
  let latencies =
    Array.init cfg.requests (fun _ ->
        let client = clients.(Eutil.Prng.int rng (Array.length clients)) in
        let size = sizes.(Eutil.Prng.int rng cfg.n_files) in
        match path_of client with
        | None -> infinity
        | Some p ->
            let rtt = 2.0 *. Topo.Path.latency g p in
            (* Residual bottleneck bandwidth along the path. *)
            let residual =
              Array.fold_left
                (fun acc a ->
                  let arc = Topo.Graph.arc g a in
                  let free = arc.Topo.Graph.capacity *. (1.0 -. min 0.95 (background_util a)) in
                  min acc free)
                infinity p.Topo.Path.arcs
            in
            if residual <= 0.0 then infinity
            else (2.0 *. rtt) +. cfg.server_time +. (size *. 8.0 /. residual))
  in
  let finite_n = Array.fold_left (fun acc x -> if x < infinity then acc + 1 else acc) 0 latencies in
  let finite = Array.make finite_n 0.0 in
  let j = ref 0 in
  Array.iter
    (fun x ->
      if x < infinity then begin
        finite.(!j) <- x;
        incr j
      end)
    latencies;
  {
    mean_latency = Eutil.Stats.mean finite;
    p95_latency = Eutil.Stats.percentile finite 95.0;
    latencies = finite;
  }

let compare_latency ~baseline ~treatment =
  100.0 *. ((treatment.mean_latency /. baseline.mean_latency) -. 1.0)
