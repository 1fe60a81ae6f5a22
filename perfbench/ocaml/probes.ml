(* The per-layer probes of a traced run: each layer's public functions
   timed from here, on GÉANT inputs made from the run's seed. Every traced
   run reports the whole set, whatever its workload; README.md maps each
   figure to the end-to-end metric it should move. *)

open Common

let reps n f = List.init n (fun _ -> snd (timed f))

(* Mean nanoseconds per call over a tight loop of [n] calls. *)
let ns_per_call n f =
  f ();
  let _, dt =
    timed (fun () ->
        for _ = 1 to n do
          f ()
        done)
  in
  dt *. 1e9 /. float_of_int n

let us x = x *. 1e6
let ms x = x *. 1e3

let optim_and_traffic cfg g power pairs =
  let synth days () = Traffic.Synth.geant_like g ~seed:cfg.seed ~days ~pairs () in
  let trace = synth 1 () in
  let synth_ms =
    span "traffic.synth" (fun () -> ms (median_of (reps 3 (fun () -> ignore (synth 15 ())))))
  in
  (* Eight intervals spread over the day, busy hours included. *)
  let tms = List.init 8 (fun k -> Traffic.Trace.at trace (k * 12)) in
  let power_down =
    List.map
      (fun tm ->
        snd
          (timed (fun () ->
               span "optim.power_down" (fun () -> Optim.Minimal.power_down g power tm))))
      tms
  in
  let route_matrix =
    List.map
      (fun tm ->
        snd
          (timed (fun () ->
               span "optim.route_matrix" (fun () ->
                   let f = Optim.Feasible.create g in
                   ignore (Optim.Feasible.route_matrix f tm)))))
      tms
  in
  (* Shortest paths under the congestion weights of a placed interval. *)
  let sp = Samples.create () in
  List.iter
    (fun tm ->
      let f = Optim.Feasible.create g in
      ignore (Optim.Feasible.route_matrix f tm);
      let weight = Optim.Feasible.congestion_weight f in
      Traffic.Matrix.iter_flows tm ~f:(fun o d _ ->
          let _, dt =
            timed (fun () ->
                span "routing.shortest_path" (fun () ->
                    Routing.Dijkstra.shortest_path g ~weight ~src:o ~dst:d ()))
          in
          Samples.add sp dt))
    tms;
  [
    ("traffic.synth_ms", synth_ms);
    ("optim.power_down_us", us (median_of power_down));
    ("optim.route_matrix_us", us (median_of route_matrix));
    ("routing.shortest_path_us", us (Samples.median sp));
  ]

let response_fault_netsim cfg g power pairs =
  let tables, _ = timed (fun () -> Response.Framework.precompute g power ~pairs) in
  let precompute =
    reps 3 (fun () ->
        span "response.precompute" (fun () ->
            ignore (Response.Framework.precompute g power ~pairs)))
  in
  let base = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let evaluate =
    reps 10 (fun () ->
        span "response.evaluate" (fun () -> ignore (Response.Framework.evaluate tables power base)))
  in
  let spec = chaos_spec ~seed:(cfg.seed * 1000) ~quick:cfg.quick in
  let config = Netsim.Sim.default_config in
  let sorted_pairs = List.sort Eutil.Order.int_pair (Response.Tables.pairs tables) in
  let links = Topo.Graph.link_count g in
  let schedule = Samples.create ()
  and sim = Samples.create ()
  and per_event = Samples.create ()
  and overhead = Samples.create () in
  for k = 0 to 2 do
    let spec_k = { spec with Fault.Scenario.seed = spec.Fault.Scenario.seed + k } in
    let events, dt =
      timed (fun () -> span "fault.schedule" (fun () -> Fault.Scenario.events spec_k g ~base))
    in
    Samples.add schedule dt;
    let run_sim () =
      snd
        (timed (fun () ->
             span "netsim.run" (fun () ->
                 Netsim.Sim.run ~config ~tables ~power ~events
                   ~duration:spec_k.Fault.Scenario.duration ())))
    in
    let e0 = obs_total "netsim_events_total" in
    let dsim = run_sim () in
    Samples.add sim dsim;
    Samples.add per_event (dsim /. Float.max 1.0 (obs_total "netsim_events_total" -. e0));
    let _, dtrial =
      timed (fun () ->
          span "fault.run_trial" (fun () ->
              Fault.Harness.run_trial ~config ~threshold:0.999 ~tables ~power ~base ~spec
                ~pairs:sorted_pairs ~links k))
    in
    (* The simulation is timed on both sides of the trial: the first run
       of a schedule is the slower one, by more than the harness costs. *)
    Samples.add overhead (dtrial -. Float.min dsim (run_sim ()))
  done;
  [
    ("response.precompute_ms", ms (median_of precompute));
    ("response.evaluate_ms", ms (median_of evaluate));
    ("fault.schedule_us", us (Samples.median schedule));
    ("netsim.run_us", us (Samples.median sim));
    ("netsim.us_per_event", us (Samples.median per_event));
    ("fault.harness_overhead_us", us (Samples.median overhead));
  ]

(* Serve layers in-process: codecs and guard on the serve workload's
   request mix, the snapshot state, and the dispatcher behind a server
   bound to ephemeral loopback ports. *)
let serve g power pairs =
  let config = Response.Framework.default in
  let demand = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let create () = Serve.State.create ~config g power ~pairs ~demand in
  let creates =
    reps 3 (fun () -> span "serve.state.create" (fun () -> Serve.State.stop (create ())))
  in
  let state = create () in
  Fun.protect
    ~finally:(fun () -> Serve.State.stop state)
    (fun () ->
      let pa = Array.of_list pairs in
      let np = Array.length pa in
      let mix =
        Array.init 64 (fun i ->
            let o, d = pa.(i * 7 mod np) in
            match i mod 16 with
            | 15 -> Serve.Wire.Stats
            | 14 -> Serve.Wire.Health
            | _ -> Serve.Wire.Path_query { origin = o; dest = d })
      in
      let frames = Array.map Serve.Wire.encode_request mix in
      let i = ref 0 in
      let next () =
        i := (!i + 1) land 63;
        !i
      in
      let encode_ns =
        ns_per_call 200_000 (fun () -> ignore (Serve.Wire.encode_request mix.(next ())))
      in
      let decode_ns =
        ns_per_call 200_000 (fun () -> ignore (Serve.Wire.decode_request frames.(next ())))
      in
      let guard = Serve.Guard.create Serve.Guard.default in
      let admit_ns =
        ns_per_call 200_000 (fun () -> ignore (Serve.Guard.admit guard ~now:(Obs.Clock.now_s ())))
      in
      let resolve_ns =
        ns_per_call 200_000 (fun () ->
            let o, d = pa.(next () mod np) in
            ignore (Serve.State.resolve state ~origin:o ~dest:d))
      in
      let server =
        Serve.Server.start
          ~config:{ Serve.Server.default_config with port = 0; http_port = 0; workers = 1 }
          state
      in
      let handle_ns =
        Fun.protect
          ~finally:(fun () -> Serve.Server.stop server)
          (fun () ->
            ns_per_call 100_000 (fun () ->
                ignore (Serve.Server.handle_request server mix.(next ()))))
      in
      (* Writes: each demand update made live by a reload (a recompute and a
         snapshot swap); the recompute histogram is read back from Obs. *)
      let swaps0 = Serve.State.swap_count state in
      for k = 1 to 8 do
        let o, d = pa.(k * 5 mod np) in
        span "serve.update" (fun () ->
            ignore (Serve.State.update_demand state ~origin:o ~dest:d ~bps:(float_of_int k *. 1e7));
            ignore (Serve.State.reload state))
      done;
      let recompute =
        List.fold_left
          (fun acc (s : Obs.Registry.sample) ->
            match s.value with
            | Obs.Registry.Histogram_v h when s.name = "serve_recompute_seconds" ->
                h.Obs.Registry.sum /. float_of_int (max 1 h.Obs.Registry.count)
            | _ -> acc)
          nan
          (Obs.Registry.snapshot Obs.Registry.default)
      in
      [
        ("serve.wire.encode_ns", encode_ns);
        ("serve.wire.decode_ns", decode_ns);
        ("serve.guard.admit_ns", admit_ns);
        ("serve.server.handle_request_ns", handle_ns);
        ("serve.state.resolve_ns", resolve_ns);
        ("serve.state.create_ms", ms (median_of creates));
        ("serve.recompute_s", recompute);
        ("serve.swaps", float_of_int (Serve.State.swap_count state - swaps0));
      ])

let obs () =
  let h =
    Obs.Metric.Histogram.create ~registry:(Obs.Registry.create ()) ~help:"probe" "probe_seconds"
  in
  let x = ref 1e-6 in
  [
    ("obs.clock_ns", ns_per_call 1_000_000 (fun () -> ignore (Obs.Clock.now_s ())));
    ( "obs.histogram_observe_ns",
      ns_per_call 1_000_000 (fun () ->
          x := if !x > 1.0 then 1e-6 else !x *. 1.01;
          Obs.Metric.Histogram.observe h !x) );
  ]

let check cfg =
  let corpus = Passes.load cfg.corpus in
  let rounds = List.init 3 (fun _ -> Passes.passes corpus) in
  let pass name = median_of (List.map (fun r -> List.assoc name r.Passes.times) rounds) in
  let g = (List.hd rounds).Passes.graph in
  List.map (fun p -> ("check." ^ p ^ "_ms", ms (pass p))) Passes.pass_names
  @ [
      ("check.callgraph_defs", float_of_int (Array.length g.Check.Callgraph.defs));
      ( "check.callgraph_edges",
        float_of_int
          (Array.fold_left (fun acc c -> acc + List.length c) 0 g.Check.Callgraph.callees) );
    ]

let run cfg =
  Obs.set_enabled true;
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = geant_pairs g ~seed:7 in
  List.concat
    [
      optim_and_traffic cfg g power pairs;
      response_fault_netsim cfg g power pairs;
      serve g power pairs;
      obs ();
      check cfg;
    ]
