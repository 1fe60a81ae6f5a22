(* Workload `replay`: the Fig. 1b/2a/2b trace replay. GÉANT, the seeded
   GÉANT-like 15-minute trace, and the greedy minimal subset recomputed for
   every interval, as Response.Replay.run does it. One operation is one
   interval; a run replays whole days of the trace in order. *)

open Common

type env = {
  g : Topo.Graph.t;
  power : Power.Model.t;
  trace : Traffic.Trace.t;
}

let per_day = 96 (* 15-minute intervals *)

let setup cfg =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = geant_pairs g ~seed:24 in
  let days = if cfg.quick then 1 else 15 in
  let trace = Traffic.Synth.geant_like g ~seed:cfg.seed ~days ~pairs () in
  { g; power; trace }

(* Properties every interval's result must have: each demanded pair is
   routed between its endpoints over active elements only, the arc loads
   are exactly paths x demands and fit capacity x margin (1.0), and the
   reported power is the power model's figure for the reported state. *)
let check_interval env i tm (r : Optim.Minimal.result) =
  let g = env.g in
  let load = Array.make (Topo.Graph.arc_count g) 0.0 in
  Traffic.Matrix.iter_flows tm ~f:(fun o d v ->
      match Hashtbl.find_opt r.routing (o, d) with
      | None -> fail (Printf.sprintf "replay interval %d: pair %d->%d has no path" i o d)
      | Some p ->
          check (p.Topo.Path.src = o && p.Topo.Path.dst = d) (fun () ->
              Printf.sprintf "replay interval %d: path of %d->%d has wrong endpoints" i o d);
          let nodes = Topo.Path.nodes g p in
          check
            (Array.length nodes > 1 && nodes.(0) = o && nodes.(Array.length nodes - 1) = d)
            (fun () -> Printf.sprintf "replay interval %d: path of %d->%d is not a walk" i o d);
          Array.iter
            (fun a ->
              let arc = Topo.Graph.arc g a in
              check (Topo.State.link_on r.state arc.Topo.Graph.link) (fun () ->
                  Printf.sprintf "replay interval %d: %d->%d uses sleeping link %d" i o d
                    arc.Topo.Graph.link);
              load.(a) <- load.(a) +. v)
            p.Topo.Path.arcs);
  Array.iteri
    (fun a l ->
      let cap = (Topo.Graph.arc g a).Topo.Graph.capacity in
      (* Loads are sums and differences of flows placed and withdrawn by the
         greedy: equal up to rounding at the scale of the arc's capacity. *)
      check (Float.abs (r.arc_load.(a) -. l) <= 1e-9 *. cap) (fun () ->
          Printf.sprintf "replay interval %d: arc %d load %g, paths x demands give %g" i a
            r.arc_load.(a) l);
      check (l <= cap *. (1.0 +. 1e-9)) (fun () ->
          Printf.sprintf "replay interval %d: arc %d carries %g over capacity %g" i a l cap))
    load;
  let watts = Eutil.Units.to_float (Power.Model.total env.power g r.state) in
  check (close_rel r.power_watts watts) (fun () ->
      Printf.sprintf "replay interval %d: reported %g W, power model gives %g W" i r.power_watts
        watts)

(* The timed loop. The first day's states are kept so that the run can be
   compared with Response.Replay.run on that day afterwards. *)
let measure env ~seconds =
  let l = new_loop () in
  let n = Traffic.Trace.length env.trace in
  let ranking = Response.Critical_paths.create env.g in
  let day0 = Array.make (min n per_day) "" in
  let day0_changes = ref 0 in
  let previous = ref None in
  let t0 = now_ns () in
  let i = ref 0 in
  while !i = 0 || !i mod per_day <> 0 || since_s t0 < seconds do
    let k = !i mod n in
    let tm = Traffic.Trace.at env.trace k in
    let r, dt =
      op l (fun () ->
          span "replay.interval" (fun () ->
              let r =
                span "optim.power_down" (fun () -> Optim.Minimal.power_down env.g env.power tm)
              in
              (match r with
              | Some r ->
                  span "response.critical_paths" (fun () ->
                      Response.Critical_paths.observe ranking r.Optim.Minimal.routing tm)
              | None -> ());
              r))
    in
    (match r with
    | None -> l.failed <- l.failed + 1
    | Some r ->
        Samples.add l.lat dt;
        l.units <- l.units +. 1.0;
        check_interval env k tm r;
        let changed =
          match !previous with Some s -> not (Topo.State.equal s r.state) | None -> false
        in
        previous := Some r.state;
        if !i < Array.length day0 then begin
          day0.(!i) <- Topo.State.key r.state;
          if changed then incr day0_changes
        end);
    incr i
  done;
  (l, day0, !day0_changes)

(* Response.Replay.run over the first day must see the same states and the
   same number of recomputations as the benchmark's own loop. *)
let check_against_replay env day0 changes =
  let tms = Array.init (Array.length day0) (Traffic.Trace.at env.trace) in
  let tr = Traffic.Trace.make ~interval:env.trace.Traffic.Trace.interval tms in
  let rep = Response.Replay.run env.g env.power tr in
  check (rep.Response.Replay.recomputations = changes) (fun () ->
      Printf.sprintf "replay: Replay.run counts %d recomputations on day 0, the loop saw %d"
        rep.Response.Replay.recomputations changes);
  Array.iteri
    (fun i key ->
      check (Topo.State.key rep.Response.Replay.intervals.(i).Response.Replay.state = key)
        (fun () -> Printf.sprintf "replay: interval %d state differs from Replay.run" i))
    day0

let run cfg =
  let setups = List.init 9 (fun _ -> snd (timed (fun () -> ignore (setup cfg)))) in
  let env = setup cfg in
  (* Warm-up: lazy state and the allocator settle before timing. *)
  ignore (Optim.Minimal.power_down env.g env.power (Traffic.Trace.at env.trace 0));
  let body ~seconds =
    let l, day0, changes = measure env ~seconds in
    (l, fun () -> check_against_replay env day0 changes)
  in
  (* Each figure is the median over the run's days. *)
  Driver.in_process ~group:per_day cfg ~name:"replay" ~setup_s:(median_of setups) ~body
