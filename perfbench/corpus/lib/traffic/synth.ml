module U = Eutil.Units

let day = 86_400.0

(* Diurnal shape in [0,1]: trough around 04:00, peak around 15:00. *)
let diurnal t =
  let tod = mod_float t day /. day in
  let x = sin (2.0 *. Float.pi *. (tod -. 0.375)) in
  0.5 +. (0.5 *. x)

let weekend_dip t =
  let dow = int_of_float (floor (t /. day)) mod 7 in
  if dow >= 5 then 0.7 else 1.0

let geant_like g ?(seed = 42) ?(days = 15) ?interval ?mean_utilisation ?(noise_sigma = 0.3)
    ?pairs () =
  let interval = U.to_float (match interval with Some i -> i | None -> U.seconds 900.0) in
  if interval <= 0.0 then
    invalid_arg "Traffic.Synth.geant_like: interval must be positive (interval counts divide by it)";
  let mean_utilisation =
    U.to_float (match mean_utilisation with Some u -> u | None -> U.ratio 0.05)
  in
  let rng = Eutil.Prng.create seed in
  let cap_sum =
    Topo.Graph.fold_links g ~init:0.0 ~f:(fun acc l -> acc +. Topo.Graph.link_capacity g l)
  in
  (* An empty or zero-capacity topology admits no demand volume at all:
     every generated matrix would be zero (or, with a gravity base, 0/0
     NaN). An explicit error beats a silently useless trace. *)
  if cap_sum <= 0.0 then
    invalid_arg "Traffic.Synth.geant_like: topology has zero total link capacity";
  let pairs =
    match pairs with Some p -> p | None -> Gravity.make g ~total:(U.bps 1.0) () |> Matrix.pairs
  in
  let base = Gravity.make g ~pairs ~total:(U.bps 1.0) () in
  let mean_volume = mean_utilisation *. cap_sum in
  let n_intervals = int_of_float (float_of_int days *. day /. interval) in
  (* Slow per-OD random walk: shares drift over hours, not per interval. *)
  let walk = Hashtbl.create (List.length pairs) in
  List.iter (fun od -> Hashtbl.replace walk od 1.0) pairs;
  let tms =
    Array.init n_intervals (fun i ->
        let t = float_of_int i *. interval in
        let level = (0.22 +. (0.78 *. diurnal t)) *. weekend_dip t in
        let volume = mean_volume *. level in
        (* Traffic variability scales with volume: busy-hour demands are
           noisy, night troughs are calm — which is what makes one minimal
           routing configuration dominate off-peak (Figure 2a). *)
        let sigma_now = noise_sigma *. (0.15 +. (0.85 *. diurnal t)) in
        (* Update the random walk every hour. *)
        if i mod max 1 (int_of_float (3600.0 /. interval)) = 0 then
          List.iter
            (fun od ->
              (* Every od of [pairs] is seeded into [walk] at creation. *)
              let w = Option.value (Hashtbl.find_opt walk od) ~default:1.0 in
              let w' = w *. Eutil.Prng.lognormal rng ~mu:0.0 ~sigma:(0.1 *. (0.3 +. (0.7 *. diurnal t))) in
              (* Mean reversion keeps shares bounded. *)
              Hashtbl.replace walk od (max 0.25 (min 4.0 (w' ** 0.97))))
            pairs;
        let m = Matrix.create (Topo.Graph.node_count g) in
        List.iter
          (fun (o, d) ->
            let share =
              Matrix.get base o d *. Option.value (Hashtbl.find_opt walk (o, d)) ~default:1.0
            in
            let noise = Eutil.Prng.lognormal rng ~mu:0.0 ~sigma:sigma_now in
            Matrix.add_to m o d (volume *. share *. noise))
          pairs;
        m)
  in
  Trace.make ~interval tms

let google_dc_like ~n ~pairs ?(seed = 7) ?(days = 8) ?interval ?peak () =
  let interval = U.to_float (match interval with Some i -> i | None -> U.seconds 300.0) in
  if interval <= 0.0 then
    invalid_arg
      "Traffic.Synth.google_dc_like: interval must be positive (interval counts divide by it)";
  let peak = U.to_float (match peak with Some p -> p | None -> U.gbps 1.0) in
  let rng = Eutil.Prng.create seed in
  let n_intervals = int_of_float (float_of_int days *. day /. interval) in
  let pairs = Array.of_list pairs in
  let npairs = Array.length pairs in
  (* Per-flow state in (0, 1], multiplied by peak. *)
  let x = Array.init npairs (fun _ -> 0.2 +. (0.5 *. Eutil.Prng.float rng)) in
  let phase = Array.init npairs (fun _ -> Eutil.Prng.float rng *. 2.0 *. Float.pi) in
  let tms =
    Array.init n_intervals (fun i ->
        let t = float_of_int i *. interval in
        let m = Matrix.create n in
        for p = 0 to npairs - 1 do
          let target =
            0.15 +. (0.55 *. (0.5 +. (0.5 *. sin ((2.0 *. Float.pi *. t /. day) +. phase.(p)))))
          in
          (* The diurnal target is bounded below by its 0.15 base load, so
             the reversion ratio below can never divide by zero. *)
          assert (target > 0.0);
          (* Mean-reverting multiplicative walk; sigma 0.35 yields ~50 % of
             intervals changing by >= 20 %, matching Figure 1a. *)
          let noise = Eutil.Prng.lognormal rng ~mu:0.0 ~sigma:0.35 in
          let reverted = target *. ((x.(p) /. target) ** 0.6) in
          x.(p) <- max 0.01 (min 1.0 (reverted *. noise));
          let o, d = pairs.(p) in
          Matrix.add_to m o d (x.(p) *. peak)
        done;
        m)
  in
  Trace.make ~interval tms
