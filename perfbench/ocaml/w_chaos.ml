(* Workload `chaos`: GÉANT with tables precomputed in set-up, run through
   short seeded fault trials (Fault.Harness.run_trial). One operation is
   one trial. *)

open Common

type env = {
  g : Topo.Graph.t;
  power : Power.Model.t;
  tables : Response.Tables.t;
  base : Traffic.Matrix.t;
  pairs : (int * int) list;  (** the tables' pairs, sorted as Harness.run sorts them *)
}

let setup () =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = geant_pairs g ~seed:7 in
  let tables = Response.Framework.precompute g power ~pairs in
  let base = Traffic.Gravity.make g ~pairs ~total:(Eutil.Units.gbps 5.0) () in
  let pairs = List.sort Eutil.Order.int_pair (Response.Tables.pairs tables) in
  { g; power; tables; base; pairs }

let trials_per_round cfg = if cfg.quick then 2 else 8

let trial env spec k =
  Fault.Harness.run_trial ~config:Netsim.Sim.default_config ~threshold:0.999 ~tables:env.tables
    ~power:env.power ~base:env.base ~spec ~pairs:env.pairs ~links:(Topo.Graph.link_count env.g) k

(* Per-trial properties: traffic is conserved, availability is a fraction,
   and every outage lasts between 0 and the simulated duration. *)
let check_trial spec (t : Fault.Harness.trial) =
  let d = spec.Fault.Scenario.duration in
  check
    (close_rel ~tol:1e-6 (t.tr_delivered_bits +. t.tr_lost_bits) t.tr_offered_bits)
    (fun () ->
      Printf.sprintf "chaos trial %d: delivered %g + lost %g <> offered %g" t.tr_seed
        t.tr_delivered_bits t.tr_lost_bits t.tr_offered_bits);
  check (t.tr_availability >= 0.0 && t.tr_availability <= 1.0) (fun () ->
      Printf.sprintf "chaos trial %d: availability %g outside [0, 1]" t.tr_seed t.tr_availability);
  Array.iter
    (fun r ->
      check (r >= 0.0 && r <= d +. 1e-9) (fun () ->
          Printf.sprintf "chaos trial %d: recovery %g s outside [0, %g]" t.tr_seed r d))
    t.tr_recoveries

(* Once per run, untimed: a trial with no fault delivers everything, and
   equal seeds give byte-identical Harness JSON. *)
let check_controls cfg env spec =
  let calm = { spec with Fault.Scenario.link_faults = None; node_faults = None } in
  let t = trial env calm 0 in
  check
    (close_rel ~tol:1e-9 t.tr_delivered_bits t.tr_offered_bits && t.tr_offered_bits > 0.0)
    (fun () ->
      Printf.sprintf "chaos control: delivered %g of %g offered bits" t.tr_delivered_bits
        t.tr_offered_bits);
  check (t.tr_availability = 1.0) (fun () ->
      Printf.sprintf "chaos control: availability %g, expected 1" t.tr_availability);
  check (t.tr_fallback_routes = 0) (fun () ->
      Printf.sprintf "chaos control: %d fallback routes, expected 0" t.tr_fallback_routes);
  let json () =
    Fault.Harness.to_json
      (Fault.Harness.run ~tables:env.tables ~power:env.power ~base:env.base ~spec
         ~trials:(if cfg.quick then 1 else 2) ())
  in
  let a = json () in
  check (String.equal a (json ())) (fun () -> "chaos: equal seeds gave different Harness JSON")

(* Trials are all distinct (trial k uses seed base + k), so a run averages
   over as many fault schedules as it completes; it stops at a whole round. *)
let measure cfg env spec ~seconds =
  let l = new_loop () in
  let per_round = trials_per_round cfg in
  let t0 = now_ns () in
  while l.ops = 0 || l.ops mod per_round <> 0 || since_s t0 < seconds do
    let k = l.ops in
    match
      op l (fun () -> span "fault.run_trial" (fun () -> trial env spec k))
    with
    | exception Invalid_argument msg ->
        l.failed <- l.failed + 1;
        prerr_endline ("chaos trial failed: " ^ msg)
    | t, dt ->
        Samples.add l.lat dt;
        l.units <- l.units +. 1.0;
        l.fallbacks <- l.fallbacks + t.Fault.Harness.tr_fallback_routes;
        check_trial spec t
  done;
  l

let run cfg =
  let setups = List.init 9 (fun _ -> snd (timed (fun () -> ignore (setup ())))) in
  let env = setup () in
  let spec = chaos_spec ~seed:(cfg.seed * 1000) ~quick:cfg.quick in
  (* Warm-up trial, with a seed no measured trial uses. *)
  ignore (trial env spec (-1));
  let body ~seconds = (measure cfg env spec ~seconds, fun () -> check_controls cfg env spec) in
  Driver.in_process cfg ~name:"chaos" ~setup_s:(median_of setups) ~body
