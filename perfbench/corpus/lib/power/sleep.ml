module U = Eutil.Units

type state = {
  name : string;
  power_fraction : U.ratio U.q;
  wake_time : U.seconds U.q;
  transition_energy : U.seconds U.q;
}

let lpi =
  {
    name = "LPI";
    power_fraction = U.ratio 0.1;
    wake_time = U.seconds 16e-6;
    transition_energy = U.seconds 1e-5;
  }

let nap =
  {
    name = "nap";
    power_fraction = U.ratio 0.05;
    wake_time = U.seconds 10e-3;
    transition_energy = U.seconds 5e-3;
  }

let deep =
  {
    name = "deep";
    power_fraction = U.ratio 0.02;
    wake_time = U.seconds 2.0;
    transition_energy = U.seconds 1.0;
  }

(* For a gap of length T (at active power 1 W): staying awake costs T.
   Sleeping costs (T - wake) * fraction + wake * 1 + transition_energy.
   Break-even where they are equal. *)
let breakeven_gap s =
  let saved_rate = 1.0 -. U.to_float s.power_fraction in
  if saved_rate <= 0.0 then U.unsafe infinity
  else begin
    let wake = U.to_float s.wake_time in
    let overhead = U.to_float s.transition_energy in
    U.seconds (((wake *. saved_rate) +. overhead) /. saved_rate)
  end

let gaps_of_busy ~busy ~horizon =
  let rec build cursor = function
    | [] -> if cursor < horizon then [ (cursor, horizon) ] else []
    | (b0, b1) :: rest ->
        if b0 < cursor -. 1e-12 then invalid_arg "Sleep.gaps_of_busy: unsorted busy periods";
        let tail = build (max cursor b1) rest in
        if b0 > cursor then (cursor, b0) :: tail else tail
  in
  build 0.0 busy

let gap_energy ~active_power ~states gap_len =
  (* Best achievable energy for one idle gap. *)
  let awake = U.( *@ ) active_power (U.seconds gap_len) in
  List.fold_left
    (fun best s ->
      let wake = U.to_float s.wake_time in
      if gap_len <= wake then best
      else begin
        let asleep_seconds =
          ((gap_len -. wake) *. U.to_float s.power_fraction)
          +. wake
          +. U.to_float s.transition_energy
        in
        U.min_q best (U.( *@ ) active_power (U.seconds asleep_seconds))
      end)
    awake states

let energy ~active_power ~states ~busy ~horizon =
  let busy_time = List.fold_left (fun acc (a, b) -> acc +. (b -. a)) 0.0 busy in
  let gaps = gaps_of_busy ~busy ~horizon in
  let idle_energy =
    List.fold_left
      (fun acc (a, b) -> U.( +: ) acc (gap_energy ~active_power ~states (b -. a)))
      U.zero gaps
  in
  U.( +: ) (U.( *@ ) active_power (U.seconds busy_time)) idle_energy

let savings_percent ~active_power ~states ~busy ~horizon =
  let on = U.( *@ ) active_power (U.seconds horizon) in
  if U.to_float on <= 0.0 then 0.0
  else begin
    let used = energy ~active_power ~states ~busy ~horizon in
    100.0 *. (1.0 -. U.to_float (U.( /: ) used on))
  end

let periodic_busy ~utilisation ~period ~horizon =
  let utilisation = U.to_float utilisation in
  if utilisation < 0.0 || utilisation > 1.0 then invalid_arg "Sleep.periodic_busy: utilisation";
  if period <= 0.0 then invalid_arg "Sleep.periodic_busy: period";
  let n = int_of_float (ceil (horizon /. period)) in
  List.init n (fun i ->
      let start = float_of_int i *. period in
      (start, min horizon (start +. (utilisation *. period))))
  |> List.filter (fun (a, b) -> b > a)
