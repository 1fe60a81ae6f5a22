type episode = { start : float; duration : float; peak_volume : float }

let peak_episodes trace ~threshold =
  if threshold <= 0.0 || threshold > 1.0 then invalid_arg "Peaks.peak_episodes: threshold";
  let totals = Array.init (Trace.length trace) (fun i -> Matrix.total (Trace.at trace i)) in
  let max_total = Array.fold_left max 0.0 totals in
  let bar = threshold *. max_total in
  let episodes = ref [] in
  let current = ref None in
  let close i =
    match !current with
    | None -> ()
    | Some (start_idx, vol) ->
        episodes :=
          {
            start = Trace.time_of trace start_idx;
            duration = float_of_int (i - start_idx) *. trace.Trace.interval;
            peak_volume = vol;
          }
          :: !episodes;
        current := None
  in
  Array.iteri
    (fun i total ->
      if total >= bar then begin
        match !current with
        | None -> current := Some (i, total)
        | Some (s, v) -> current := Some (s, max v total)
      end
      else close i)
    totals;
  close (Trace.length trace);
  List.rev !episodes

let mean_peak_duration trace ~threshold =
  match peak_episodes trace ~threshold with
  | [] -> 0.0
  | eps ->
      List.fold_left (fun acc e -> acc +. e.duration) 0.0 eps /. float_of_int (List.length eps)

let longest_peak trace ~threshold =
  List.fold_left (fun acc e -> max acc e.duration) 0.0 (peak_episodes trace ~threshold)

let fraction_of_time_in_peak trace ~threshold =
  let total_in =
    List.fold_left (fun acc e -> acc +. e.duration) 0.0 (peak_episodes trace ~threshold)
  in
  total_in /. (float_of_int (Trace.length trace) *. trace.Trace.interval)
