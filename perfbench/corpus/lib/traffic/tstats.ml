let out_traffic tm =
  let n = Matrix.size tm in
  let out = Array.make n 0.0 in
  Matrix.iter_flows tm ~f:(fun o _ v -> out.(o) <- out.(o) +. v);
  out

let out_traffic_changes trace =
  let samples = ref [] in
  let prev = ref None in
  Trace.iter trace ~f:(fun _ _ tm ->
      let out = out_traffic tm in
      (match !prev with
      | None -> ()
      | Some before ->
          Array.iteri
            (fun i x ->
              if before.(i) > 0.0 then begin
                let change = 100.0 *. abs_float (x -. before.(i)) /. before.(i) in
                samples := change :: !samples
              end)
            out);
      prev := Some out);
  Array.of_list (List.rev !samples)

let change_ccdf trace ~thresholds =
  Eutil.Stats.ccdf (out_traffic_changes trace) thresholds

let fraction_changing_by trace threshold =
  let xs = out_traffic_changes trace in
  if Array.length xs = 0 then 0.0
  else begin
    let c = Array.fold_left (fun acc x -> if x >= threshold then acc + 1 else acc) 0 xs in
    float_of_int c /. float_of_int (Array.length xs)
  end
