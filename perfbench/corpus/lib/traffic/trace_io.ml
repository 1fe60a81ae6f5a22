let to_csv trace =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "interval,%.6f\n" trace.Trace.interval);
  Trace.iter trace ~f:(fun i _ tm ->
      Matrix.iter_flows tm ~f:(fun o d v ->
          Buffer.add_string buf (Printf.sprintf "%d,%d,%d,%.3f\n" i o d v)));
  Buffer.contents buf

let of_csv ~n text =
  let lines = String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "") in
  match lines with
  | [] -> invalid_arg "Trace_io.of_csv: empty"
  | header :: rows ->
      let interval =
        match String.split_on_char ',' header with
        | [ "interval"; v ] -> (
            match float_of_string_opt v with
            | Some f when f > 0.0 -> f
            | _ -> invalid_arg "Trace_io.of_csv: bad interval")
        | _ -> invalid_arg "Trace_io.of_csv: missing header"
      in
      let parsed =
        List.map
          (fun line ->
            match String.split_on_char ',' line with
            | [ i; o; d; v ] -> (
                match
                  (int_of_string_opt i, int_of_string_opt o, int_of_string_opt d, float_of_string_opt v)
                with
                | Some i, Some o, Some d, Some v when i >= 0 && o >= 0 && d >= 0 && o < n && d < n
                  ->
                    (i, o, d, v)
                | _ -> invalid_arg ("Trace_io.of_csv: bad row " ^ line))
            | _ -> invalid_arg ("Trace_io.of_csv: bad row " ^ line))
          rows
      in
      let n_intervals = 1 + List.fold_left (fun acc (i, _, _, _) -> max acc i) 0 parsed in
      let tms = Array.init n_intervals (fun _ -> Matrix.create n) in
      List.iter (fun (i, o, d, v) -> Matrix.add_to tms.(i) o d v) parsed;
      Trace.make ~interval tms

let save trace path =
  let oc = open_out path in
  (try output_string oc (to_csv trace) with e -> close_out oc; raise e);
  close_out oc

let load ~n path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let content = really_input_string ic len in
  close_in ic;
  of_csv ~n content
