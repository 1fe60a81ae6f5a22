module R = Registry

(* --------------------------- canonical order -------------------------- *)

(* Every exporter sorts its samples by (name, labels) first, so the output
   bytes depend only on the sample set — never on registration or hash
   insertion order. Sorting also groups a family's label children under one
   HELP/TYPE header in the Prometheus rendering. *)

let compare_labels a b =
  let rec go a b =
    match (a, b) with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | (k1, v1) :: t1, (k2, v2) :: t2 ->
        let c = String.compare k1 k2 in
        if c <> 0 then c
        else
          let c = String.compare v1 v2 in
          if c <> 0 then c else go t1 t2
  in
  go a b

let by_series a b =
  let c = String.compare a.R.name b.R.name in
  if c <> 0 then c else compare_labels a.R.labels b.R.labels

let sort_samples samples = List.stable_sort by_series samples

(* ------------------------------ escaping ------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Prometheus label values escape backslash, quote and newline only. *)
let prom_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* ---------------------------- number rendering ------------------------ *)

(* Integral values print without an exponent or trailing zeros as long as
   they are exactly representable; %.17g round-trips the rest. *)
let exact_int_limit = 1e15

let render_float v =
  if Float.is_integer v && Float.abs v < exact_int_limit then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_float v = if Float.is_finite v then render_float v else "null"

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = infinity then "+Inf"
  else if v = neg_infinity then "-Inf"
  else render_float v

(* ------------------------------- text --------------------------------- *)

let render_labels escape = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape v)) labels)
      ^ "}"

let text_value = function
  | R.Counter_v v | R.Gauge_v v -> render_float v
  | R.Histogram_v h ->
      let qs =
        List.map
          (fun (q, v) ->
            Printf.sprintf "p%.0f=%s" (100.0 *. q) (render_float v))
          h.R.quantiles
      in
      let items =
        Printf.sprintf "count=%d" h.R.count
        :: Printf.sprintf "sum=%s" (render_float h.R.sum)
        :: Printf.sprintf "min=%s" (render_float h.R.min)
        :: List.rev_append (List.rev qs) [ Printf.sprintf "max=%s" (render_float h.R.max) ]
      in
      String.concat " " items

let to_text samples =
  let samples = sort_samples samples in
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "%-9s %-48s %s\n"
           (R.kind_to_string s.R.kind)
           (s.R.name ^ render_labels prom_escape s.R.labels)
           (text_value s.R.value)))
    samples;
  Buffer.contents buf

(* ------------------------------- JSON --------------------------------- *)

let json_value = function
  | R.Counter_v v | R.Gauge_v v -> json_float v
  | R.Histogram_v h ->
      let qs =
        List.map
          (fun (q, v) ->
            Printf.sprintf "\"p%.0f\":%s" (100.0 *. q) (json_float v))
          h.R.quantiles
      in
      let fields =
        Printf.sprintf "\"count\":%d" h.R.count
        :: Printf.sprintf "\"sum\":%s" (json_float h.R.sum)
        :: Printf.sprintf "\"min\":%s" (json_float h.R.min)
        :: Printf.sprintf "\"max\":%s" (json_float h.R.max)
        :: qs
      in
      "{" ^ String.concat "," fields ^ "}"

let to_json samples =
  let samples = sort_samples samples in
  let metric s =
    let labels =
      String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
           s.R.labels)
    in
    Printf.sprintf "{\"name\":\"%s\",\"kind\":\"%s\",\"help\":\"%s\",\"labels\":{%s},\"value\":%s}"
      (json_escape s.R.name)
      (R.kind_to_string s.R.kind)
      (json_escape s.R.help) labels (json_value s.R.value)
  in
  "{\"metrics\":[\n" ^ String.concat ",\n" (List.map metric samples) ^ "\n]}\n"

(* ---------------------------- Prometheus ------------------------------ *)

let to_prometheus samples =
  let samples = sort_samples samples in
  let buf = Buffer.create 1024 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen s.R.name) then begin
        Hashtbl.replace seen s.R.name ();
        if s.R.help <> "" then
          Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" s.R.name s.R.help);
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.R.name (R.kind_to_string s.R.kind))
      end;
      let labels = render_labels prom_escape s.R.labels in
      match s.R.value with
      | R.Counter_v v | R.Gauge_v v ->
          Buffer.add_string buf (Printf.sprintf "%s%s %s\n" s.R.name labels (prom_float v))
      | R.Histogram_v h ->
          let with_le le =
            render_labels prom_escape (List.rev_append (List.rev s.R.labels) [ ("le", le) ])
          in
          List.iter
            (fun (ub, cum) ->
              Buffer.add_string buf
                (Printf.sprintf "%s_bucket%s %d\n" s.R.name (with_le (prom_float ub)) cum))
            h.R.buckets;
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" s.R.name (with_le "+Inf") h.R.count);
          Buffer.add_string buf
            (Printf.sprintf "%s_sum%s %s\n" s.R.name labels (prom_float h.R.sum));
          Buffer.add_string buf (Printf.sprintf "%s_count%s %d\n" s.R.name labels h.R.count))
    samples;
  Buffer.contents buf

(* --------------------------- JSON validation --------------------------- *)

exception Bad of int * string

let validate_json s =
  let n = String.length s in
  let peek i = if i < n then Some s.[i] else None in
  let fail i msg = raise (Bad (i, msg)) in
  let rec skip_ws i =
    match peek i with
    | Some (' ' | '\t' | '\n' | '\r') -> skip_ws (i + 1)
    | _ -> i
  in
  let expect i c =
    match peek i with
    | Some x when x = c -> i + 1
    | _ -> fail i (Printf.sprintf "expected %C" c)
  in
  let rec value i =
    let i = skip_ws i in
    match peek i with
    | None -> fail i "unexpected end of input"
    | Some '{' -> obj (skip_ws (i + 1))
    | Some '[' -> arr (skip_ws (i + 1))
    | Some '"' -> string_lit (i + 1)
    | Some 't' -> keyword i "true"
    | Some 'f' -> keyword i "false"
    | Some 'n' -> keyword i "null"
    | Some ('-' | '0' .. '9') -> number i
    | Some c -> fail i (Printf.sprintf "unexpected %C" c)
  and keyword i word =
    let l = String.length word in
    if i + l <= n && String.sub s i l = word then i + l else fail i ("expected " ^ word)
  and obj i =
    match peek i with
    | Some '}' -> i + 1
    | _ ->
        let rec members i =
          let i = skip_ws i in
          let i = expect i '"' in
          let i = string_lit i in
          let i = expect (skip_ws i) ':' in
          let i = skip_ws (value i) in
          match peek i with
          | Some ',' -> members (i + 1)
          | Some '}' -> i + 1
          | _ -> fail i "expected ',' or '}'"
        in
        members i
  and arr i =
    match peek i with
    | Some ']' -> i + 1
    | _ ->
        let rec elements i =
          let i = skip_ws (value i) in
          match peek i with
          | Some ',' -> elements (i + 1)
          | Some ']' -> i + 1
          | _ -> fail i "expected ',' or ']'"
        in
        elements i
  and string_lit i =
    (* [i] is just past the opening quote. *)
    match peek i with
    | None -> fail i "unterminated string"
    | Some '"' -> i + 1
    | Some '\\' -> (
        match peek (i + 1) with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> string_lit (i + 2)
        | Some 'u' ->
            let hex j =
              match peek j with
              | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> ()
              | _ -> fail j "expected hex digit"
            in
            hex (i + 2);
            hex (i + 3);
            hex (i + 4);
            hex (i + 5);
            string_lit (i + 6)
        | _ -> fail (i + 1) "invalid escape")
    | Some c when Char.code c < 0x20 -> fail i "control character in string"
    | Some _ -> string_lit (i + 1)
  and number i =
    let i = match peek i with Some '-' -> i + 1 | _ -> i in
    let digits j =
      let rec go j =
        match peek j with Some '0' .. '9' -> go (j + 1) | _ -> j
      in
      let j' = go j in
      if j' = j then fail j "expected digit" else j'
    in
    let i =
      match peek i with
      | Some '0' -> i + 1
      | Some '1' .. '9' -> digits i
      | _ -> fail i "expected digit"
    in
    let i = match peek i with Some '.' -> digits (i + 1) | _ -> i in
    match peek i with
    | Some ('e' | 'E') ->
        let j = match peek (i + 1) with Some ('+' | '-') -> i + 2 | _ -> i + 1 in
        digits j
    | _ -> i
  in
  match skip_ws (value 0) with
  | i when i = n -> Ok ()
  | i -> Error (Printf.sprintf "trailing garbage at byte %d" i)
  | exception Bad (i, msg) -> Error (Printf.sprintf "%s at byte %d" msg i)

(* The one Prometheus page: respctl's [stats --metrics prom] and
   respctld's [GET /metrics] both render through here, so the two
   surfaces can never drift apart (pinned by a regression test). *)
let prometheus_page ?(registry = Registry.default) () = to_prometheus (Registry.snapshot registry)
