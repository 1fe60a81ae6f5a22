type kind = Counter | Gauge | Histogram

type histogram_snapshot = {
  count : int;
  sum : float;
  min : float;
  max : float;
  quantiles : (float * float) list;
  buckets : (float * int) list;
}

type value =
  | Counter_v of float
  | Gauge_v of float
  | Histogram_v of histogram_snapshot

type collector = {
  c_name : string;
  c_help : string;
  c_labels : (string * string) list;
  c_kind : kind;
  collect : unit -> value;
  reset : unit -> unit;
}

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
  value : value;
}

type t = {
  lock : Mutex.t;  (* guards all three fields; lock order: registry before instrument *)
  mutable collectors : collector list;  (* reversed: newest first *)
  keys : (string, unit) Hashtbl.t;  (* name + labels, for duplicate detection *)
  kinds : (string, kind) Hashtbl.t;  (* name -> kind, for consistency *)
}

let create () =
  { lock = Mutex.create (); collectors = []; keys = Hashtbl.create 64; kinds = Hashtbl.create 64 }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let default = create ()

let valid_name n =
  n <> ""
  && (match n.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (fun c ->
         match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       n

(* The separators cannot appear in a valid label name, and '\x01' cannot
   collide with a quoted value boundary, so the key is injective. *)
let key name labels =
  name ^ String.concat "" (List.map (fun (k, v) -> "\x00" ^ k ^ "\x01" ^ v) labels)

let kind_to_string = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let register t c =
  if not (valid_name c.c_name) then
    invalid_arg (Printf.sprintf "Obs.Registry.register: invalid metric name %S" c.c_name);
  List.iter
    (fun (k, _) ->
      if not (valid_name k) then
        invalid_arg
          (Printf.sprintf "Obs.Registry.register: invalid label name %S on %s" k c.c_name))
    c.c_labels;
  locked t (fun () ->
      (match Hashtbl.find_opt t.kinds c.c_name with
      | Some k when k <> c.c_kind ->
          invalid_arg
            (Printf.sprintf "Obs.Registry.register: %s already registered as a %s" c.c_name
               (kind_to_string k))
      | _ -> ());
      let k = key c.c_name c.c_labels in
      if Hashtbl.mem t.keys k then
        invalid_arg
          (Printf.sprintf "Obs.Registry.register: duplicate metric %s (same label set)" c.c_name);
      Hashtbl.replace t.keys k ();
      Hashtbl.replace t.kinds c.c_name c.c_kind;
      t.collectors <- c :: t.collectors)

let snapshot t =
  let collectors = locked t (fun () -> t.collectors) in
  List.rev_map
    (fun c ->
      {
        name = c.c_name;
        help = c.c_help;
        labels = c.c_labels;
        kind = c.c_kind;
        value = c.collect ();
      })
    collectors

let reset t = List.iter (fun c -> c.reset ()) (locked t (fun () -> t.collectors))

let value t ?(labels = []) name =
  let k = key name labels in
  let rec find = function
    | [] -> None
    | c :: rest ->
        if key c.c_name c.c_labels = k then
          match c.collect () with
          | Counter_v v | Gauge_v v -> Some v
          | Histogram_v _ -> None
        else find rest
  in
  find (locked t (fun () -> t.collectors))
