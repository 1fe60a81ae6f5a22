type entry = {
  origin : int;
  dest : int;
  always_on : Topo.Path.t;
  on_demand : Topo.Path.t list;
  failover : Topo.Path.t option;
}

type t = { g : Topo.Graph.t; table : (int * int, entry) Hashtbl.t }

let check_path g (o, d) p =
  if p.Topo.Path.src <> o || p.Topo.Path.dst <> d then
    invalid_arg
      (Printf.sprintf "Tables.make: path does not connect %s-%s" (Topo.Graph.name g o)
         (Topo.Graph.name g d))

let make g entries =
  let table = Hashtbl.create (List.length entries) in
  List.iter
    (fun e ->
      let key = (e.origin, e.dest) in
      if Hashtbl.mem table key then invalid_arg "Tables.make: duplicate pair";
      check_path g key e.always_on;
      List.iter (check_path g key) e.on_demand;
      Option.iter (check_path g key) e.failover;
      Hashtbl.replace table key e)
    entries;
  { g; table }

let graph t = t.g
let find t o d = Hashtbl.find_opt t.table (o, d)
let pairs t = Hashtbl.fold (fun k _ acc -> k :: acc) t.table [] |> List.sort Eutil.Order.int_pair
let entries t = List.filter_map (fun (o, d) -> Hashtbl.find_opt t.table (o, d)) (pairs t)

let paths e =
  Array.of_list
    ((e.always_on :: e.on_demand) @ match e.failover with Some f -> [ f ] | None -> [])

let n_tables t =
  Hashtbl.fold (fun _ e acc -> max acc (Array.length (paths e))) t.table 0

let state_of_paths g select t =
  let st = Topo.State.all_off g in
  Hashtbl.iter
    (fun _ e ->
      List.iter
        (fun p -> Array.iter (fun l -> Topo.State.set_link g st l true) (Topo.Path.links g p))
        (select e))
    t.table;
  st

let always_on_state t = state_of_paths t.g (fun e -> [ e.always_on ]) t

let full_state t =
  state_of_paths t.g
    (fun e -> (e.always_on :: e.on_demand) @ Option.to_list e.failover)
    t

let level_state t level =
  state_of_paths t.g
    (fun e ->
      let rec take n = function [] -> [] | x :: r -> if n <= 0 then [] else x :: take (n - 1) r in
      e.always_on :: take level e.on_demand)
    t

let pp ppf t =
  Format.fprintf ppf "tables(%d pairs, up to %d paths each)" (Hashtbl.length t.table) (n_tables t)
