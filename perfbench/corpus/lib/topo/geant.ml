(* A GEANT-like topology: 23 PoPs, 37 links, modelled on the published 2005
   European research network map [Uhlig et al., CCR 2006]. The real dataset is
   not redistributable; the node set, approximate capacities (10G backbone,
   2.5G regional, 622M spurs) and geographically plausible latencies are
   reproduced here (see DESIGN.md, Substitutions). *)

let pops =
  [|
    "AT"; "BE"; "CH"; "CY"; "CZ"; "DE"; "DK"; "ES"; "FR"; "GR"; "HR"; "HU"; "IE"; "IL"; "IT";
    "LU"; "NL"; "PL"; "PT"; "SE"; "SI"; "SK"; "UK";
  |]

let gbit x = Eutil.Units.to_float (Eutil.Units.gbps x)
let ms x = x *. 1e-3

(* (a, b, capacity, one-way latency) *)
let links =
  [
    ("UK", "NL", gbit 10., ms 4.);
    ("UK", "FR", gbit 10., ms 3.);
    ("NL", "DE", gbit 10., ms 3.);
    ("DE", "FR", gbit 10., ms 5.);
    ("DE", "AT", gbit 10., ms 4.);
    ("DE", "CH", gbit 10., ms 4.);
    ("FR", "CH", gbit 10., ms 3.);
    ("CH", "IT", gbit 10., ms 3.);
    ("AT", "IT", gbit 10., ms 4.);
    ("DE", "PL", gbit 10., ms 5.);
    ("DE", "DK", gbit 10., ms 3.);
    ("SE", "DK", gbit 10., ms 3.);
    ("UK", "SE", gbit 10., ms 9.);
    ("FR", "ES", gbit 10., ms 6.);
    ("AT", "CZ", gbit 10., ms 2.);
    ("AT", "HU", gbit 10., ms 2.);
    ("BE", "NL", gbit 2.5, ms 2.);
    ("BE", "FR", gbit 2.5, ms 2.);
    ("IE", "UK", gbit 2.5, ms 4.);
    ("ES", "PT", gbit 2.5, ms 4.);
    ("PT", "FR", gbit 2.5, ms 8.);
    ("IT", "GR", gbit 2.5, ms 8.);
    ("GR", "AT", gbit 2.5, ms 8.);
    ("HU", "SK", gbit 2.5, ms 2.);
    ("SK", "CZ", gbit 2.5, ms 2.);
    ("CZ", "PL", gbit 2.5, ms 3.);
    ("SI", "AT", gbit 2.5, ms 2.);
    ("HR", "SI", gbit 2.5, ms 1.);
    ("HR", "HU", gbit 2.5, ms 2.);
    ("LU", "DE", gbit 2.5, ms 2.);
    ("LU", "FR", gbit 2.5, ms 2.);
    ("PL", "SE", gbit 2.5, ms 6.);
    ("CY", "GR", gbit 0.622, ms 6.);
    ("CY", "IL", gbit 0.622, ms 3.);
    ("IL", "IT", gbit 0.622, ms 12.);
    ("IE", "NL", gbit 0.622, ms 6.);
    ("PT", "UK", gbit 0.622, ms 10.);
  ]

let make () =
  let b = Graph.Builder.create () in
  let ids = Hashtbl.create 32 in
  Array.iter (fun p -> Hashtbl.add ids p (Graph.Builder.add_node b ~role:Pop p)) pops;
  let node x =
    match Hashtbl.find_opt ids x with
    | Some i -> i
    | None -> invalid_arg ("Geant.make: link references unknown PoP " ^ x)
  in
  List.iter
    (fun (x, y, capacity, latency) ->
      ignore (Graph.Builder.add_link b ~capacity ~latency (node x) (node y)))
    links;
  Graph.Builder.build b
