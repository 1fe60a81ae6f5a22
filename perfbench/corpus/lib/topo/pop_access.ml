(* Hierarchical Italian-ISP-like topology ("PoP-access" in the paper,
   published in [Chiaraviglio et al., GreenComm 2009]): a fully meshed core,
   a dual-homed backbone level and a dual-homed metro level, with significant
   redundancy at each level. The paper uses only the top three levels (core,
   backbone, metro) because feeder nodes must stay powered. *)

type params = { cores : int; backbones : int; metros : int }

let default = { cores = 4; backbones = 8; metros = 16 }

(* Link tiers: 10G core mesh, 2.5G backbone dual-homing, 1G metro. *)
let core_bps = Eutil.Units.to_float (Eutil.Units.gbps 10.0)
let backbone_bps = Eutil.Units.to_float (Eutil.Units.gbps 2.5)
let metro_bps = Eutil.Units.to_float (Eutil.Units.gbps 1.0)

let make ?(params = default) () =
  let { cores; backbones; metros } = params in
  if cores < 2 || backbones < 2 || metros < 1 then invalid_arg "Pop_access.make";
  let b = Graph.Builder.create () in
  let core =
    Array.init cores (fun i -> Graph.Builder.add_node b ~role:Core (Printf.sprintf "core%d" i))
  in
  let backbone =
    Array.init backbones (fun i ->
        Graph.Builder.add_node b ~role:Backbone (Printf.sprintf "bb%d" i))
  in
  let metro =
    Array.init metros (fun i -> Graph.Builder.add_node b ~role:Metro (Printf.sprintf "m%d" i))
  in
  (* Full mesh among cores, 10G. *)
  for i = 0 to cores - 1 do
    for j = i + 1 to cores - 1 do
      ignore (Graph.Builder.add_link b ~capacity:core_bps ~latency:1.5e-3 core.(i) core.(j))
    done
  done;
  (* Each backbone dual-homed to two distinct cores, 2.5G. *)
  for i = 0 to backbones - 1 do
    let c1 = i mod cores in
    let c2 = (i + 1) mod cores in
    ignore (Graph.Builder.add_link b ~capacity:backbone_bps ~latency:1e-3 backbone.(i) core.(c1));
    ignore (Graph.Builder.add_link b ~capacity:backbone_bps ~latency:1e-3 backbone.(i) core.(c2))
  done;
  (* Each metro dual-homed to two distinct backbones, 1G. *)
  for i = 0 to metros - 1 do
    let b1 = i mod backbones in
    let b2 = (i + 1) mod backbones in
    ignore (Graph.Builder.add_link b ~capacity:metro_bps ~latency:0.5e-3 metro.(i) backbone.(b1));
    ignore (Graph.Builder.add_link b ~capacity:metro_bps ~latency:0.5e-3 metro.(i) backbone.(b2))
  done;
  Graph.Builder.build b
