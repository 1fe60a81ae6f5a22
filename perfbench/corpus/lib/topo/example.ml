(* The example topology of the paper's Figure 3 (also the Click testbed of
   Figure 7, which excludes router B): sources A, B, C reach K over a common
   always-on path E-H-K, while D-G-K ("upper") and F-J-K ("lower") serve as
   on-demand/failover paths. *)

type t = {
  graph : Graph.t;
  a : int;
  b : int option;
  c : int;
  d : int;
  e : int;
  f : int;
  g : int;
  h : int;
  j : int;
  k : int;
}

let make ?(include_b = true) ?(capacity = 10e6) ?(latency = 16.67e-3) () =
  let bl = Graph.Builder.create () in
  let add name = Graph.Builder.add_node bl ~role:Pop name in
  let a = add "A" in
  let b = if include_b then Some (add "B") else None in
  let c = add "C" in
  let d = add "D" in
  let e = add "E" in
  let f = add "F" in
  let g = add "G" in
  let h = add "H" in
  let j = add "J" in
  let k = add "K" in
  let link x y = ignore (Graph.Builder.add_link bl ~capacity ~latency x y) in
  link a d;
  link a e;
  (match b with Some b -> link b e | None -> ());
  link c e;
  link c f;
  link d g;
  link e h;
  link f j;
  link g k;
  link h k;
  link j k;
  { graph = Graph.Builder.build bl; a; b; c; d; e; f; g; h; j; k }

(* Tiny fixtures used across the test suites. *)

let triangle ?(capacity = 1e9) ?(latency = 1e-3) () =
  let b = Graph.Builder.create () in
  let n0 = Graph.Builder.add_node b "n0" in
  let n1 = Graph.Builder.add_node b "n1" in
  let n2 = Graph.Builder.add_node b "n2" in
  ignore (Graph.Builder.add_link b ~capacity ~latency n0 n1);
  ignore (Graph.Builder.add_link b ~capacity ~latency n1 n2);
  ignore (Graph.Builder.add_link b ~capacity ~latency n0 n2);
  Graph.Builder.build b

let gig = Eutil.Units.to_float (Eutil.Units.gbps 1.0)

let square_with_diagonal () =
  (* 4-cycle n0-n1-n2-n3 plus chord n0-n2; useful for path-diversity tests. *)
  let b = Graph.Builder.create () in
  let n = Array.init 4 (fun i -> Graph.Builder.add_node b (Printf.sprintf "n%d" i)) in
  let link x y = ignore (Graph.Builder.add_link b ~capacity:gig ~latency:1e-3 x y) in
  link n.(0) n.(1);
  link n.(1) n.(2);
  link n.(2) n.(3);
  link n.(3) n.(0);
  link n.(0) n.(2);
  Graph.Builder.build b

let line n_nodes =
  let b = Graph.Builder.create () in
  let n = Array.init n_nodes (fun i -> Graph.Builder.add_node b (Printf.sprintf "n%d" i)) in
  for i = 0 to n_nodes - 2 do
    ignore (Graph.Builder.add_link b ~capacity:gig ~latency:1e-3 n.(i) n.(i + 1))
  done;
  Graph.Builder.build b
