(* The analyzer pass set of `respctl analyze` + `respctl lint` +
   `respctl doc`, run in-process over a source tree. *)

open Common

type corpus = {
  dirs : string list;  (** the tree's lib and bin *)
  lines : int;  (** source lines (.ml + .mli) *)
  parallel : (string * string list) list;
  cost : (string * string list) list;
  locks : (string * string list) list;
}

let manifest root name =
  Check.Share.parse_manifest (Check.Srclint.read_file (Filename.concat root ("check/" ^ name)))

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

(* Reads every source file (their text is what the passes consume) and
   parses the manifests. *)
let load root =
  let dirs = [ Filename.concat root "lib"; Filename.concat root "bin" ] in
  if not (List.for_all Sys.file_exists dirs) then failwith ("no corpus at " ^ root);
  let lines =
    List.fold_left
      (fun acc f -> acc + count_lines (Check.Srclint.read_file f))
      0 (Check.Srclint.source_files dirs)
  in
  {
    dirs;
    lines;
    parallel = manifest root "parallel.json";
    cost = manifest root "cost.json";
    locks = manifest root "locks.json";
  }

let pass_names = [ "lint"; "flow"; "callgraph"; "effect"; "share"; "cost"; "locks"; "doc" ]

type round = {
  times : (string * float) list;  (** seconds per pass *)
  findings : Check.Finding.t list;
  graph : Check.Callgraph.t;
}

let passes c =
  let times = ref [] in
  let pass name f =
    let r, dt = timed (fun () -> span ("check." ^ name) f) in
    times := (name, dt) :: !times;
    r
  in
  let lint = pass "lint" (fun () -> Check.Srclint.lint_paths c.dirs) in
  let flow = pass "flow" (fun () -> Check.Flow.analyze_paths c.dirs) in
  let graph = pass "callgraph" (fun () -> Check.Callgraph.build c.dirs) in
  let effect = pass "effect" (fun () -> Check.Effect.analyze graph) in
  let share = pass "share" (fun () -> Check.Share.analyze ~manifest:c.parallel graph) in
  let cost = pass "cost" (fun () -> Check.Cost.analyze ~manifest:c.cost graph) in
  let locks = pass "locks" (fun () -> Check.Lock.analyze ~manifest:c.locks graph) in
  let doc = pass "doc" (fun () -> Check.Doc.check_paths c.dirs) in
  {
    times = List.rev !times;
    findings = List.concat [ lint; flow; effect; share; cost; locks; doc ];
    graph;
  }
