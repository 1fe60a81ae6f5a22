(* Benchmark entry point; perfbench/run.py builds this and passes it the
   paths it needs. See perfbench/README.md.

   pb.exe --workload replay|chaos|serve|analyze --seed N --seconds S
          --trace 0|1 [--quick] --daemon PATH --corpus DIR --scratch DIR *)

open Common

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let quick = ref false and daemon = ref "" and corpus = ref "" and scratch = ref "." in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME replay, chaos, serve or analyze");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 traced per-layer run");
      ("--quick", Arg.Set quick, " tiny inputs, every check");
      ("--daemon", Arg.Set_string daemon, "PATH respctld.exe");
      ("--corpus", Arg.Set_string corpus, "DIR frozen analyzer corpus");
      ("--scratch", Arg.Set_string scratch, "DIR writable scratch directory");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "pb.exe --workload NAME --seed N --seconds S --trace 0|1";
  let cfg =
    {
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      quick = !quick;
      daemon = !daemon;
      corpus = !corpus;
      scratch = !scratch;
    }
  in
  Printf.printf "workload %s, seed %d, %g s%s%s\n%!" !workload cfg.seed cfg.seconds
    (if cfg.trace then ", traced" else "")
    (if cfg.quick then ", quick" else "");
  match !workload with
  | "replay" -> W_replay.run cfg
  | "chaos" -> W_chaos.run cfg
  | "serve" -> W_serve.run cfg
  | "analyze" -> W_analyze.run cfg
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
