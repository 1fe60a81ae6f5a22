(* Workload `analyze`: every check pass over the frozen corpus (lib + bin
   at a pinned commit, kept under perfbench/corpus). One operation is one
   full pass set; throughput counts corpus source lines. *)

open Common

(* Defects planted in a scratch copy of the corpus, one per rule family,
   each with the rule that must report it and the 1-based line it is on. *)
let planted_file = "lib/util/planted.ml"

let planted_source =
  String.concat "\n"
    [
      (* 1 *) "let first xs = List.hd xs";
      (* 2 *) "";
      (* 3 *) "let a = Mutex.create ()";
      (* 4 *) "let b = Mutex.create ()";
      (* 5 *) "let cell = ref 0";
      (* 6 *) "";
      (* 7 *) "let ab () = Mutex.lock a; Mutex.lock b; cell := 1; Mutex.unlock b; Mutex.unlock a";
      (* 8 *) "";
      (* 9 *) "let ba () = Mutex.lock b; Mutex.lock a; cell := 2; Mutex.unlock a; Mutex.unlock b";
      (* 10 *) "";
      (* 11 *) "let counter = Atomic.make 0";
      (* 12 *) "";
      (* 13 *) "let bump () = Atomic.set counter (Atomic.get counter + 1)";
      (* 14 *) "";
      (* 15 *) "let ratio x y = x /. y";
      (* 16 *) "";
      (* 17 *) "let coerce x = Obj.magic x";
      "";
    ]

(* A lock-order cycle is reported where its first lock is created. *)
let expected =
  [
    ("partial-reachable", 1);
    ("lock-order-cycle", 3);
    ("atomic-rmw", 13);
    ("div-unguarded", 15);
    ("obj-magic", 17);
  ]

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else begin
    let oc = open_out_bin dst in
    output_string oc (Check.Srclint.read_file src);
    close_out oc
  end

let rec remove_tree p =
  if Sys.is_directory p then begin
    Array.iter (fun e -> remove_tree (Filename.concat p e)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

(* "file:line[:col]" -> (file, line) *)
let location where =
  match String.split_on_char ':' where with
  | file :: line :: _ -> (file, int_of_string_opt line)
  | _ -> (where, None)

let check_clean corpus (r : Passes.round) =
  let prefix = corpus ^ "/" in
  List.iter
    (fun (f : Check.Finding.t) ->
      let file, _ = location f.where in
      check
        (String.length file > String.length prefix
        && String.sub file 0 (String.length prefix) = prefix
        && Sys.file_exists file)
        (fun () -> Printf.sprintf "analyze: finding outside the corpus: %s %s" f.rule f.where))
    r.findings

let check_planted cfg =
  let dir = Filename.concat cfg.scratch (Printf.sprintf "planted-%d" (Unix.getpid ())) in
  if Sys.file_exists dir then remove_tree dir;
  copy_tree cfg.corpus dir;
  Fun.protect
    ~finally:(fun () -> remove_tree dir)
    (fun () ->
      let path = Filename.concat dir planted_file in
      let oc = open_out_bin path in
      output_string oc planted_source;
      close_out oc;
      let r = Passes.passes (Passes.load dir) in
      List.iter
        (fun (rule, line) ->
          check
            (List.exists
               (fun (f : Check.Finding.t) -> f.rule = rule && location f.where = (path, Some line))
               r.findings)
            (fun () ->
              Printf.sprintf "analyze: planted %s at %s:%d was not reported" rule path line))
        expected)

let measure corpus ~seconds =
  let l = new_loop () in
  let last = ref None in
  let t0 = now_ns () in
  while l.ops = 0 || since_s t0 < seconds do
    let r, dt = op l (fun () -> span "analyze.pass_set" (fun () -> Passes.passes corpus)) in
    Samples.add l.lat dt;
    l.units <- l.units +. float_of_int corpus.Passes.lines;
    last := Some r
  done;
  (l, !last)

let run cfg =
  let setups = List.init 9 (fun _ -> snd (timed (fun () -> ignore (Passes.load cfg.corpus)))) in
  let corpus = Passes.load cfg.corpus in
  (* Warm-up pass set; its findings are the clean-corpus reference. *)
  check_clean cfg.corpus (Passes.passes corpus);
  let body ~seconds =
    let l, last = measure corpus ~seconds in
    ( l,
      fun () ->
        Option.iter (check_clean cfg.corpus) last;
        check_planted cfg )
  in
  Driver.in_process cfg ~name:"analyze" ~setup_s:(median_of setups) ~body
