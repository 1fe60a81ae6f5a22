(* Shared plumbing of the benchmark: the monotonic clock, sample sets and
   percentiles, correctness bookkeeping, in-memory trace spans, process
   statistics, and the result line. *)

(* ------------------------------ clock ------------------------------ *)

let now_ns () = Monotonic_clock.now ()
let since_s t0 = Int64.to_float (Int64.sub (now_ns ()) t0) *. 1e-9

let timed f =
  let t0 = now_ns () in
  let r = f () in
  (r, since_s t0)

(* ----------------------------- samples ----------------------------- *)

module Samples = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.0; n = 0 }

  let add t x =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0.0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n
  let sum t = Array.fold_left ( +. ) 0.0 (Array.sub t.a 0 t.n)

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort Float.compare s;
    s

  (* Nearest-rank percentile; [p] in (0, 1]. *)
  let percentile t p =
    let s = sorted t in
    let n = Array.length s in
    if n = 0 then nan
    else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

  let median t = percentile t 0.5
end

let median_of xs =
  let s = Samples.create () in
  List.iter (Samples.add s) xs;
  Samples.median s

(* ------------------------ correctness checks ----------------------- *)

(* Every violated property is kept (the first few are printed); any one
   makes the run incorrect and the process exit non-zero. *)
let violations = ref 0

let fail msg =
  incr violations;
  if !violations <= 20 then prerr_endline ("check failed: " ^ msg)

let check cond msg = if not cond then fail (msg ())
let close_rel ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.abs b)

(* ---------------------------- trace spans --------------------------- *)

(* Spans live in memory while the traced run executes and are written out
   when it ends; a span's self time is its duration minus its children's. *)
module Trace = struct
  type span = { name : string; start : int64; mutable stop : int64; parent : int }

  let on = ref false
  let spans : span array ref = ref [||]
  let count = ref 0
  let stack = ref []

  let push s =
    if !count = Array.length !spans then begin
      let b = Array.make (max 1024 (2 * !count)) s in
      Array.blit !spans 0 b 0 !count;
      spans := b
    end;
    !spans.(!count) <- s;
    incr count;
    !count - 1

  let span name f =
    if not !on then f ()
    else begin
      let parent = match !stack with p :: _ -> p | [] -> -1 in
      let id = push { name; start = now_ns (); stop = 0L; parent } in
      stack := id :: !stack;
      Fun.protect
        ~finally:(fun () ->
          !spans.(id).stop <- now_ns ();
          stack := List.tl !stack)
        f
    end

  let dur s = Int64.to_float (Int64.sub s.stop s.start) *. 1e-9

  (* (name, self seconds, calls), largest self time first. *)
  let self_times () =
    let child = Array.make !count 0.0 in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. dur s
    done;
    let tbl = Hashtbl.create 16 in
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      let self, n = Option.value (Hashtbl.find_opt tbl s.name) ~default:(0.0, 0) in
      Hashtbl.replace tbl s.name (self +. dur s -. child.(i), n + 1)
    done;
    Hashtbl.fold (fun k (s, n) acc -> (k, s, n) :: acc) tbl []
    |> List.sort (fun (a, x, _) (b, y, _) ->
           match Float.compare y x with 0 -> String.compare a b | c -> c)

  let write path =
    let oc = open_out path in
    output_string oc "[\n";
    for i = 0 to !count - 1 do
      let s = !spans.(i) in
      Printf.fprintf oc "%s{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d}\n"
        (if i = 0 then "" else ",")
        i s.name s.start s.stop s.parent
    done;
    output_string oc "]\n";
    close_out oc
end

let span = Trace.span

(* ------------------------- process statistics ----------------------- *)

(* Peak resident set (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %f" (fun kb -> kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) scan

(* Sum of every sample of a registry counter family (all label sets). *)
let obs_total name =
  List.fold_left
    (fun acc (s : Obs.Registry.sample) ->
      if s.name <> name then acc
      else match s.value with Obs.Registry.Counter_v v -> acc +. v | _ -> acc)
    0.0
    (Obs.Registry.snapshot Obs.Registry.default)

(* --------------------------- configuration -------------------------- *)

type config = {
  seed : int;
  seconds : float;
  trace : bool;
  quick : bool;  (** tiny inputs: every check, seconds of work *)
  daemon : string;  (** path to respctld.exe *)
  corpus : string;  (** frozen analyzer corpus *)
  scratch : string;  (** writable directory inside the checkout *)
}

(* What one measured loop produced: per-operation latencies (seconds) and
   the work they stand for. *)
type loop = {
  lat : Samples.t;
  mutable ops : int;
  mutable failed : int;
  mutable units : float;  (** work done: operations, or source lines for analyze *)
  mutable words : float;  (** minor words allocated inside timed operations (traced) *)
  mutable fallbacks : int;  (** netsim fallback routes computed (chaos) *)
}

let new_loop () =
  { lat = Samples.create (); ops = 0; failed = 0; units = 0.0; words = 0.0; fallbacks = 0 }

(* Times one operation; in a traced run also counts its minor-heap
   allocation. The caller records the latency of operations that did not
   fail. *)
let op l f =
  l.ops <- l.ops + 1;
  let w0 = if !Trace.on then Gc.minor_words () else 0.0 in
  let r, dt = timed f in
  if !Trace.on then l.words <- l.words +. (Gc.minor_words () -. w0);
  (r, dt)

(* Median, over the whole [slice]-second windows of a run, of [stat]
   applied to each window's samples; [at] holds each sample's time from
   the start of the run. A transient stall of the host then moves one
   window, not the reported figure. *)
let slice_median ~slice ~at ~lat stat =
  let n = Samples.count at in
  let windows = if n = 0 then 0 else int_of_float (at.Samples.a.(n - 1) /. slice) in
  if windows = 0 then stat lat
  else begin
    let per = Array.init windows (fun _ -> Samples.create ()) in
    for i = 0 to n - 1 do
      let w = int_of_float (at.Samples.a.(i) /. slice) in
      if w < windows then Samples.add per.(w) lat.Samples.a.(i)
    done;
    median_of (Array.to_list (Array.map stat per))
  end

(* Median, over consecutive groups of [size] samples (a trailing partial
   group is left out), of [stat] applied to each group. *)
let group_median ~size lat stat =
  let n = Samples.count lat / size in
  if n = 0 then stat lat
  else
    median_of
      (List.init n (fun g ->
           let s = Samples.create () in
           for i = g * size to ((g + 1) * size) - 1 do
             Samples.add s lat.Samples.a.(i)
           done;
           stat s))

(* ------------------------------ output ------------------------------ *)

type metric = string * float * string

let json_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "null"

let print_metrics title (ms : metric list) =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-34s %14.6g %s\n" n v u) ms

let result_line ~correct ~attempted ~failed (ms : metric list) =
  let body =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_float v) u)
      ms
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* ------------------------------ inputs ------------------------------ *)

(* GÉANT origin/destination pairs: 70% of the nodes, all ordered pairs
   among them, drawn with a fixed seed as the paper's figures do (24 for
   the Fig. 1b/2 replay, 7 for the chaos runs and respctld's default), so
   a run's seed varies the traffic, faults and requests, not the size of
   the problem. *)
let geant_pairs g ~seed = Traffic.Gravity.random_node_pairs g ~seed ~fraction:0.7

(* The chaos trials: every trial simulates the same duration under seeded
   independent link faults and node (chassis) faults. Node outages last
   long enough (2 s mean) for TE's panic ladder to reach the fallback
   Dijkstra within a trial. Trial [k] uses seed [seed + k]. *)
let chaos_spec ~seed ~quick =
  {
    Fault.Scenario.default with
    Fault.Scenario.seed;
    duration = (if quick then 0.5 else 2.0);
    link_faults = Some { Fault.Scenario.mtbf = 3.0; mttr = 0.5 };
    node_faults = Some { Fault.Scenario.mtbf = 8.0; mttr = 2.0 };
  }

(* Index of the first occurrence of [sub] in [s]. @raise Not_found *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then raise Not_found
    else if String.sub s i m = sub then i
    else go (i + 1)
  in
  go 0
