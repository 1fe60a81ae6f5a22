(* Workload `serve`: respctld (GÉANT, one worker domain) in its own
   process, driven by this single-domain generator over two loopback
   connections. The query connection sends path queries — closed-loop for
   the throughput half of the run, at a fixed rate for the latency half —
   while the write connection keeps a paced stream of demand updates, link
   fail/repair events and reloads going for the whole run. *)

open Common

(* Path queries/s in the latency half: about a tenth of what one
   connection sustains closed-loop. *)
let fixed_rate = 10000.0

(* Pacing of the write stream. A Reload holds the single worker until its
   snapshot is live, so the gap keeps reads from queueing behind writes
   most of the time while every run still makes dozens of updates live. *)
let write_gap_s = 0.1

(* Queries in flight on the query connection in the closed-loop half:
   deep enough that throughput measures the request path, not how fast
   the host switches between the generator and the daemon. *)
let window = 64

(* respctld's default pair seed. *)
let daemon_seed = 7

(* ------------------------------ daemon ------------------------------ *)

type daemon = { pid : int; port : int; http_port : int }

let log_path cfg k =
  Filename.concat cfg.scratch (Printf.sprintf "respctld-%d-%d.log" (Unix.getpid ()) k)

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid)

let connect port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
  | () ->
      Unix.setsockopt fd Unix.TCP_NODELAY true;
      fd
  | exception e ->
      Unix.close fd;
      raise e

let ports_of_log path =
  match Check.Srclint.read_file path with
  | exception Sys_error _ -> None
  | text -> (
      match String.index_opt text '\n' with
      | None -> None
      | Some _ -> (
          try
            let i = find_sub text "127.0.0.1:" in
            Scanf.sscanf
              (String.sub text i (String.length text - i))
              "127.0.0.1:%d (metrics on :%d)"
              (fun p h -> Some (p, h))
          with Not_found | Scanf.Scan_failure _ | End_of_file -> None))

(* Launches respctld and returns once it has answered Health; the elapsed
   time is one set-up sample. *)
let launch cfg k =
  let log = log_path cfg k in
  let t0 = now_ns () in
  let out = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let args =
    [|
      cfg.daemon; "geant"; "--port"; "0"; "--http-port"; "0"; "--workers"; "1"; "--seed";
      string_of_int daemon_seed;
    |]
  in
  let pid = Unix.create_process cfg.daemon args Unix.stdin out Unix.stderr in
  Unix.close out;
  let deadline = 30.0 in
  let rec wait_ports () =
    match ports_of_log log with
    | Some p -> p
    | None ->
        if since_s t0 > deadline then begin
          stop_daemon { pid; port = 0; http_port = 0 };
          failwith "respctld did not start"
        end;
        Unix.sleepf 0.0005;
        wait_ports ()
  in
  let port, http_port = wait_ports () in
  let d = { pid; port; http_port } in
  let rec health () =
    match Serve.Client.connect ~port () with
    | Ok c -> (
        let r = Serve.Client.call ~timeout_s:5.0 c Serve.Wire.Health in
        Serve.Client.close c;
        match r with
        | Ok (Serve.Wire.Health_reply { healthy = true; _ }) -> ()
        | _ -> retry ())
    | Error _ -> retry ()
  and retry () =
    if since_s t0 > deadline then begin
      stop_daemon d;
      failwith "respctld did not answer Health"
    end;
    Unix.sleepf 0.0005;
    health ()
  in
  health ();
  let dt = since_s t0 in
  Sys.remove log;
  (d, dt)

(* --------------------------- in-process view --------------------------- *)

type env = {
  g : Topo.Graph.t;
  pairs : (int * int) array;
  installed : (int * int, int list list) Hashtbl.t;  (** node lists of each pair's paths *)
  fail_links : int array;  (** links every pair has an installed path around *)
  rng : Eutil.Prng.t;
}

(* The tables the daemon builds, rebuilt here from the same topology,
   pairs and configuration. *)
let env_of cfg =
  let g = Topo.Geant.make () in
  let power = Power.Model.cisco12000 g in
  let pairs = geant_pairs g ~seed:daemon_seed in
  let tables = Response.Framework.precompute ~config:Response.Framework.default g power ~pairs in
  let installed = Hashtbl.create 512 in
  List.iter
    (fun (e : Response.Tables.entry) ->
      Hashtbl.replace installed (e.origin, e.dest)
        (Array.to_list
           (Array.map (fun p -> Array.to_list (Topo.Path.nodes g p)) (Response.Tables.paths e))))
    (Response.Tables.entries tables);
  let survivable l =
    List.for_all
      (fun (e : Response.Tables.entry) ->
        Array.exists (fun p -> not (Topo.Path.uses_link g p l)) (Response.Tables.paths e))
      (Response.Tables.entries tables)
  in
  let fail_links =
    Array.of_list (List.filter survivable (List.init (Topo.Graph.link_count g) Fun.id))
  in
  if Array.length fail_links = 0 then failwith "no link can fail without cutting a pair";
  let rng = Eutil.Prng.create cfg.seed in
  let pairs = Array.of_list pairs in
  (* A seeded shuffle fixes the query order. *)
  for i = Array.length pairs - 1 downto 1 do
    let j = Eutil.Prng.int rng (i + 1) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t
  done;
  { g; pairs; installed; fail_links; rng }

let link_between g u v =
  Option.map (fun a -> (Topo.Graph.arc g a).Topo.Graph.link) (Topo.Graph.find_arc g u v)

(* A Path_ok reply must be a walk over GÉANT links from origin to
   destination, avoid every link known failed when the query was sent, and
   be one of the pair's installed paths. *)
let check_path env (o, d) avoid nodes =
  let rec walk = function
    | u :: (v :: _ as rest) -> (
        match link_between env.g u v with
        | None -> Error (Printf.sprintf "%d-%d is not a link" u v)
        | Some l when List.mem l avoid -> Error (Printf.sprintf "uses failed link %d" l)
        | Some _ -> walk rest)
    | _ -> Ok ()
  in
  let endpoints =
    match (nodes, List.rev nodes) with
    | first :: _, last :: _ -> first = o && last = d
    | _ -> false
  in
  let verdict =
    if not endpoints then Error "wrong endpoints"
    else
      match walk nodes with
      | Error e -> Error e
      | Ok () ->
          if List.mem nodes (Option.value (Hashtbl.find_opt env.installed (o, d)) ~default:[]) then
            Ok ()
          else Error "not an installed path"
  in
  match verdict with
  | Ok () -> ()
  | Error e -> fail (Printf.sprintf "serve: reply for %d->%d: %s" o d e)

(* ------------------------------ generator ----------------------------- *)

type conn = { fd : Unix.file_descr; mutable pending : string }

(* Writes the frames of [reqs] with one system call. *)
let send c reqs =
  let frame =
    span "serve.wire.encode" (fun () -> String.concat "" (List.map Serve.Wire.encode_request reqs))
  in
  let b = Bytes.unsafe_of_string frame in
  let rec go off =
    if off < Bytes.length b then go (off + Unix.write c.fd b off (Bytes.length b - off))
  in
  go 0

let chunk = Bytes.create 65536

(* Reads what is available and returns the complete replies, in order. *)
let receive c =
  let n = Unix.read c.fd chunk 0 (Bytes.length chunk) in
  if n = 0 then failwith "respctld closed the connection";
  let s = c.pending ^ Bytes.sub_string chunk 0 n in
  let rec go pos acc =
    match Serve.Wire.decode_response ~pos s with
    | Ok (r, next) -> go next (r :: acc)
    | Error Serve.Wire.Truncated ->
        c.pending <- String.sub s pos (String.length s - pos);
        List.rev acc
    | Error e -> failwith ("undecodable reply: " ^ Serve.Wire.error_to_string e)
  in
  span "serve.wire.decode" (fun () -> go 0 [])

type query = { q_sent : int64; q_pair : int * int; q_avoid : int list }

type gen = {
  env : env;
  q : conn;
  w : conn;
  outstanding : query Queue.t;
  mutable next_pair : int;
  (* write stream *)
  mutable step : int;
  mutable write_out : int option;  (** cycle step of the write in flight *)
  mutable next_write : int64;
  mutable failed_link : int option;  (** acked failure, repair not yet sent *)
  mutable fail_target : int;
  mutable update_sent : int64;
  mutable update_target : int;
  mutable last_reload : int;
  update_lat : Samples.t;
  late : Samples.t;  (** how late fixed-rate queries went out *)
  mutable writes : int;
  mutable failed : int;
}

let ns_of_s s = Int64.of_float (s *. 1e9)

let query g ~paced ~due =
  let pair = g.env.pairs.(g.next_pair) in
  g.next_pair <- (g.next_pair + 1) mod Array.length g.env.pairs;
  let avoid = Option.to_list g.failed_link in
  let sent = now_ns () in
  if paced then Samples.add g.late (Int64.to_float (Int64.sub sent due) *. 1e-9);
  Queue.add { q_sent = sent; q_pair = pair; q_avoid = avoid } g.outstanding;
  Serve.Wire.Path_query { origin = fst pair; dest = snd pair }

(* The write cycle: update, reload (the update is live), fail a link,
   update, reload, repair the link. *)
let send_write g =
  let now = now_ns () in
  let req =
    match g.step mod 6 with
    | 0 | 3 ->
        let o, d = g.env.pairs.(Eutil.Prng.int g.env.rng (Array.length g.env.pairs)) in
        g.update_sent <- now;
        let bps = 1e7 +. (4e8 *. Eutil.Prng.float g.env.rng) in
        Serve.Wire.Demand_update { origin = o; dest = d; bps }
    | 1 | 4 -> Serve.Wire.Reload
    | 2 ->
        g.fail_target <-
          g.env.fail_links.(Eutil.Prng.int g.env.rng (Array.length g.env.fail_links));
        Serve.Wire.Link_event { link = g.fail_target; up = false }
    | _ ->
        (* Once the repair is on the wire a query may or may not see it. *)
        g.failed_link <- None;
        Serve.Wire.Link_event { link = g.fail_target; up = true }
  in
  g.write_out <- Some (g.step mod 6);
  g.writes <- g.writes + 1;
  send g.w [ req ]

let on_write_reply g reply =
  let now = now_ns () in
  (match (g.write_out, reply) with
  | Some step, Serve.Wire.Ack { version } -> (
      match step with
      | 0 | 3 -> g.update_target <- version
      | 1 | 4 ->
          check (version > g.last_reload) (fun () ->
              Printf.sprintf "serve: reload acked version %d after %d" version g.last_reload);
          check (version >= g.update_target) (fun () ->
              Printf.sprintf "serve: reload version %d precedes the update's %d" version
                g.update_target);
          g.last_reload <- version;
          Samples.add g.update_lat (Int64.to_float (Int64.sub now g.update_sent) *. 1e-9)
      | 2 -> g.failed_link <- Some g.fail_target
      | _ -> ())
  | _, r ->
      g.failed <- g.failed + 1;
      prerr_endline
        ("serve: unexpected write reply: "
        ^ match r with Serve.Wire.Error_reply { message; _ } -> message | _ -> "not an ack"));
  (* A reload follows its update at once, so the update latency holds no
     pacing gap. *)
  let gap = match g.write_out with Some (0 | 3) -> 0L | _ -> ns_of_s write_gap_s in
  g.write_out <- None;
  g.step <- g.step + 1;
  g.next_write <- Int64.add now gap

let on_query_reply g l ~t0 ~at reply =
  let now = now_ns () in
  let q = Queue.pop g.outstanding in
  match reply with
  | Serve.Wire.Path_reply { status = Serve.Wire.Path_ok; nodes; _ } ->
      Samples.add l.lat (Int64.to_float (Int64.sub now q.q_sent) *. 1e-9);
      Samples.add at (Int64.to_float (Int64.sub now t0) *. 1e-9);
      l.units <- l.units +. 1.0;
      check_path g.env q.q_pair q.q_avoid nodes
  | _ ->
      l.failed <- l.failed + 1;
      prerr_endline "serve: query did not get a path"

(* One phase: closed loop ([rate = None], [window] queries in flight) or
   a fixed rate, for [seconds]. Ends with nothing in flight on either
   connection; returns the loop and each reply's time from the start. *)
let phase g ~rate ~seconds =
  let l = new_loop () in
  let at = Samples.create () in
  let t0 = now_ns () in
  let stop_at = Int64.add t0 (ns_of_s seconds) in
  let gap = match rate with Some r -> ns_of_s (1.0 /. r) | None -> 0L in
  let next_due = ref t0 in
  let draining = ref false in
  let idle () = Queue.is_empty g.outstanding && g.write_out = None in
  while not (!draining && idle ()) do
    let now = now_ns () in
    if now >= stop_at then draining := true;
    if !draining && idle () then ()
    else if not !draining then begin
      let batch = ref [] in
      (match rate with
      | None ->
          for _ = Queue.length g.outstanding + 1 to window do
            l.ops <- l.ops + 1;
            batch := query g ~paced:false ~due:now :: !batch
          done
      | Some _ ->
          while !next_due <= now do
            l.ops <- l.ops + 1;
            batch := query g ~paced:true ~due:!next_due :: !batch;
            next_due := Int64.add !next_due gap
          done);
      if !batch <> [] then send g.q (List.rev !batch);
      if g.write_out = None && now >= g.next_write then send_write g
    end;
    (* Sleep in select until the next send is due or a reply arrives. *)
    let wake =
      List.fold_left min stop_at
        ((if rate <> None then [ !next_due ] else [])
        @ if g.write_out = None then [ g.next_write ] else [])
    in
    let timeout =
      if !draining then 1.0
      else Float.max 0.0 ((Int64.to_float (Int64.sub wake (now_ns ())) *. 1e-9))
    in
    let ready, _, _ =
      if !draining && idle () then ([], [], []) else Unix.select [ g.q.fd; g.w.fd ] [] [] timeout
    in
    if ready = [] && !draining && not (idle ()) then
      failwith
        (Printf.sprintf "respctld stopped answering (%d queries and %d writes in flight)"
           (Queue.length g.outstanding) (if g.write_out = None then 0 else 1));
    List.iter
      (fun fd ->
        if fd == g.q.fd then
          let replies = receive g.q in
          span "serve.check" (fun () -> List.iter (on_query_reply g l ~t0 ~at) replies)
        else List.iter (on_write_reply g) (receive g.w))
      ready
  done;
  (l, at)

(* ----------------------------- daemon metrics ---------------------------- *)

let scrape d =
  match Serve.Client.http_get ~port:d.http_port ~path:"/metrics" () with
  | Ok body -> String.split_on_char '\n' body
  | Error e -> failwith ("metrics scrape failed: " ^ e)

(* Sum of a metric's samples (every label set) on a Prometheus page. *)
let counter lines name =
  List.fold_left
    (fun acc line ->
      match String.split_on_char ' ' line with
      | [ key; v ] when line.[0] <> '#' ->
          let base =
            match String.index_opt key '{' with Some i -> String.sub key 0 i | None -> key
          in
          if base = name then acc +. float_of_string v else acc
      | _ -> acc)
    0.0 lines

(* ------------------------------- the run -------------------------------- *)

let new_gen env d =
  {
    env;
    q = { fd = connect d.port; pending = "" };
    w = { fd = connect d.port; pending = "" };
    outstanding = Queue.create ();
    next_pair = 0;
    step = 0;
    write_out = None;
    next_write = now_ns ();
    failed_link = None;
    fail_target = 0;
    update_sent = 0L;
    update_target = 0;
    last_reload = 0;
    update_lat = Samples.create ();
    late = Samples.create ();
    writes = 0;
    failed = 0;
  }

(* Runs the measurement against daemon [d]; returns what is left to do
   once the daemon is stopped. *)
let drive cfg d ~setup_s =
  let env = env_of cfg in
  let g = new_gen env d in
  Fun.protect
    ~finally:(fun () ->
      Unix.close g.q.fd;
      Unix.close g.w.fd)
    (fun () ->
      (* Warm-up: half a second of each half, untimed. *)
      ignore (phase g ~rate:None ~seconds:0.5);
      ignore (phase g ~rate:(Some fixed_rate) ~seconds:0.5);
      let writes0 = g.writes and wfailed0 = g.failed in
      let measure ~seconds =
        let closed = phase g ~rate:None ~seconds:(seconds /. 2.0) in
        let paced = phase g ~rate:(Some fixed_rate) ~seconds:(seconds /. 2.0) in
        (closed, paced)
      in
      let rss () = peak_rss_mb (string_of_int d.pid) in
      (* Throughput from the closed-loop half, latency from the fixed-rate
         half, each the median over half-second windows. *)
      let report title ((closed, closed_at), (paced, paced_at)) =
        let windows l at stat = slice_median ~slice:0.5 ~at ~lat:l.lat stat in
        let ms =
          Driver.end_to_end ~setup_s
            ~throughput:(windows closed closed_at (fun s -> float_of_int (Samples.count s) /. 0.5))
            ~p50:(windows paced paced_at Samples.median)
            ~p90:(windows paced paced_at (fun s -> Samples.percentile s 0.9))
            ~rss:(rss ())
        in
        print_metrics title ms;
        Printf.printf "  %-34s %14.6g us (p90 %.6g us, %d in flight)\n" "closed_loop_p50_us"
          (Samples.median closed.lat *. 1e6)
          (Samples.percentile closed.lat 0.9 *. 1e6)
          window;
        Printf.printf "  %-34s %14.6g us (%d updates made live)\n" "update_latency_p50_us"
          (Samples.median g.update_lat *. 1e6)
          (Samples.count g.update_lat);
        Printf.printf "  %-34s %14.6g us (p90 %.6g us)\n" "generator_late_p50_us"
          (Samples.median g.late *. 1e6)
          (Samples.percentile g.late 0.9 *. 1e6);
        ms
      in
      let queries (((c : loop), _), ((p : loop), _)) = c.ops + p.ops in
      let qfailed (((c : loop), _), ((p : loop), _)) = c.failed + p.failed in
      if not cfg.trace then begin
        let m = measure ~seconds:cfg.seconds in
        let ms =
          report (Printf.sprintf "serve: %d queries, %d writes" (queries m) (g.writes - writes0)) m
        in
        let attempted = queries m + g.writes - writes0 in
        let failed = qfailed m + g.failed - wfailed0 in
        fun () -> Driver.finish ~attempted ~failed ms
      end
      else begin
        let half = cfg.seconds /. 2.0 in
        let mu = measure ~seconds:half in
        ignore (report "end-to-end, untraced half:" mu);
        let before = scrape d in
        let writes1 = g.writes in
        Trace.on := true;
        let majors0 = (Gc.quick_stat ()).Gc.major_collections in
        let w0 = Gc.minor_words () in
        let mt = measure ~seconds:half in
        let words = Gc.minor_words () -. w0 in
        let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
        Trace.on := false;
        ignore (report "end-to-end, traced half:" mt);
        let after = scrape d in
        let ops = float_of_int (max 1 (queries mt + g.writes - writes1)) in
        let delta name = counter after name -. counter before name in
        let counters =
          [
            ("routing.dijkstra_runs", delta "routing_dijkstra_runs_total" /. ops);
            ("routing.heap_pops", delta "routing_heap_pops_total" /. ops);
            ("te.probes", delta "te_probes_total" /. ops);
            ("netsim.fallback_routes", 0.0);
            ("runtime.minor_words_per_op", words /. ops);
            ("runtime.major_collections", float_of_int majors);
            ( "trace.overhead_pct",
              Driver.overhead_pct
                ~untraced:(Samples.median (fst (snd mu)).lat)
                ~traced:(Samples.median (fst (snd mt)).lat) );
            ( "serve.recompute_s",
              delta "serve_recompute_seconds_sum"
              /. Float.max 1.0 (delta "serve_recompute_seconds_count") );
            ("serve.swaps", delta "serve_snapshot_swaps_total");
          ]
        in
        let attempted = queries mu + queries mt + g.writes - writes0 in
        let failed = qfailed mu + qfailed mt + g.failed - wfailed0 in
        fun () ->
          (* The daemon's figures win over the in-process probe's for the
             two serve metrics read from its /metrics page. *)
          let probes =
            List.filter (fun (n, _) -> not (List.mem_assoc n counters)) (Probes.run cfg)
          in
          Driver.finish_traced cfg ~name:"serve" ~attempted ~failed (counters @ probes)
      end)


let run cfg =
  (* Seven cold launches, one at a time; the last daemon is measured. *)
  let launches =
    List.init 7 (fun k ->
        let d, dt = launch cfg k in
        if k < 6 then stop_daemon d;
        (d, dt))
  in
  let d = fst (List.nth launches 6) in
  let setup_s = median_of (List.map snd launches) in
  (* The daemon is stopped before the result is printed (and before the
     in-process probes of a traced run). *)
  let finish =
    Fun.protect
      ~finally:(fun () -> stop_daemon d)
      (fun () -> drive cfg d ~setup_s)
  in
  finish ()
