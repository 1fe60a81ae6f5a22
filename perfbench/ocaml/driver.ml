(* Turns measured loops into the result line: the end-to-end metrics of an
   untraced run, or the per-layer metrics of a traced one. *)

open Common

(* Per-layer metrics in the order BENCHMARK.json lists them. *)
let layer_units =
  [
    ("routing.dijkstra_runs", "count");
    ("routing.heap_pops", "count");
    ("routing.shortest_path_us", "us");
    ("optim.power_down_us", "us");
    ("optim.route_matrix_us", "us");
    ("traffic.synth_ms", "ms");
    ("response.precompute_ms", "ms");
    ("response.evaluate_ms", "ms");
    ("te.probes", "count");
    ("netsim.run_us", "us");
    ("netsim.us_per_event", "us");
    ("netsim.fallback_routes", "count");
    ("fault.schedule_us", "us");
    ("fault.harness_overhead_us", "us");
    ("serve.wire.encode_ns", "ns");
    ("serve.wire.decode_ns", "ns");
    ("serve.guard.admit_ns", "ns");
    ("serve.server.handle_request_ns", "ns");
    ("serve.state.resolve_ns", "ns");
    ("serve.state.create_ms", "ms");
    ("serve.recompute_s", "s");
    ("serve.swaps", "count");
    ("obs.clock_ns", "ns");
    ("obs.histogram_observe_ns", "ns");
    ("check.lint_ms", "ms");
    ("check.flow_ms", "ms");
    ("check.callgraph_ms", "ms");
    ("check.effect_ms", "ms");
    ("check.share_ms", "ms");
    ("check.cost_ms", "ms");
    ("check.locks_ms", "ms");
    ("check.doc_ms", "ms");
    ("check.callgraph_defs", "count");
    ("check.callgraph_edges", "count");
    ("runtime.minor_words_per_op", "count");
    ("runtime.major_collections", "count");
    ("trace.overhead_pct", "%");
  ]

let end_to_end ~setup_s ~throughput ~p50 ~p90 ~rss : metric list =
  [
    ("setup_s", setup_s, "s");
    ("throughput_per_s", throughput, "1/s");
    ("latency_p50_us", p50 *. 1e6, "us");
    ("latency_p90_us", p90 *. 1e6, "us");
    ("peak_rss_mb", rss, "MB");
  ]

(* A sequential loop's figures: work units over busy time, and the
   percentiles of its operations' latencies. With [group], each figure is
   the median over consecutive groups of that many operations, so that a
   stall of the host moves one group, not the figure. *)
let of_loop ?group ~setup_s ~rss l =
  let stat f = match group with None -> f l.lat | Some size -> group_median ~size l.lat f in
  let per_op = l.units /. float_of_int (max 1 (Samples.count l.lat)) in
  end_to_end ~setup_s
    ~throughput:(stat (fun s -> per_op *. float_of_int (Samples.count s) /. Samples.sum s))
    ~p50:(stat Samples.median)
    ~p90:(stat (fun s -> Samples.percentile s 0.9))
    ~rss

let finish ~attempted ~failed ms =
  let correct = !violations = 0 in
  result_line ~correct ~attempted ~failed ms;
  exit (if correct then 0 else 1)

(* The traced run's result: workload counters and probe figures, looked up
   by name so that a missing metric is a benchmark bug, not a silent 0. *)
let finish_traced cfg ~name ~attempted ~failed (found : (string * float) list) =
  let path = Filename.concat cfg.scratch (Printf.sprintf "trace-%s-%d.json" name cfg.seed) in
  Trace.write path;
  Printf.printf "self time by span over the traced loop (spans in %s):\n" path;
  List.iter
    (fun (n, s, calls) -> Printf.printf "  %-34s %10.3f ms  %8d calls\n" n (s *. 1e3) calls)
    (Trace.self_times ());
  let ms =
    List.map
      (fun (n, u) ->
        match List.assoc_opt n found with
        | Some v -> (n, v, u)
        | None -> failwith ("per-layer metric not measured: " ^ n))
      layer_units
  in
  print_metrics "per-layer metrics:" ms;
  finish ~attempted ~failed ms

let overhead_pct ~untraced ~traced = 100.0 *. ((traced /. untraced) -. 1.0)

(* In-process workloads (replay, chaos, analyze). [body ~seconds] runs the
   timed loop and returns it with the checks that run after timing. A
   traced run measures half its time untraced and half traced, so the
   tracing overhead is measured inside one process. *)
let in_process ?group cfg ~name ~setup_s ~body =
  let run_checked ~seconds =
    let l, verify = body ~seconds in
    verify ();
    l
  in
  if not cfg.trace then begin
    let l = run_checked ~seconds:cfg.seconds in
    let ms = of_loop ?group ~setup_s ~rss:(peak_rss_mb "self") l in
    print_metrics (Printf.sprintf "%s: %d ops, %d failed" name l.ops l.failed) ms;
    finish ~attempted:l.ops ~failed:l.failed ms
  end
  else begin
    let half = cfg.seconds /. 2.0 in
    let lu = run_checked ~seconds:half in
    Obs.set_enabled true;
    Obs.Registry.reset Obs.Registry.default;
    let majors0 = (Gc.quick_stat ()).Gc.major_collections in
    Trace.on := true;
    let lt, verify = body ~seconds:half in
    Trace.on := false;
    let majors = (Gc.quick_stat ()).Gc.major_collections - majors0 in
    let per_op name = obs_total name /. float_of_int (max 1 lt.ops) in
    let counters =
      [
        ("routing.dijkstra_runs", per_op "routing_dijkstra_runs_total");
        ("routing.heap_pops", per_op "routing_heap_pops_total");
        ("te.probes", per_op "te_probes_total");
        ("netsim.fallback_routes", float_of_int lt.fallbacks /. float_of_int (max 1 lt.ops));
        ("runtime.minor_words_per_op", lt.words /. float_of_int (max 1 lt.ops));
        ("runtime.major_collections", float_of_int majors);
        ( "trace.overhead_pct",
          overhead_pct ~untraced:(Samples.median lu.lat) ~traced:(Samples.median lt.lat) );
      ]
    in
    verify ();
    let rss = peak_rss_mb "self" in
    print_metrics "end-to-end, untraced half:" (of_loop ?group ~setup_s ~rss lu);
    print_metrics "end-to-end, traced half:" (of_loop ?group ~setup_s ~rss lt);
    let probes = Probes.run cfg in
    finish_traced cfg ~name ~attempted:(lu.ops + lt.ops) ~failed:(lu.failed + lt.failed)
      (counters @ probes)
  end
