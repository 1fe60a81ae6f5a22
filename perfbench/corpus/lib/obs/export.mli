(** Exporters: render a registry snapshot for humans (text), machines
    (JSON), or a Prometheus scrape endpoint (text exposition format). All
    three take the same [Registry.sample list] from {!Registry.snapshot},
    so they can be applied to any registry at any time.

    Output is canonical: every exporter first sorts the samples by
    (name, labels), so the bytes depend only on the sample set, never on
    registration or hash-table insertion order — the property the golden
    diffs and the [nondet-export] analysis rule (DESIGN.md §10) lean on. *)

val to_text : Registry.sample list -> string
(** Human-oriented table: one line per metric, histograms summarised as
    count/sum/min/quantiles/max. *)

val to_json : Registry.sample list -> string
(** One JSON document: [{"metrics": [{"name": ..., "kind": ..., "help":
    ..., "labels": {...}, "value": ...}]}]. Histogram values are objects
    with count/sum/min/max/p50/p90/p99. Non-finite numbers render as
    [null] (JSON has no Inf/NaN). *)

val to_prometheus : Registry.sample list -> string
(** Prometheus text exposition format: [# HELP]/[# TYPE] headers once per
    metric name, histograms as cumulative [_bucket{le=...}] series plus
    [_sum] and [_count]. *)

val json_escape : string -> string
(** Escape a string for inclusion inside JSON double quotes (without the
    quotes themselves). *)

val validate_json : string -> (unit, string) result
(** Strict RFC 8259 well-formedness check (objects, arrays, strings with
    escapes, numbers, literals; the whole input must be one value).
    [Error msg] carries a byte offset. Used by [respctl stats --validate]
    and the exporter tests to prove the JSON export parses. *)

val prometheus_page : ?registry:Registry.t -> unit -> string
(** [to_prometheus] of a fresh snapshot of [registry] (default
    {!Registry.default}): the single rendering used by both the
    [respctl stats --metrics prom] CLI and respctld's [GET /metrics]
    scrape endpoint, so their bytes are identical by construction. *)
