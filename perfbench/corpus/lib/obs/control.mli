(** Master switch for the observability subsystem.

    Every mutation in {!Metric} and every span in {!Span} is gated on this
    flag, so an instrumented hot path costs one load-and-branch when
    observability is off. The flag starts from the [RESPONSE_OBS]
    environment variable ([RESPONSE_OBS=1] enables collection at startup);
    front ends such as [respctl stats] or [bench --json] flip it
    programmatically. *)

val enabled : unit -> bool
(** Current state of the switch. *)

val set_enabled : bool -> unit
(** Turn collection on or off at runtime. Metrics registered while the
    switch was off exist (with zero values); turning the switch on simply
    resumes recording into them. *)
