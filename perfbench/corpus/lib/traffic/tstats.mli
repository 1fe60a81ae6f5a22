(** Trace statistics backing the traffic analysis of Section 3. *)

val out_traffic : Matrix.t -> float array
(** Per-node outgoing volume. *)

val out_traffic_changes : Trace.t -> float array
(** Relative change, in percent, of each node's outgoing traffic between
    consecutive intervals — the quantity whose CCDF is the paper's Figure 1a
    ("traffic deviation in 5-min period (out)"). Nodes with no outgoing
    traffic in the earlier interval are skipped. *)

val change_ccdf : Trace.t -> thresholds:float list -> (float * float) list
(** CCDF of {!out_traffic_changes} at the given percentage thresholds:
    [(threshold, percent of samples >= threshold)]. *)

val fraction_changing_by : Trace.t -> float -> float
(** Fraction (0..1) of samples changing by at least the given percentage —
    e.g. the paper's "in almost 50 % of cases the traffic changes by at least
    20 % over a 5-min interval". *)
