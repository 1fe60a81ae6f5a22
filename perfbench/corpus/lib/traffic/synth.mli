(** Synthetic trace generators replacing the paper's proprietary datasets
    (see DESIGN.md, Substitutions). Both are fully deterministic from the
    seed. *)

val geant_like :
  Topo.Graph.t ->
  ?seed:int ->
  ?days:int ->
  ?interval:Eutil.Units.seconds Eutil.Units.q ->
  ?mean_utilisation:Eutil.Units.ratio Eutil.Units.q ->
  ?noise_sigma:float ->
  ?pairs:(int * int) list ->
  unit ->
  Trace.t
(** GEANT-dataset stand-in: a [days]-day (default 15) series of traffic
    matrices at [interval] (default 900 s = 15 min). The aggregate volume
    follows a diurnal curve (night trough, afternoon peak) with a weekend dip;
    per-OD demands follow gravity shares modulated by lognormal noise of the
    given sigma (default 0.3) and by a slow per-OD random walk, so that demand
    proportions — and hence minimal network subsets — shift during busy hours
    but settle at night. [mean_utilisation] (default 0.05) scales the mean
    aggregate volume relative to the sum of link capacities.
    @raise Invalid_argument on a non-positive interval or a zero-capacity
    topology — both would otherwise corrupt the trace silently. *)

val google_dc_like :
  n:int ->
  pairs:(int * int) list ->
  ?seed:int ->
  ?days:int ->
  ?interval:Eutil.Units.seconds Eutil.Units.q ->
  ?peak:Eutil.Units.bps Eutil.Units.q ->
  unit ->
  Trace.t
(** Google-datacenter stand-in: [days]-day (default 8) 5-minute series over
    the given host pairs, volumes in [0, peak] (default 1 Gbit/s per flow).
    Each flow follows a mean-reverting multiplicative random walk around a
    diurnal target, calibrated so that roughly half of the 5-minute intervals
    see a >= 20 % change in a node's outgoing traffic — the headline statistic
    of the paper's Figure 1a.
    @raise Invalid_argument on a non-positive interval. *)
