(** Sine-wave demand for datacenter experiments, mimicking the diurnal
    variation used by ElasticTree and by the paper's Figures 4 and 8b: each
    flow takes a value in [0, peak] following a sine wave. *)

type locality =
  | Near  (** servers communicate only with servers in the same pod *)
  | Far  (** servers communicate mostly across pods, through the core *)

val fattree_pairs : Topo.Fattree.t -> locality -> (int * int) list
(** One flow per host: to the next host of the same pod ([Near]) or to the
    host half the datacenter away ([Far]). *)

val demand_at :
  peak:Eutil.Units.bps Eutil.Units.q ->
  period:Eutil.Units.seconds Eutil.Units.q ->
  float ->
  Eutil.Units.bps Eutil.Units.q
(** [demand_at ~peak ~period t] is [peak * (1 - cos (2 pi t / period)) / 2]:
    0 at t = 0, [peak] at half period.
    @raise Invalid_argument on a non-positive period. *)

val fattree :
  Topo.Fattree.t ->
  locality ->
  peak:Eutil.Units.bps Eutil.Units.q ->
  period:Eutil.Units.seconds Eutil.Units.q ->
  float ->
  Matrix.t
(** Full traffic matrix at time [t]. *)
