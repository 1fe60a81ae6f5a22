(** Web workload over chosen network paths — the Apache/httperf experiment of
    Section 5.4: one stub node serves static files whose sizes follow the
    SPECweb2005 online-banking distribution; the other stub nodes fetch them.
    The paper compares web retrieval latency over OSPF-InvCap paths with
    REsPoNse-lat paths (reporting a ~9 % increase). *)

type config = {
  n_files : int;  (** catalogue size (paper: 100 static files) *)
  median_size : float;  (** bytes; sizes are lognormal around this *)
  sigma : float;  (** lognormal shape *)
  requests : int;  (** total requests across all clients *)
  server_time : float;  (** per-request server processing, seconds *)
  seed : int;
}

val default : config

type result = {
  mean_latency : float;
  p95_latency : float;
  latencies : float array;  (** per request, seconds *)
}

val file_sizes : config -> float array
(** The deterministic catalogue for a configuration. *)

val run :
  Topo.Graph.t ->
  path_of:(int -> Topo.Path.t option) ->
  background_util:(int -> float) ->
  clients:int list ->
  config ->
  result
(** [path_of client] is the routing in force (e.g. the always-on table or the
    InvCap path); [background_util arc] the utilisation other traffic imposes.
    Retrieval latency = 2 RTTs (TCP handshake + request) + server time +
    transfer at the path's residual bottleneck bandwidth.
    @raise Invalid_argument if [clients] is empty. *)

val compare_latency : baseline:result -> treatment:result -> float
(** Relative mean-latency increase of [treatment] over [baseline], in
    percent. *)
