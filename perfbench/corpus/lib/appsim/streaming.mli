(** Media-streaming workload over REsPoNse paths — the BulletMedia experiment
    of Section 5.4: a source streams at a fixed bitrate to a set of clients;
    a media block is playable when it arrives before its play-out deadline.
    The paper reports the distribution, across clients, of the percentage of
    playable blocks (Figure 9) and the mean block retrieval latency. *)

type client = { node : int; join_time : float }

type scenario = {
  source : int;
  bitrate : float;  (** bit/s per client, e.g. 600 kbit/s *)
  block_duration : float;  (** seconds of media per block *)
  startup_buffer : float;  (** play-out delay after joining *)
  clients : client list;
  duration : float;
}

type client_stats = {
  node : int;
  join_time : float;
  playable_percent : float;  (** blocks arriving before their deadline *)
  mean_block_latency : float;  (** mean send-to-arrival time, seconds *)
}

type summary = {
  per_client : client_stats list;
  playable : Eutil.Stats.boxplot;  (** distribution across clients (Figure 9) *)
  mean_block_latency : float;
  mean_power_percent : float;
}

val run :
  ?config:Netsim.Sim.config ->
  tables:Response.Tables.t ->
  power:Power.Model.t ->
  scenario ->
  summary
(** Drives {!Netsim.Sim} with demand steps at every join time and evaluates
    block deadlines from the achieved per-pair rates. *)
