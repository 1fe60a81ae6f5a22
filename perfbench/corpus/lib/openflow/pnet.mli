(** Packet-level micro-simulator over OpenFlow tables — the second data plane
    of the paper's Section 5.3 (its Click testbed forwarded real packets; its
    OpenFlow implementation is "less mature"). Packets experience store-and-
    forward serialisation, propagation delay, finite FIFO buffers (drops) and
    per-entry counter accounting. Used to cross-validate the fluid model of
    {!Netsim.Sim}: steady-state rates agree, and packet-level artefacts
    (queueing latency, loss under overload) become visible. *)

type config = {
  packet_size : int;  (** bytes *)
  buffer_packets : int;  (** per-arc FIFO capacity *)
}

val default_config : config
(** 1250-byte packets, 64-packet buffers. *)

type flow_stats = {
  origin : int;
  dest : int;
  offered : int;  (** packets injected *)
  delivered : int;
  dropped : int;
  mean_latency : float;  (** seconds, delivered packets *)
}

type result = {
  flows : flow_stats list;
  delivered_fraction : float;
  arc_bytes : float array;  (** forwarded volume per arc *)
}

val run :
  ?config:config ->
  Controller.t ->
  flows:(int * int * float) list ->
  duration:float ->
  result
(** Injects constant-bit-rate packet streams (one per (origin, dest, bit/s)
    triple; each stream uses its index as select key) and forwards them
    through the programmed tables. The controller must have been
    {!Controller.program}med.
    @raise Invalid_argument if [flows] is empty or the configured packet
    size is not positive. *)
