(** Metric registry: the directory of every instrument in the process.

    Instruments ({!Metric}) register a collector at creation time; a
    snapshot walks the collectors in creation order and freezes their
    current values into plain data that the exporters ({!Export}) render.
    The registry itself never touches the hot path — reads happen only when
    somebody asks for a snapshot. *)

type kind = Counter | Gauge | Histogram

type histogram_snapshot = {
  count : int;  (** Number of observations. *)
  sum : float;  (** Sum of observations. *)
  min : float;  (** Smallest observation; 0 when empty. *)
  max : float;  (** Largest observation; 0 when empty. *)
  quantiles : (float * float) list;
      (** [(q, estimate)] for q in {0.5, 0.9, 0.99}, estimated from the
          log-linear buckets (relative error bounded by the bucket width,
          ~3%). *)
  buckets : (float * int) list;
      (** Cumulative counts by upper bound, Prometheus [le] semantics:
          [(ub, n)] means [n] observations were [<= ub]. Only the occupied
          buckets appear; the total count is the [+Inf] bucket. *)
}

type value =
  | Counter_v of float
  | Gauge_v of float
  | Histogram_v of histogram_snapshot

type collector = {
  c_name : string;
  c_help : string;
  c_labels : (string * string) list;
  c_kind : kind;
  collect : unit -> value;
  reset : unit -> unit;
}

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  kind : kind;
  value : value;
}

type t

val create : unit -> t
(** Fresh empty registry (tests; isolated subsystems). *)

val default : t
(** The process-wide registry every instrument uses unless told
    otherwise. *)

val register : t -> collector -> unit
(** Adds a collector.
    @raise Invalid_argument on an invalid metric or label name (names must
    match [[a-zA-Z_][a-zA-Z0-9_]*]), on a duplicate (name, labels) pair, or
    when the name is already registered with a different kind. *)

val snapshot : t -> sample list
(** Current values of every collector, in creation order. *)

val reset : t -> unit
(** Zero every registered instrument (counts, sums, gauge values). The
    collectors stay registered. *)

val value : t -> ?labels:(string * string) list -> string -> float option
(** Scalar read-back by name (+ exact label set): the current value of a
    counter or gauge, [None] for histograms and unknown names. *)

val kind_to_string : kind -> string
