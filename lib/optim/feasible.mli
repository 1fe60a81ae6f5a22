(** Unsplittable-flow routing with capacity accounting: can a given active
    subgraph carry a traffic matrix?

    The underlying decision problem is NP-hard for unsplittable flows, so this
    is a deterministic constructive check (the standard approach in the
    energy-aware routing literature): flows are placed in decreasing volume
    order on congestion-aware shortest paths among arcs with sufficient
    residual capacity. A [Some] answer is a certificate of feasibility; [None]
    is conservative. *)

type t
(** Mutable placement state: active links, per-arc residual capacity and the
    committed path of every placed flow. *)

val create : ?margin:float -> ?state:Topo.State.t -> Topo.Graph.t -> t
(** Fresh placement over the given activity state (all-on by default).
    [margin] is the paper's safety margin [sm] (Section 4.5): flows may use at
    most [margin * capacity] of every arc (default 1.0).
    @raise Invalid_argument if [margin] is not positive. *)

val graph : t -> Topo.Graph.t
val state : t -> Topo.State.t

val margin : t -> float

val residual : t -> int -> float
(** Remaining usable capacity of an arc. *)

val load : t -> int -> float
(** Committed load on an arc. *)

val link_load : t -> int -> float
(** Committed load on an undirected link (max of the two directions). *)

val utilization : t -> int -> float
(** Arc load divided by arc capacity. *)

val max_utilization : t -> float

val congestion_weight : t -> Topo.Graph.arc -> float
(** Routing weight: latency scaled by (1 + utilisation), so placement spreads
    load before saturating. *)

val place : t -> int -> int -> float -> Topo.Path.t option
(** [place t o d demand] routes the flow on the best feasible path and commits
    it. [None] when no active path has enough residual capacity. A flow for
    the pair must not already be placed.
    @raise Invalid_argument if the pair is already placed or [demand] is
    not positive. *)

val place_on : t -> Topo.Path.t -> float -> bool
(** Commits a flow on an explicit path if the path is active and has residual
    capacity everywhere; returns false (and commits nothing) otherwise.
    @raise Invalid_argument if the path's pair is already placed. *)

val remove : t -> int -> int -> (Topo.Path.t * float) option
(** Withdraws the committed flow of a pair, restoring residual capacity. *)

val path_of : t -> int -> int -> Topo.Path.t option

val flows : t -> (int * int * float) list
(** Committed flows (pair and volume), in placement-independent order. *)

val flows_through : t -> int list -> (int * int * float) list
(** Committed flows whose path uses at least one of the given links,
    largest volume first (ties by origin, then destination). Costs one pass
    over the placed flows plus a sort of the matches only. *)

val route_matrix : t -> Traffic.Matrix.t -> bool
(** Places every positive demand of the matrix (largest first). Returns false
    and leaves the placement in a partially-filled state if some flow cannot
    be placed — callers doing trial moves should open a trial
    ({!begin_trial}) and {!rollback} it, or rebuild. *)

(** {2 Trials}

    A trial makes a tentative sequence of {!place}, {!place_on} and
    {!remove} calls undoable at the cost of what it touches. While a trial
    is open every arc write logs the arc's previous residual and load, and
    every pair write logs the pair's previous placement. {!rollback} replays
    that log newest first, so the state returns to the exact float bits it
    had at {!begin_trial}; {!end_trial} keeps the changes and drops the
    log. With no trial open the log costs one branch per write. The
    activity state ({!state}) is not part of a trial: callers that switch
    links off for a trial switch them back on themselves. *)

val begin_trial : t -> unit
(** Opens a trial.
    @raise Invalid_argument if a trial is already open. *)

val rollback : t -> unit
(** Undoes every placement change since {!begin_trial} and closes the trial.
    @raise Invalid_argument if no trial is open. *)

val end_trial : t -> unit
(** Keeps every placement change since {!begin_trial} and closes the trial.
    @raise Invalid_argument if no trial is open. *)

(** {2 Snapshots}

    A full copy of the placement state. Trials do the same job at the cost
    of what they touch; snapshots remain as the simple reference the trial
    log is tested against. *)

type snapshot

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit
