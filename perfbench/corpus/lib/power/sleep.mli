(** Element-level sleep states (Section 2.1.1): like CPU C-states, network
    elements can enter progressively deeper sleep states that consume less
    power but take longer to wake [22, 23, 29]. REsPoNse is complementary to
    these mechanisms — consolidating traffic lengthens the idle gaps, letting
    elements use deeper states for longer.

    This module quantifies that interaction: given an element's busy/idle
    pattern, it selects the best state per gap (a state only pays off beyond
    its break-even gap length) and integrates energy, including the cost of
    the state transitions themselves ("frequent state switching consumes a
    significant amount of energy as well"). *)

type state = {
  name : string;
  power_fraction : Eutil.Units.ratio Eutil.Units.q;
      (** fraction of active power drawn while asleep *)
  wake_time : Eutil.Units.seconds Eutil.Units.q;
      (** time to return to the active state *)
  transition_energy : Eutil.Units.seconds Eutil.Units.q;
      (** joules per enter+exit cycle at 1 W active power — dimensionally
          J/W = seconds *)
}

val lpi : state
(** Low-Power Idle (IEEE 802.3az style [23]): ~10 % power, microsecond wake. *)

val nap : state
(** Intermediate sleep: ~5 % power, ~10 ms wake [29]. *)

val deep : state
(** Deep sleep: ~2 % power, ~2 s wake — only long gaps qualify. *)

val breakeven_gap : state -> Eutil.Units.seconds Eutil.Units.q
(** Minimum idle-gap length for which entering the state saves energy versus
    staying active, accounting for wake time (spent at full power) and
    transition energy. Normalised to 1 W active power; [infinity] for a
    state that never pays off. *)

val gaps_of_busy : busy:(float * float) list -> horizon:float -> (float * float) list
(** Complement of a sorted disjoint list of busy periods within
    [0, horizon].
    @raise Invalid_argument if the busy periods are unsorted or overlap. *)

val energy :
  active_power:Eutil.Units.watts Eutil.Units.q ->
  states:state list ->
  busy:(float * float) list ->
  horizon:float ->
  Eutil.Units.joules Eutil.Units.q
(** Energy over the horizon when every idle gap uses the best available
    state (or none, for gaps below all break-evens). No states = always on.
    Busy periods and the horizon are plain seconds on the simulation
    clock. *)

val savings_percent :
  active_power:Eutil.Units.watts Eutil.Units.q ->
  states:state list ->
  busy:(float * float) list ->
  horizon:float ->
  float
(** 100 * (1 - energy with sleep / energy always-on). *)

val periodic_busy :
  utilisation:Eutil.Units.ratio Eutil.Units.q ->
  period:float ->
  horizon:float ->
  (float * float) list
(** Busy pattern of a link at the given utilisation whose traffic is shaped
    into bursts of the given period — the buffer-and-burst idea of
    [Nedevschi et al., NSDI 2008]: upstream queueing coalesces packets so
    downstream gaps are [(1 - u) * period] long instead of inter-packet.
    @raise Invalid_argument if [utilisation] is outside [0, 1] or [period]
    is not positive. *)
