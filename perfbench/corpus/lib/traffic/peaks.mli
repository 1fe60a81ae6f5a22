(** Peak-duration analysis behind the paper's power-delivery argument
    (Section 4.5): if the average peak lasts under ~2 hours, operators can
    provision power and cooling for typical load and bridge the peaks from
    alternative sources [20] or thermal headroom [38]. *)

type episode = { start : float; duration : float; peak_volume : float }

val peak_episodes : Trace.t -> threshold:float -> episode list
(** Maximal runs of consecutive intervals whose aggregate volume is at least
    [threshold] times the trace's maximum aggregate volume, in time order.
    @raise Invalid_argument unless [threshold] lies in (0, 1]. *)

val mean_peak_duration : Trace.t -> threshold:float -> float
(** Average episode duration in seconds (0 when no episode exists). *)

val longest_peak : Trace.t -> threshold:float -> float

val fraction_of_time_in_peak : Trace.t -> threshold:float -> float
(** Fraction (0..1) of intervals belonging to some episode. *)
