(** Plain-text persistence for traffic traces, so experiments can be rerun on
    identical inputs or on externally produced matrices. Format: a header
    line [interval,<seconds>], then one line per positive demand:
    [interval_index,origin,destination,bits_per_second]. *)

val to_csv : Trace.t -> string

val of_csv : n:int -> string -> Trace.t
(** Parses a trace over [n] nodes.
    @raise Invalid_argument on malformed input. *)

val save : Trace.t -> string -> unit
(** Writes to a file path.
    @raise Sys_error if the file cannot be written (the descriptor is
    closed before the exception is re-raised). *)

val load : n:int -> string -> Trace.t
