(* An [Atomic.t] rather than a [ref]: the switch is read from every
   instrumented hot path, including code running inside Eutil.Pool worker
   domains, so the load must be a data-race-free publication point. *)
let flag = Atomic.make (Sys.getenv_opt "RESPONSE_OBS" = Some "1")

let enabled () = Atomic.get flag

let set_enabled b = Atomic.set flag b
