(* Facade of the observability subsystem: re-exports the submodules under
   one [Obs] namespace and offers the two toggles everything else hangs
   off. See DESIGN.md section 8 for the architecture. *)

module Control = Control
module Clock = Clock
module Registry = Registry
module Metric = Metric
module Span = Span
module Export = Export

let enabled = Control.enabled

let set_enabled = Control.set_enabled
