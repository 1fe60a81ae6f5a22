(** Interprocedural effect inference over a {!Callgraph}: each definition
    gets a base effect set from its own body tokens, then effects are
    propagated along call edges to a Kleene fixpoint (the lattice is
    finite, so termination is trivial; the transfer function is a union,
    so the fixpoint is monotone — adding an edge can never shrink a
    definition's effect set, a property the test suite checks with
    QCheck).

    The effect lattice tracks:
    - {b Raises}: [failwith] / [invalid_arg] / [raise] in the body, except
      [raise Exit] and raises of a constructor that the same body also
      matches (the local [try ... with C ->] / [| exception C ->] idiom);
    - {b Partial}: calls of partial stdlib primitives — [List.hd],
      [Option.get], bare [Hashtbl.find], and [Array.get] with a
      non-literal index;
    - {b Nondet}: sources of run-to-run nondeterminism —
      [Random.self_init], [Unix.gettimeofday], [Sys.time], and
      [Hashtbl.iter]/[Hashtbl.fold] iteration order (cancelled when the
      same body later sorts the result: the fold-then-sort idiom is
      deterministic);
    - {b IO}: console/file side effects.

    Known false negatives are documented in DESIGN.md §10: effects through
    functors, first-class functions that escape, [a.(i)] sugar (only the
    explicit [Array.get] spelling is tracked), and exceptions handled by a
    {e caller}'s [try] (the analysis does not model catching across
    calls). *)

module Strings : Set.S with type elt = string

type effects = { raises : bool; partial : Strings.t; nondet : Strings.t; io : bool }

val empty : effects
val union : effects -> effects -> effects
val leq : effects -> effects -> bool
val equal_effects : effects -> effects -> bool

val base_of_body : Srclint.tok array -> effects
(** Base (intraprocedural) effects of one definition body. *)

val base_of_string : string -> effects
(** Tokenizes [clean]ed source text and returns its base effects; a
    convenience wrapper over {!base_of_body} for tests. *)

val fixpoint : n:int -> callees:(int -> int list) -> base:(int -> effects) -> effects array
(** [fixpoint ~n ~callees ~base] is the least array [e] with
    [e.(i) ⊇ base i ∪ ⋃ { e.(j) | j ∈ callees i }]. *)

val infer : Callgraph.t -> effects array
(** Per-definition transitive effects, indexed by [d_id]. *)

val rules : (string * string) list
(** [(id, description)] for the interprocedural rules, for [--rules]. *)

val analyze : Callgraph.t -> Finding.t list
(** Runs the four rules:
    - [partial-reachable] (error): a public library value whose transitive
      effect set contains a partial primitive; the message carries a
      witness call chain.
    - [nondet-export] (error): a Nondet effect reaching an export surface
      (a definition named [to_json]/[to_csv]/[to_dot]/[to_text]/
      [to_prometheus]/[to_prom], or any definition in a module named
      [Export] or [Harness]).
    - [undocumented-raise] (warn): a public [.mli] value whose body
      {e directly} raises but whose doc comment lacks [@raise].
    - [dead-function] (warn): a library definition unreachable from every
      entry point ([bin]/[bench]/[test]/[examples] definitions and
      [let () = ...] initializers). *)

val parse_budget : string -> (string * int) list
(** Parses the [check/budget.json] ratchet file: a flat JSON object
    mapping rule id to the allowed number of warn-level findings.
    @raise Invalid_argument on malformed input. *)

val over_budget : budget:(string * int) list -> Finding.t list -> Finding.t list
(** Error-level [budget-exceeded] findings for every rule whose warn
    count exceeds its budget (rules absent from the budget allow 0). *)

val is_io_prim : string -> bool
(** Whether a token is one of the IO primitives the {b IO} effect tracks;
    {!Lock} reuses the table to flag IO-effectful calls under a lock. *)
