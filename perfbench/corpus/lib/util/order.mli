(** Explicit comparator combinators.

    The Srclint [poly-compare] rule bans bare polymorphic [compare]: on
    float-carrying tuples it mis-orders NaN and forces a megamorphic
    comparison per element. These combinators make the monomorphic
    replacement one-liners. *)

val by : ('a -> 'k) -> ('k -> 'k -> int) -> 'a -> 'a -> int
(** [by key cmp] compares values through a sort key. *)

val desc : ('a -> 'a -> int) -> 'a -> 'a -> int
(** Reverses a comparator (descending order). *)

val pair : ('a -> 'a -> int) -> ('b -> 'b -> int) -> 'a * 'b -> 'a * 'b -> int
(** Lexicographic order on pairs. *)

val triple :
  ('a -> 'a -> int) -> ('b -> 'b -> int) -> ('c -> 'c -> int) -> 'a * 'b * 'c -> 'a * 'b * 'c -> int
(** Lexicographic order on triples. *)

val array : ('a -> 'a -> int) -> 'a array -> 'a array -> int
(** Lexicographic order on arrays (shorter prefix first). *)

val int_pair : int * int -> int * int -> int
(** Shorthand for [pair Int.compare Int.compare] — OD pairs, link ends. *)
