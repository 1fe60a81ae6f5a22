(** Odoc-build stand-in: structural validation of doc comments.

    The container has no [odoc], so [dune build @doc] cannot render the
    API docs; this pass catches the mistakes an odoc build would reject
    (or silently swallow) in the [@raise] contracts that the effect
    analysis leans on: a tag line whose tag odoc does not know (the
    [@raises] typo turns a documented raise into prose), a [@raise]
    without a capitalized exception name, and a doc comment that never
    closes. Tags are only recognized at the start of a line, matching
    odoc's block-tag grammar, so an [@@] inside an inline code span is
    never misread as a tag. *)

val rules : (string * string) list
(** Rule ids and one-line descriptions, for [--rules] listings. *)

val check_string : file:string -> string -> Finding.t list
(** Validate one source file's doc comments. [file] is used for
    positions only. *)

val check_paths : string list -> Finding.t list
(** Validate every [.ml]/[.mli] under the given files/directories
    (recursively, via {!Srclint.source_files}). *)
