(** Self-contained OCaml source linter: a small lexer (comments, strings,
    char literals, quoted strings) plus a token-stream rule engine. No ppx,
    no external parser — by design it is heuristic, catching the banned
    patterns that have bitten energy-aware routing code (see DESIGN.md).

    Rules:
    - [poly-compare]: bare [compare] / [Stdlib.compare] used as a value or
      applied. Polymorphic comparison on float-carrying tuples or records
      mis-orders NaN and costs a megamorphic call per element; use
      [Float.compare]-based comparators.
    - [obj-magic]: any use of [Obj.magic].
    - [hashtbl-find]: bare [Hashtbl.find] (raises an anonymous [Not_found]);
      use [find_opt] or a wrapper with a descriptive error.
    - [catchall-try]: [try ... with _ ->] whose first arm is a wildcard.
    - [list-nth]: [List.nth] — O(n) per access, quadratic in loops.

    Suppression: a comment [(* lint: allow <rule> ... *)] disables the named
    rules (or [all]) on every line the comment spans; when the comment is the
    first thing on its line it also covers the following line. *)

val rules : (string * string) list
(** [(id, description)] for every lint rule, for [--help]-style listings. *)

(** {1 Lexer}

    The two front-end passes are exposed so that other token-stream analyses
    ({!Flow}) share one OCaml lexer instead of re-implementing comment,
    string, and literal handling. *)

type cleaned = { text : string; pragmas : (int, string list) Hashtbl.t }
(** Source with comments/strings/char literals blanked to spaces (newlines
    and byte offsets preserved) plus the harvested suppression pragmas,
    keyed by line number. *)

val clean : string -> cleaned

val suppressed : cleaned -> rule:string -> line:int -> bool
(** Whether a [(* lint: allow <rule> ... *)] pragma (or [allow all]) covers
    [rule] on [line]. *)

type tok = { t : string; tline : int; tcol : int }
(** One token of cleaned source: an identifier (dotted paths joined, e.g.
    ["Hashtbl.find"]), a number literal with its spelling preserved (e.g.
    ["2.5e9"]), a two-character operator (["/."], ["<>"], ...), or a single
    punctuation character. *)

val tokenize : string -> tok array
(** Tokenizes cleaned text; positions are 1-based line/column. *)

val read_file : string -> string

val source_files : string list -> string list
(** Every [.ml]/[.mli] under the given files/directories (recursively),
    skipping entries whose basename starts with ['.'] or ['_']. *)

val lint_string : file:string -> string -> Finding.t list
(** Lints source text; [file] is used only for locations. *)

val lint_file : string -> Finding.t list
(** Reads and lints one file. *)

val lint_paths : string list -> Finding.t list
(** Lints every [.ml]/[.mli] under the given files/directories
    (recursively), skipping entries whose basename starts with ['.'] or
    ['_'] (e.g. [_build]). Findings are ordered by file, then line. *)
