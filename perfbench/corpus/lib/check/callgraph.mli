(** Project-wide call graph over toplevel definitions, extracted from the
    {!Srclint} token streams. No ppx, no compiler front end: like the rest
    of the [check] layer this is a deliberately heuristic, zero-dependency
    analysis tuned to this repository's ocamlformat style (toplevel
    definitions at column 1; definitions inside a column-1
    [module X = struct] block at column 3).

    The graph is the substrate for {!Effect}: each node is one toplevel
    [let]/[and] definition carrying its body tokens; edges link a
    definition to every definition it may call, resolved from dotted
    [Module.ident] references (with per-file [module A = B] aliases
    expanded and a library hint taken from the path's leading components)
    and from undotted identifiers matched against same-file definitions.

    Known false negatives, by design: calls through functors, first-class
    modules, higher-order escapes ([List.map f] records an edge to [f]'s
    definition only when [f] resolves syntactically), method calls, and
    [include]-re-exported definitions. See DESIGN.md §10. *)

type source = {
  sc_file : string;  (** path used in findings *)
  sc_library : string;  (** dune library (or executable) name *)
  sc_entry : bool;  (** under an [executable]/[tests] dune stanza *)
  sc_text : string;  (** raw file contents *)
}
(** One source file plus its dune context; {!build_sources} lets tests
    construct graphs from in-memory fixtures. *)

type def = {
  d_id : int;  (** index into {!t.defs} *)
  d_library : string;
  d_module : string;
      (** dotted module path within the library, e.g. ["Graph"] or
          ["Graph.Builder"] for a definition inside a submodule *)
  d_name : string;  (** ["()"] for [let () = ...] initializer blocks *)
  d_file : string;
  d_line : int;
  d_entry : bool;  (** defined in an executable/test/bench/example *)
  d_public : bool;
      (** part of the library's surface: the module either has no [.mli]
          or the [.mli] declares a [val] with this name (submodule
          definitions under an [.mli] are never public) *)
  d_body : Srclint.tok array;  (** body tokens, for effect inference *)
}

type vdecl = {
  v_file : string;
  v_library : string;
  v_module : string;
  v_name : string;
  v_line : int;
  v_raise_doc : bool;
      (** the val's doc comment (after-style, between this [val] and the
          next) mentions [@raise] *)
}
(** One [val] declaration from an [.mli]. *)

type file = {
  f_path : string;
  f_library : string;
  f_entry : bool;
  f_toks : Srclint.tok array;  (** full cleaned token stream of the [.ml] *)
}
(** One analysed [.ml] file's whole token stream, kept alongside the defs
    so passes that need file-scope context (e.g. {!Share} scanning for
    [mutable] field declarations or Mutex/Atomic discipline) do not
    re-tokenize. *)

type t = {
  defs : def array;
  callees : int list array;  (** [callees.(i)] = defs that [defs.(i)] may call *)
  sites : (int * int) list array;
      (** [sites.(i)] = every resolved call site in [defs.(i).d_body] as
          [(token index, callee id)] pairs in body order; the same callee
          appears once per site. {!Cost} pairs the token index with its
          lexical loop depth to weight the call. *)
  vals : vdecl list;
  files : file list;  (** token streams of the [.ml] inputs, in source order *)
}

val build_sources : source list -> t
(** Builds the graph from in-memory sources (fixture-friendly). *)

val build : ?entries:string list -> string list -> t
(** [build ~entries dirs] scans every [.ml]/[.mli] under [dirs] (library
    code) and [entries] (executables/tests: their definitions become
    reachability roots), reading each directory's [dune] file for the
    library name ([(name ...)], defaulting to the directory basename) and
    the entry flag ([(executable], [(executables], [(test] or [(tests]
    stanzas). Files skipped by {!Srclint.source_files} (leading ['.'] or
    ['_']) are skipped here too. *)

val find_def : t -> module_:string -> name:string -> def option
(** Lookup by module path and definition name, for tests. *)

val reachable : t -> roots:int list -> bool array
(** Forward BFS over [callees]. *)

val witness : t -> from:int -> target:(int -> bool) -> int list option
(** Shortest call chain (as def ids, [from] first) from [from] to any
    definition satisfying [target]; [None] if unreachable. *)

val arg_span : Srclint.tok array -> int -> int
(** [arg_span body i] is the exclusive end of the application span that
    starts after token [i]: the first index at or past [i+1] holding a
    closing bracket or statement separator at bracket level 0 (relative
    to [i]), or the array length. The span bounds the arguments of a call
    whose head is token [i]; {!Lock} uses it for [Mutex.protect] bodies
    and atomic-discipline checks. *)

val def_params : def -> string list
(** Formal parameter names of a definition: the lowercase undotted tokens
    between the bound name and the first [=] at bracket level 0 of the
    header, in order. Empty when no toplevel [=] is found (e.g. a
    truncated body). Type names inside annotations may be over-collected;
    callers only test membership. *)

val applied_at : def -> int -> bool
(** Whether the identifier token at the given body index is
    syntactically applied: it heads an application (preceded by a token
    an expression can start after, followed by an argument-start that is
    not a keyword), or is passed bare to a [*.protect]-style combinator
    as the final thunk. *)

val applies_params : def -> bool
(** Whether the definition syntactically applies one of its formal
    parameters ({!applied_at} some occurrence) — i.e. it is a wrapper
    whose closure arguments the graph resolves one step through. *)
