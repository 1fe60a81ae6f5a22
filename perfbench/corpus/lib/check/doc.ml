(* Odoc stand-in (DESIGN.md §12): validate doc-comment structure without
   rendering. Three rules, all errors — the alias gates the build, so a
   finding here is a broken doc contract, not a style nit. *)

let rules =
  [
    ("raise-malformed", "@raise is not followed by a capitalized exception name (error)");
    ("doc-unknown-tag", "doc comment uses a tag odoc does not know, e.g. @raises (error)");
    ("doc-unterminated", "doc comment opened with (** but never closed (error)");
  ]

(* The block tags odoc 2.x accepts. Anything else at the start of a doc
   line is a typo that odoc would either reject or render as prose. *)
let known_tag = function
  | "author" | "deprecated" | "param" | "raise" | "return" | "see" | "since" | "before"
  | "version" | "canonical" | "inline" | "open" | "closed" | "hidden" ->
      true
  | _ -> false

let is_upper c = c >= 'A' && c <= 'Z'
let is_lower c = c >= 'a' && c <= 'z'

let is_ident_char c =
  is_upper c || is_lower c || (c >= '0' && c <= '9') || c = '_' || c = '\'' || c = '.'

(* A capitalized, possibly module-qualified exception name:
   [Invalid_argument], [Unix.Unix_error]. *)
let looks_like_exception w =
  String.length w > 0 && is_upper w.[0] && String.for_all is_ident_char w

let split_lines s = String.split_on_char '\n' s

(* Check one doc-comment body. [start_line] is the line of the opening
   "(**"; body lines keep their newlines so offsets stay honest. *)
let check_body ~start_line body add =
  List.iteri
    (fun off line ->
      let lnum = start_line + off in
      let n = String.length line in
      let i = ref 0 in
      while !i < n && (line.[!i] = ' ' || line.[!i] = '\t' || line.[!i] = '*') do
        incr i
      done;
      if !i < n && line.[!i] = '@' then begin
        let t0 = !i + 1 in
        let j = ref t0 in
        while !j < n && is_lower line.[!j] do
          incr j
        done;
        let tag = String.sub line t0 (!j - t0) in
        if tag = "raise" then begin
          let k = ref !j in
          while !k < n && (line.[!k] = ' ' || line.[!k] = '\t') do
            incr k
          done;
          let w0 = !k in
          while !k < n && is_ident_char line.[!k] do
            incr k
          done;
          let exn = String.sub line w0 (!k - w0) in
          if not (looks_like_exception exn) then
            add ~line:lnum "raise-malformed"
              (Printf.sprintf "@raise must name a capitalized exception, got %S" exn)
        end
        else if tag <> "" && not (known_tag tag) then
          add ~line:lnum "doc-unknown-tag" (Printf.sprintf "unknown doc tag @%s" tag)
      end)
    (split_lines body)

let check_string ~file text =
  let findings = ref [] in
  let add ~line rule msg =
    findings :=
      Finding.v ~severity:Finding.Error ~rule ~where:(Printf.sprintf "%s:%d" file line) msg
      :: !findings
  in
  let n = String.length text in
  let line = ref 1 in
  let i = ref 0 in
  (* Comments nest in OCaml, and the lexer skips string literals both in
     code and inside comments (a comment containing "*)" in a string is
     legal); only the outermost "(**" opens a doc comment, and its body
     runs to the matching close. *)
  let depth = ref 0 in
  let doc_start = ref 0 in
  let is_doc = ref false in
  let body = Buffer.create 128 in
  let bump k =
    for j = !i to min (n - 1) (!i + k - 1) do
      if text.[j] = '\n' then incr line;
      if !depth > 0 && !is_doc then Buffer.add_char body text.[j]
    done;
    i := !i + k
  in
  while !i < n do
    let c = text.[!i] in
    if c = '"' then begin
      (* Skip the whole string literal, honouring backslash escapes. *)
      bump 1;
      let closed = ref false in
      while (not !closed) && !i < n do
        if text.[!i] = '\\' then bump 2
        else if text.[!i] = '"' then begin
          closed := true;
          bump 1
        end
        else bump 1
      done
    end
    else if !depth = 0 && c = '\'' && !i + 2 < n && text.[!i + 1] = '\\' && !i + 3 < n
            && text.[!i + 3] = '\'' then bump 4 (* '\"' and friends *)
    else if !depth = 0 && c = '\'' && !i + 2 < n && text.[!i + 2] = '\'' then bump 3 (* '"' *)
    else if !i + 1 < n && c = '(' && text.[!i + 1] = '*' then begin
      if !depth = 0 then begin
        is_doc := !i + 2 < n && text.[!i + 2] = '*' && not (!i + 3 < n && text.[!i + 3] = '*');
        doc_start := !line;
        Buffer.clear body;
        incr depth;
        i := !i + 2
      end
      else begin
        incr depth;
        bump 2
      end
    end
    else if !i + 1 < n && c = '*' && text.[!i + 1] = ')' then begin
      if !depth > 0 then decr depth;
      if !depth = 0 then begin
        if !is_doc then check_body ~start_line:!doc_start (Buffer.contents body) add;
        is_doc := false;
        i := !i + 2
      end
      else bump 2
    end
    else bump 1
  done;
  if !depth > 0 && !is_doc then begin
    check_body ~start_line:!doc_start (Buffer.contents body) add;
    add ~line:!doc_start "doc-unterminated" "doc comment is never closed"
  end;
  List.rev !findings

let check_paths paths =
  List.concat_map
    (fun path -> check_string ~file:path (Srclint.read_file path))
    (Srclint.source_files paths)
