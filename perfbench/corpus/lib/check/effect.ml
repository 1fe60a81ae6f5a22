(* Interprocedural effect inference on the Callgraph. Base effects come
   from a single pass over each definition's body tokens; propagation is a
   Kleene iteration of a union transfer function, so the fixpoint exists
   and is monotone in the edge set. See effect.mli and DESIGN.md §10. *)

module S = Srclint
module Strings = Set.Make (String)

type effects = { raises : bool; partial : Strings.t; nondet : Strings.t; io : bool }

let empty = { raises = false; partial = Strings.empty; nondet = Strings.empty; io = false }

let union a b =
  {
    raises = a.raises || b.raises;
    partial = Strings.union a.partial b.partial;
    nondet = Strings.union a.nondet b.nondet;
    io = a.io || b.io;
  }

let leq a b =
  (not a.raises || b.raises)
  && Strings.subset a.partial b.partial
  && Strings.subset a.nondet b.nondet
  && ((not a.io) || b.io)

let equal_effects a b = leq a b && leq b a

(* ------------------------------------------------------------------ *)
(* Base effects of one body                                           *)
(* ------------------------------------------------------------------ *)

(* Primitive classification tables: [base_of_body] consults them once per
   token, so membership must be constant-time, not a list walk. *)
let table names =
  let tbl = Hashtbl.create (2 * List.length names) in
  List.iter (fun nm -> Hashtbl.replace tbl nm ()) names;
  tbl

let raise_prims = table [ "failwith"; "invalid_arg"; "Stdlib.failwith"; "Stdlib.invalid_arg" ]
let partial_prims = table [ "List.hd"; "Option.get"; "Hashtbl.find" ]
let clock_prims = table [ "Random.self_init"; "Unix.gettimeofday"; "Sys.time" ]
let hashtbl_orders = table [ "Hashtbl.iter"; "Hashtbl.fold" ]
let sorters = table [ "List.sort"; "List.sort_uniq"; "List.stable_sort"; "Array.sort" ]

let io_prims =
  table
    [ "print_string"; "print_endline"; "print_newline"; "print_int"; "print_float"; "print_char";
      "prerr_string"; "prerr_endline"; "prerr_newline"; "Printf.printf"; "Printf.eprintf";
      "Format.printf"; "Format.eprintf"; "Fmt.pr"; "Fmt.epr"; "open_in"; "open_out"; "open_in_bin";
      "open_out_bin"; "input_line"; "output_string"; "output_char"; "read_line"; "Sys.readdir";
      "Sys.command"; "Sys.remove"; "Sys.rename" ]

let is_io_prim t = Hashtbl.mem io_prims t

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'
let is_number s = s <> "" && s.[0] >= '0' && s.[0] <= '9'
let undotted s = not (String.contains s '.')

let base_of_body (body : S.tok array) =
  let n = Array.length body in
  let tok_at j = if j < n then body.(j).S.t else "" in
  (* Constructors this body matches on: [with C], [| C], [exception C].
     A [raise C] of such a constructor is locally handled. *)
  let handled = Hashtbl.create 4 in
  for i = 0 to n - 1 do
    match body.(i).S.t with
    | "with" | "|" | "exception" ->
        let next = tok_at (i + 1) in
        if is_upper next && undotted next then Hashtbl.replace handled next ()
    | _ -> ()
  done;
  let last_sorter = ref (-1) in
  for i = n - 1 downto 0 do
    if !last_sorter < 0 && Hashtbl.mem sorters body.(i).S.t then last_sorter := i
  done;
  let e = ref empty in
  for i = 0 to n - 1 do
    let t = body.(i).S.t in
    if Hashtbl.mem raise_prims t then e := { !e with raises = true }
    else if t = "raise" || t = "Stdlib.raise" then begin
      (* Skip the wrapping paren / application operator to see the
         exception constructor: [raise (Bad x)], [raise @@ Bad x]. *)
      let j = ref (i + 1) in
      while tok_at !j = "(" || tok_at !j = "@@" do
        incr j
      done;
      let exn = tok_at !j in
      let local_exit = exn = "Exit" || exn = "Stdlib.Exit" in
      let local_handled = is_upper exn && undotted exn && Hashtbl.mem handled exn in
      if not (local_exit || local_handled) then e := { !e with raises = true }
    end
    else if Hashtbl.mem partial_prims t then e := { !e with partial = Strings.add t !e.partial }
    else if t = "Array.get" then begin
      (* [Array.get a 0] is fine; a computed index is partial. *)
      let idx = tok_at (i + 2) in
      if not (is_number idx) then e := { !e with partial = Strings.add t !e.partial }
    end
    else if Hashtbl.mem clock_prims t then e := { !e with nondet = Strings.add t !e.nondet }
    else if Hashtbl.mem hashtbl_orders t then begin
      (* The fold-then-sort idiom is deterministic: a sorter later in the
         same body cancels the iteration-order effect. *)
      if !last_sorter < i then e := { !e with nondet = Strings.add t !e.nondet }
    end
    else if Hashtbl.mem io_prims t then e := { !e with io = true }
  done;
  !e

let base_of_string text = base_of_body (S.tokenize (S.clean text).S.text)

(* ------------------------------------------------------------------ *)
(* Fixpoint                                                           *)
(* ------------------------------------------------------------------ *)

let fixpoint ~n ~callees ~base =
  let eff = Array.init n base in
  let changed = ref true in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      let merged = List.fold_left (fun acc j -> union acc eff.(j)) eff.(i) (callees i) in
      if not (equal_effects merged eff.(i)) then begin
        eff.(i) <- merged;
        changed := true
      end
    done
  done;
  eff

let infer (g : Callgraph.t) =
  let n = Array.length g.Callgraph.defs in
  fixpoint ~n
    ~callees:(fun i -> g.Callgraph.callees.(i))
    ~base:(fun i -> base_of_body g.Callgraph.defs.(i).Callgraph.d_body)

(* ------------------------------------------------------------------ *)
(* Rules                                                              *)
(* ------------------------------------------------------------------ *)

let rules =
  [
    ( "partial-reachable",
      "public library value can reach a partial primitive (List.hd, Option.get, Hashtbl.find, \
       computed Array.get)" );
    ("nondet-export", "iteration-order or clock nondeterminism reaches an export surface");
    ("undocumented-raise", "public .mli value raises directly but its doc lacks @raise (warn)");
    ("dead-function", "toplevel definition unreachable from every entry point (warn)");
    ("budget-exceeded", "warn-level findings exceed the ratchet in check/budget.json");
  ]

let export_names = [ "to_json"; "to_csv"; "to_dot"; "to_text"; "to_prometheus"; "to_prom" ]
let export_modules = [ "Export"; "Harness" ]

let last_component path =
  match List.rev (String.split_on_char '.' path) with x :: _ -> x | [] -> path

let qualified (d : Callgraph.def) = d.Callgraph.d_module ^ "." ^ d.Callgraph.d_name
let where_of (d : Callgraph.def) = Printf.sprintf "%s:%d" d.Callgraph.d_file d.Callgraph.d_line

let chain_str (g : Callgraph.t) ids =
  String.concat " -> " (List.map (fun i -> qualified g.Callgraph.defs.(i)) ids)

let pick set = match Strings.min_elt_opt set with Some s -> s | None -> "?"

let analyze (g : Callgraph.t) =
  let defs = g.Callgraph.defs in
  let n = Array.length defs in
  let base = Array.init n (fun i -> base_of_body defs.(i).Callgraph.d_body) in
  let eff = fixpoint ~n ~callees:(fun i -> g.Callgraph.callees.(i)) ~base:(fun i -> base.(i)) in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  (* partial-reachable: a public value whose transitive effects include a
     partial primitive. *)
  Array.iter
    (fun (d : Callgraph.def) ->
      let i = d.Callgraph.d_id in
      if d.Callgraph.d_public && not (Strings.is_empty eff.(i).partial) then begin
        let via =
          match
            Callgraph.witness g ~from:i ~target:(fun j -> not (Strings.is_empty base.(j).partial))
          with
          | Some ids -> chain_str g ids
          | None -> qualified d
        in
        add
          (Finding.v ~rule:"partial-reachable" ~where:(where_of d)
             (Printf.sprintf "public %s can hit partial %s (via %s)" (qualified d)
                (pick eff.(i).partial) via))
      end)
    defs;
  (* nondet-export: nondeterminism reaching an export surface. *)
  Array.iter
    (fun (d : Callgraph.def) ->
      let i = d.Callgraph.d_id in
      let is_export =
        (not d.Callgraph.d_entry)
        && (List.exists (String.equal d.Callgraph.d_name) export_names
           || List.exists (String.equal (last_component d.Callgraph.d_module)) export_modules)
      in
      if is_export && not (Strings.is_empty eff.(i).nondet) then begin
        let via =
          match
            Callgraph.witness g ~from:i ~target:(fun j -> not (Strings.is_empty base.(j).nondet))
          with
          | Some ids -> chain_str g ids
          | None -> qualified d
        in
        add
          (Finding.v ~rule:"nondet-export" ~where:(where_of d)
             (Printf.sprintf "export %s depends on %s (via %s)" (qualified d)
                (pick eff.(i).nondet) via))
      end)
    defs;
  (* undocumented-raise: direct raises behind an undocumented .mli val. *)
  List.iter
    (fun (v : Callgraph.vdecl) ->
      if not v.Callgraph.v_raise_doc then begin
        let matches (d : Callgraph.def) =
          d.Callgraph.d_library = v.Callgraph.v_library
          && d.Callgraph.d_module = v.Callgraph.v_module
          && d.Callgraph.d_name = v.Callgraph.v_name
        in
        Array.iter
          (fun (d : Callgraph.def) ->
            if matches d && base.(d.Callgraph.d_id).raises then
              add
                (Finding.v ~severity:Finding.Warn ~rule:"undocumented-raise"
                   ~where:(Printf.sprintf "%s:%d" v.Callgraph.v_file v.Callgraph.v_line)
                   (Printf.sprintf "val %s raises but its doc comment lacks @raise" (qualified d))))
          defs
      end)
    g.Callgraph.vals;
  (* dead-function: unreachable from entry points and initializers. *)
  let roots = ref [] in
  Array.iter
    (fun (d : Callgraph.def) ->
      if d.Callgraph.d_entry || d.Callgraph.d_name = "()" || d.Callgraph.d_name = "_" then
        roots := d.Callgraph.d_id :: !roots)
    defs;
  let live = Callgraph.reachable g ~roots:!roots in
  Array.iter
    (fun (d : Callgraph.def) ->
      if (not d.Callgraph.d_entry) && not live.(d.Callgraph.d_id) then
        add
          (Finding.v ~severity:Finding.Warn ~rule:"dead-function" ~where:(where_of d)
             (Printf.sprintf "%s is unreachable from every entry point" (qualified d))))
    defs;
  List.rev !findings

(* ------------------------------------------------------------------ *)
(* Budget ratchet                                                     *)
(* ------------------------------------------------------------------ *)

let parse_budget s =
  let n = String.length s in
  let i = ref 0 in
  let fail msg = invalid_arg ("Effect.parse_budget: " ^ msg) in
  let skip () =
    while !i < n && (match s.[!i] with ' ' | '\n' | '\t' | '\r' | ',' -> true | _ -> false) do
      incr i
    done
  in
  skip ();
  if !i >= n || s.[!i] <> '{' then fail "expected '{'";
  incr i;
  let out = ref [] in
  let closed = ref false in
  while not !closed do
    skip ();
    if !i < n && s.[!i] = '}' then begin
      incr i;
      closed := true
    end
    else if !i < n && s.[!i] = '"' then begin
      incr i;
      let start = !i in
      while !i < n && s.[!i] <> '"' do
        incr i
      done;
      if !i >= n then fail "unterminated string";
      let key = String.sub s start (!i - start) in
      incr i;
      skip ();
      if !i >= n || s.[!i] <> ':' then fail "expected ':'";
      incr i;
      skip ();
      let start = !i in
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      if !i = start then fail "expected a non-negative integer";
      out := (key, int_of_string (String.sub s start (!i - start))) :: !out
    end
    else fail "expected a key or '}'"
  done;
  List.rev !out

let over_budget ~budget findings =
  let counts = Hashtbl.create 8 in
  List.iter
    (fun (f : Finding.t) ->
      if f.Finding.severity = Finding.Warn then begin
        let c = match Hashtbl.find_opt counts f.Finding.rule with Some c -> c | None -> 0 in
        Hashtbl.replace counts f.Finding.rule (c + 1)
      end)
    findings;
  let allowances = Hashtbl.create 8 in
  List.iter (fun (rule, a) -> Hashtbl.replace allowances rule a) (List.rev budget);
  Hashtbl.fold (fun rule count acc -> (rule, count) :: acc) counts []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.filter_map (fun (rule, count) ->
         let allowed = match Hashtbl.find_opt allowances rule with Some a -> a | None -> 0 in
         if count > allowed then
           Some
             (Finding.v ~rule:"budget-exceeded" ~where:"check/budget.json"
                (Printf.sprintf "%d %s finding(s) exceed the recorded budget of %d" count rule
                   allowed))
         else None)
