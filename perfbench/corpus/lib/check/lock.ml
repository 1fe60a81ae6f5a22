(* Lock-discipline analysis over the Callgraph token stream: lock-region
   recognition (Mutex.lock/unlock, Mutex.protect bodies, Fun.protect
   finalisers), per-definition held-lock summaries to an interprocedural
   fixpoint, a global lock-acquisition order graph with cycle reporting,
   blocking-under-lock detection, and atomic read-modify-write
   discipline. Zero dependencies beyond the token stream, like Effect and
   Share; the heuristics and their blind spots are documented in
   DESIGN.md §15. *)

module S = Srclint
module Cg = Callgraph

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'
let is_lower s = s <> "" && ((s.[0] >= 'a' && s.[0] <= 'z') || s.[0] = '_')

let last_comp s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let modkey = last_comp
let qualified (d : Cg.def) = d.Cg.d_module ^ "." ^ d.Cg.d_name

(* Blocking primitives beyond the Effect IO table: calls that can park
   the calling domain outright. *)
let blocking_prims =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun t -> Hashtbl.replace tbl t ())
    [ "Unix.read"; "Unix.write"; "Unix.select"; "Unix.sleep"; "Unix.sleepf"; "Unix.fsync";
      "Unix.waitpid"; "Unix.accept"; "Unix.connect"; "Domain.join"; "Thread.join" ];
  tbl

let is_blocking t = Hashtbl.mem blocking_prims t || Effect.is_io_prim t

(* ------------------------------------------------------------------ *)
(* Lock identities                                                    *)
(* ------------------------------------------------------------------ *)

type lock = {
  l_id : int;
  l_name : string;  (* "State.lock": enclosing module key + binding name *)
  l_library : string;
  l_file : string;
  l_line : int;
}

(* A lock is born at a [NAME = Mutex.create] binding — a toplevel [let],
   a [let] inside a function, or a record-field initialiser; in all three
   shapes the token before [=] is the lowercase name. The identity is the
   enclosing module key plus that name, which matches how the rest of the
   repo refers to it ([t.lock] in [State] is [State.lock]). *)
let harvest (g : Cg.t) =
  let tbl = Hashtbl.create 16 in
  let acc = ref [] in
  let count = ref 0 in
  Array.iter
    (fun (d : Cg.def) ->
      if not d.Cg.d_entry then
        let body = d.Cg.d_body in
        Array.iteri
          (fun i tk ->
            if
              tk.S.t = "Mutex.create" && i >= 2
              && body.(i - 1).S.t = "="
              && is_lower body.(i - 2).S.t
              && not (String.contains body.(i - 2).S.t '.')
            then begin
              let name = modkey d.Cg.d_module ^ "." ^ body.(i - 2).S.t in
              if not (Hashtbl.mem tbl name) then begin
                Hashtbl.replace tbl name !count;
                acc :=
                  {
                    l_id = !count;
                    l_name = name;
                    l_library = d.Cg.d_library;
                    l_file = d.Cg.d_file;
                    l_line = tk.S.tline;
                  }
                  :: !acc;
                incr count
              end
            end)
          body)
    g.Cg.defs;
  (Array.of_list (List.rev !acc), tbl)

(* Resolve a mutex-expression token to a lock id: [Obs.Span.completed_lock]
   by its last two components, [t.lock] / [w.qlock] by the enclosing module
   key plus the field name, a bare [completed_lock] by the enclosing module
   key plus the token. Unknown names resolve to [None] and are ignored. *)
let resolve_lock tbl (d : Cg.def) t =
  if t = "" || t = "(" then None
  else
    let name =
      if String.contains t '.' then
        match String.split_on_char '.' t with
        | first :: _ :: _ when is_upper first -> (
            match List.rev (String.split_on_char '.' t) with
            | name :: mk :: _ -> mk ^ "." ^ name
            | _ -> t)
        | _ -> modkey d.Cg.d_module ^ "." ^ last_comp t
      else modkey d.Cg.d_module ^ "." ^ t
    in
    Hashtbl.find_opt tbl name

(* ------------------------------------------------------------------ *)
(* Finally spans                                                      *)
(* ------------------------------------------------------------------ *)

let matching_close (body : S.tok array) i =
  let n = Array.length body in
  let level = ref 0 in
  let j = ref i in
  let r = ref n in
  while !r = n && !j < n do
    (match body.(!j).S.t with
    | "(" | "[" | "{" -> incr level
    | ")" | "]" | "}" ->
        decr level;
        if !level = 0 then r := !j
    | _ -> ());
    incr j
  done;
  !r

(* [finally_map body].(k) is, for tokens inside a [~finally:EXPR]
   argument, the index at which the enclosing [Fun.protect] application
   span ends (where the deferred finaliser conceptually runs); [-1]
   elsewhere. *)
let finally_map (body : S.tok array) =
  let n = Array.length body in
  let m = Array.make n (-1) in
  for i = 0 to n - 4 do
    if body.(i).S.t = "~" && body.(i + 1).S.t = "finally" && body.(i + 2).S.t = ":" then begin
      let start = i + 3 in
      let stop =
        if body.(start).S.t = "(" then min n (matching_close body start + 1) else min n (start + 1)
      in
      let rec back j =
        if j < 0 || i - j > 6 then None
        else if last_comp body.(j).S.t = "protect" then Some j
        else back (j - 1)
      in
      let pend = match back (i - 1) with Some p -> Cg.arg_span body p | None -> stop in
      for k = start to stop - 1 do
        m.(k) <- pend
      done
    end
  done;
  m

(* ------------------------------------------------------------------ *)
(* Per-definition scan                                                *)
(* ------------------------------------------------------------------ *)

type scan_result = {
  sr_acquires : (int * int list * int) list;  (* lock, held before, token *)
  sr_regions : (int * int * int) list;  (* lock, start token, stop token *)
  sr_blocking : (int * string * int list) list;  (* token, op, effective held *)
  sr_calls : (int * int * int list) list;  (* token, callee, full held *)
  sr_rmw : (int * string) list;  (* token, atomic target *)
  sr_self : (int * int) list;  (* token, lock re-acquired while held *)
  sr_params_held : int list;  (* locks held at a formal-param occurrence *)
}

(* One linear walk over a body. [held] is the ordered held-lock set; a
   lock enters it on [Mutex.lock], on a [Mutex.protect] head (released at
   the end of the application span), or on a call to a wrapper definition
   (released likewise); it leaves on [Mutex.unlock] — except that an
   unlock inside a [~finally:] argument is deferred to the end of the
   enclosing [Fun.protect] span, which is when the finaliser runs. *)
let scan ~tbl ~io_locked ~wrapper ~sites (d : Cg.def) =
  let body = d.Cg.d_body in
  let n = Array.length body in
  let fin = finally_map body in
  let params = Hashtbl.create 8 in
  List.iter (fun p -> Hashtbl.replace params p ()) (Cg.def_params d);
  let sites_at = Hashtbl.create 16 in
  List.iter (fun (tok, c) -> Hashtbl.replace sites_at tok (c :: Option.value ~default:[] (Hashtbl.find_opt sites_at tok))) sites;
  (* [let NAME = Atomic.get TARGET] binders, for the RMW check. *)
  let binders = Hashtbl.create 4 in
  for j = 2 to n - 2 do
    if body.(j).S.t = "Atomic.get" && body.(j - 1).S.t = "=" && is_lower body.(j - 2).S.t && fin.(j) < 0
    then Hashtbl.replace binders body.(j - 2).S.t body.(j + 1).S.t
  done;
  (* First [=] at bracket level 0 ends the header; params only count as
     closure applications past it. *)
  let header_end =
    let level = ref 0 and j = ref 1 and r = ref n in
    while !r = n && !j < n do
      (match body.(!j).S.t with
      | "(" | "[" | "{" -> incr level
      | ")" | "]" | "}" -> decr level
      | "=" when !level = 0 -> r := !j
      | _ -> ());
      incr j
    done;
    !r
  in
  let held = ref [] in
  (* lock id, pending release index (max_int = explicit unlock) *)
  let starts = Hashtbl.create 4 in
  let acquires = ref [] and regions = ref [] and blocking = ref [] in
  let calls = ref [] and rmw = ref [] and self_acq = ref [] and params_held = ref [] in
  let held_ids () = List.map fst !held in
  let effective () = List.filter (fun l -> not io_locked.(l)) (held_ids ()) in
  let release ~at l =
    held := List.filter (fun (x, _) -> x <> l) !held;
    match Hashtbl.find_opt starts l with
    | Some s ->
        regions := (l, s, at) :: !regions;
        Hashtbl.remove starts l
    | None -> ()
  in
  let acquire ~at ~pend l =
    if List.mem_assoc l !held then self_acq := (at, l) :: !self_acq
    else begin
      acquires := (l, held_ids (), at) :: !acquires;
      held := (l, pend) :: !held;
      Hashtbl.replace starts l at
    end
  in
  let resolve_at j = if j < n then resolve_lock tbl d body.(j).S.t else None in
  for i = 0 to n - 1 do
    let due = List.filter (fun (_, p) -> p <= i) !held in
    List.iter (fun (l, _) -> release ~at:i l) due;
    let t = body.(i).S.t in
    if fin.(i) >= 0 then begin
      (* Inside a finaliser body: the only event that matters now is a
         deferred unlock; everything else runs at scope exit with a held
         set this linear scan does not model. *)
      if t = "Mutex.unlock" then
        match resolve_at (i + 1) with
        | Some l -> held := List.map (fun (x, p) -> if x = l then (x, min p fin.(i)) else (x, p)) !held
        | None -> ()
    end
    else begin
      (* A token that the graph resolved to a definition is only a call
         here when it is not a binder or a label pun: [fun labels ->] and
         [~labels] re-use names that by-file resolution maps to same-file
         definitions, and re-playing wrapper locks on those would invent
         critical sections. *)
      let binder_pos =
        i > 0
        &&
        match body.(i - 1).S.t with
        | "fun" | "~" | "?" | "let" | "and" | "rec" -> true
        | _ -> false
      in
      (match Hashtbl.find_opt sites_at i with
      | Some cs when not binder_pos ->
          List.iter
            (fun c ->
              if held_ids () <> [] then calls := (i, c, held_ids ()) :: !calls;
              List.iter (fun l -> acquire ~at:i ~pend:(Cg.arg_span body i) l) (wrapper c))
            cs
      | _ -> ());
      if t = "Mutex.lock" then (
        match resolve_at (i + 1) with Some l -> acquire ~at:i ~pend:max_int l | None -> ())
      else if t = "Mutex.unlock" then (
        match resolve_at (i + 1) with Some l -> release ~at:i l | None -> ())
      else if t = "Mutex.protect" || t = "Stdlib.Mutex.protect" then (
        match resolve_at (i + 1) with
        | Some l -> acquire ~at:i ~pend:(Cg.arg_span body i) l
        | None -> ())
      else if t = "Condition.wait" then begin
        (* [Condition.wait c m] releases [m] for the wait; waiting while
           holding any other lock blocks that lock's holders. *)
        let wm = resolve_at (i + 2) in
        let eff = List.filter (fun l -> Some l <> wm) (effective ()) in
        if eff <> [] then blocking := (i, "Condition.wait on a different mutex", eff) :: !blocking
      end
      else if is_blocking t then begin
        let eff = effective () in
        if eff <> [] then blocking := (i, t, eff) :: !blocking
      end
      else if t = "Atomic.set" && i + 1 < n && held_ids () = [] then begin
        (* Naked read-modify-write: the stored value depends on an
           [Atomic.get] of the same atomic — inline in the argument span,
           or through a [let]-binder — with no lock held and outside any
           finaliser (the save/restore idiom is sequential by design). *)
        let target = body.(i + 1).S.t in
        let stop = min (Cg.arg_span body i) n in
        let fired = ref false in
        for j = i + 2 to stop - 1 do
          let tj = body.(j).S.t in
          if
            (tj = "Atomic.get" && j + 1 < n && body.(j + 1).S.t = target)
            || match Hashtbl.find_opt binders tj with Some tgt -> tgt = target | None -> false
          then fired := true
        done;
        if !fired then rmw := (i, target) :: !rmw
      end;
      if i > header_end && Hashtbl.mem params t && held_ids () <> [] && Cg.applied_at d i then
        List.iter (fun l -> params_held := l :: !params_held) (held_ids ())
    end
  done;
  List.iter (fun (l, _) -> release ~at:n l) !held;
  {
    sr_acquires = List.rev !acquires;
    sr_regions = List.rev !regions;
    sr_blocking = List.rev !blocking;
    sr_calls = List.rev !calls;
    sr_rmw = List.rev !rmw;
    sr_self = List.rev !self_acq;
    sr_params_held = List.sort_uniq Int.compare !params_held;
  }

(* ------------------------------------------------------------------ *)
(* Analysis                                                           *)
(* ------------------------------------------------------------------ *)

let rules =
  [
    ( "lock-order-cycle",
      "two locks acquired in opposite orders somewhere in the program (potential deadlock), or a \
       mutex re-acquired while already held" );
    ( "blocking-under-lock",
      "blocking or IO operation reachable while a lock is held (warn; budgeted)" );
    ("lock-held-io", "blocking or IO operation under a lock on the declared serve hot path");
    ( "atomic-rmw",
      "naked Atomic.get-then-Atomic.set read-modify-write on the same atomic; use \
       compare_and_set/fetch_and_add" );
    ("useless-lock", "mutex never acquired, or whose critical sections guard nothing (warn)");
    ( "lock-manifest",
      "a check/locks.json entry does not resolve, an unknown key, or a certified-surface lock \
       missing from the declared order" );
  ]

(* Same convention as Share/Cost: "Server.handle_request" matches on the
   module key, optionally library-qualified. *)
let resolve_entry (g : Cg.t) name =
  let matches (d : Cg.def) =
    let mk = modkey d.Cg.d_module ^ "." ^ d.Cg.d_name in
    let qual = qualified d in
    let lib_qual = String.capitalize_ascii d.Cg.d_library ^ "." ^ qual in
    name = mk || name = qual || name = lib_qual
  in
  Array.to_list g.Cg.defs |> List.filter matches

let locks (g : Cg.t) =
  let ls, _ = harvest g in
  Array.to_list (Array.map (fun l -> (l.l_name, l.l_file, l.l_line)) ls)

let analyze ?(manifest = []) (g : Cg.t) =
  let defs = g.Cg.defs in
  let nd = Array.length defs in
  let locks, tbl = harvest g in
  let nl = Array.length locks in
  let findings = ref [] in
  let add f = findings := f :: !findings in
  let manifest_err msg = add (Finding.v ~rule:"lock-manifest" ~where:"check/locks.json" msg) in
  (* ---- manifest ---- *)
  List.iter
    (fun (key, _) ->
      match key with
      | "order" | "io_locks" | "hot" | "surface" -> ()
      | _ ->
          manifest_err
            (Printf.sprintf
               "unknown manifest key %S (expected \"order\", \"io_locks\", \"hot\" or \"surface\")"
               key))
    manifest;
  let lock_list key =
    match List.assoc_opt key manifest with
    | None -> []
    | Some names ->
        List.filter_map
          (fun name ->
            match Hashtbl.find_opt tbl name with
            | Some id -> Some id
            | None ->
                manifest_err (Printf.sprintf "%s entry %s does not name a known mutex" key name);
                None)
          names
  in
  let declared_order = lock_list "order" in
  let io_locked = Array.make (max nl 1) false in
  List.iter (fun l -> io_locked.(l) <- true) (lock_list "io_locks");
  let hot_defs =
    match List.assoc_opt "hot" manifest with
    | None -> []
    | Some names ->
        List.concat_map
          (fun name ->
            match resolve_entry g name with
            | [] ->
                manifest_err
                  (Printf.sprintf "hot entrypoint %s does not resolve to any definition" name);
                []
            | ds -> ds)
          names
  in
  let hot_reach =
    match hot_defs with
    | [] -> Array.make nd false
    | ds -> Cg.reachable g ~roots:(List.map (fun (d : Cg.def) -> d.Cg.d_id) ds)
  in
  (* surface: every lock living in a certified module must appear in the
     declared order, so the canonical order stays total over the surface. *)
  (match List.assoc_opt "surface" manifest with
  | None -> ()
  | Some entries ->
      let mod_of_lock l =
        match String.index_opt l.l_name '.' with
        | Some i -> String.sub l.l_name 0 i
        | None -> l.l_name
      in
      let covers entry l =
        match String.split_on_char '.' entry with
        | [ single ] ->
            String.lowercase_ascii single = l.l_library || single = mod_of_lock l
        | comps -> (
            match List.rev comps with mk :: _ -> mk = mod_of_lock l | [] -> false)
      in
      let in_order = Hashtbl.create 16 in
      List.iter (fun l -> Hashtbl.replace in_order l ()) declared_order;
      Array.iter
        (fun l ->
          if List.exists (fun e -> covers e l) entries && not (Hashtbl.mem in_order l.l_id) then
            manifest_err
              (Printf.sprintf
                 "lock %s is in the certified surface but missing from the declared \"order\""
                 l.l_name))
        locks);
  begin
    (* ---- pass 1: wrapper detection (no wrapper spans yet) ---- *)
    let no_wrap _ = [] in
    let wrapper_locks = Array.make nd [] in
    Array.iter
      (fun (d : Cg.def) ->
        if not d.Cg.d_entry then
          let r = scan ~tbl ~io_locked ~wrapper:no_wrap ~sites:g.Cg.sites.(d.Cg.d_id) d in
          wrapper_locks.(d.Cg.d_id) <- (if Cg.applies_params d then r.sr_params_held else []))
      defs;
    (* ---- pass 2: full event scan with wrapper spans ---- *)
    let results = Array.make nd None in
    Array.iter
      (fun (d : Cg.def) ->
        if not d.Cg.d_entry then
          results.(d.Cg.d_id) <-
            Some
              (scan ~tbl ~io_locked
                 ~wrapper:(fun c -> wrapper_locks.(c))
                 ~sites:g.Cg.sites.(d.Cg.d_id) d))
      defs;
    (* ---- may-acquire fixpoint ---- *)
    let acq = Array.make_matrix nd nl false in
    Array.iteri
      (fun i r ->
        match r with
        | Some r -> List.iter (fun (l, _, _) -> acq.(i).(l) <- true) r.sr_acquires
        | None -> ())
      results;
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to nd - 1 do
        List.iter
          (fun c ->
            for l = 0 to nl - 1 do
              if acq.(c).(l) && not acq.(i).(l) then begin
                acq.(i).(l) <- true;
                changed := true
              end
            done)
          g.Cg.callees.(i)
      done
    done;
    (* ---- may-block fixpoint ---- *)
    let direct_block = Array.make nd false in
    Array.iter
      (fun (d : Cg.def) ->
        let b = ref false in
        Array.iter
          (fun tk -> if is_blocking tk.S.t || tk.S.t = "Condition.wait" then b := true)
          d.Cg.d_body;
        direct_block.(d.Cg.d_id) <- !b)
      defs;
    let blk = Array.copy direct_block in
    let changed = ref true in
    while !changed do
      changed := false;
      for i = 0 to nd - 1 do
        if not blk.(i) then
          if List.exists (fun c -> blk.(c)) g.Cg.callees.(i) then begin
            blk.(i) <- true;
            changed := true
          end
      done
    done;
    (* ---- order graph ---- *)
    let edges = Hashtbl.create 32 in
    let add_edge h l w = if h <> l && not (Hashtbl.mem edges (h, l)) then Hashtbl.replace edges (h, l) w in
    let where_tok (d : Cg.def) tok =
      let line = if tok < Array.length d.Cg.d_body then d.Cg.d_body.(tok).S.tline else d.Cg.d_line in
      Printf.sprintf "%s:%d" d.Cg.d_file line
    in
    let held_arr = Array.make nl false in
    Array.iter
      (fun (d : Cg.def) ->
        match results.(d.Cg.d_id) with
        | None -> ()
        | Some r ->
            List.iter
              (fun (l, held_before, tok) ->
                List.iter
                  (fun h ->
                    add_edge h l
                      (Printf.sprintf "%s (%s) acquires %s while holding %s" (qualified d)
                         (where_tok d tok) locks.(l).l_name locks.(h).l_name))
                  held_before)
              r.sr_acquires;
            List.iter
              (fun (tok, c, held) ->
                Array.fill held_arr 0 nl false;
                List.iter (fun h -> held_arr.(h) <- true) held;
                for l = 0 to nl - 1 do
                  if acq.(c).(l) && not held_arr.(l) then
                    List.iter
                      (fun h ->
                        add_edge h l
                          (Printf.sprintf "%s (%s) calls %s which may acquire %s while holding %s"
                             (qualified d) (where_tok d tok)
                             (qualified defs.(c))
                             locks.(l).l_name locks.(h).l_name))
                      held
                done)
              r.sr_calls)
      defs;
    (* Declared edges: the manifest order is the canonical total order; a
       declared edge only fills in where no actual edge gives a better
       witness, and contradiction with actual edges shows up as a cycle. *)
    let rec declared_pairs = function
      | [] -> ()
      | x :: rest ->
          List.iter
            (fun y -> add_edge x y (Printf.sprintf "declared order in check/locks.json (%s before %s)" locks.(x).l_name locks.(y).l_name))
            rest;
          declared_pairs rest
    in
    declared_pairs declared_order;
    (* ---- cycles: mutually reachable lock pairs ---- *)
    let reach = Array.make_matrix nl nl false in
    Hashtbl.iter (fun (h, l) _ -> reach.(h).(l) <- true) edges;
    for k = 0 to nl - 1 do
      for i = 0 to nl - 1 do
        for j = 0 to nl - 1 do
          if reach.(i).(k) && reach.(k).(j) then reach.(i).(j) <- true
        done
      done
    done;
    let path u v =
      (* BFS over [edges], returning the edge witnesses along a shortest
         path from [u] to [v]. *)
      let prev = Array.make nl (-1) in
      let seen = Array.make nl false in
      seen.(u) <- true;
      let q = Queue.create () in
      Queue.add u q;
      let found = ref false in
      while (not !found) && not (Queue.is_empty q) do
        let x = Queue.pop q in
        for y = 0 to nl - 1 do
          if (not seen.(y)) && Hashtbl.mem edges (x, y) then begin
            seen.(y) <- true;
            prev.(y) <- x;
            if y = v then found := true else Queue.add y q
          end
        done
      done;
      if not !found then []
      else begin
        let rec walk y acc = if y = u then acc else walk prev.(y) ((prev.(y), y) :: acc) in
        List.filter_map (fun (a, b) -> Hashtbl.find_opt edges (a, b)) (walk v [])
      end
    in
    for u = 0 to nl - 1 do
      for v = u + 1 to nl - 1 do
        if reach.(u).(v) && reach.(v).(u) then
          add
            (Finding.v ~rule:"lock-order-cycle"
               ~where:(Printf.sprintf "%s:%d" locks.(u).l_file locks.(u).l_line)
               (Printf.sprintf "%s and %s are acquired in both orders: [%s] vs [%s]"
                  locks.(u).l_name locks.(v).l_name
                  (String.concat "; " (path u v))
                  (String.concat "; " (path v u))))
      done
    done;
    (* ---- per-definition findings ---- *)
    let used = Array.make nl false in
    let locked_once = Array.make nl false in
    Array.iter
      (fun (d : Cg.def) ->
        match results.(d.Cg.d_id) with
        | None -> ()
        | Some r ->
            List.iter
              (fun (tok, l) ->
                add
                  (Finding.v ~rule:"lock-order-cycle" ~where:(where_tok d tok)
                     (Printf.sprintf
                        "%s re-acquires %s while already holding it (OCaml mutexes are not \
                         reentrant)"
                        (qualified d) locks.(l).l_name)))
              r.sr_self;
            let names ls = String.concat ", " (List.map (fun l -> locks.(l).l_name) ls) in
            let blocking_rule () =
              if hot_reach.(d.Cg.d_id) then ("lock-held-io", Finding.Error)
              else ("blocking-under-lock", Finding.Warn)
            in
            List.iter
              (fun (tok, op, eff) ->
                let rule, severity = blocking_rule () in
                add
                  (Finding.v ~severity ~rule ~where:(where_tok d tok)
                     (Printf.sprintf "%s: %s while holding %s" (qualified d) op (names eff))))
              r.sr_blocking;
            List.iter
              (fun (tok, c, held) ->
                let eff = List.filter (fun l -> not io_locked.(l)) held in
                if eff <> [] && blk.(c) then begin
                  let chain =
                    match Cg.witness g ~from:c ~target:(fun j -> direct_block.(j)) with
                    | Some ids -> String.concat " -> " (List.map (fun j -> qualified defs.(j)) ids)
                    | None -> qualified defs.(c)
                  in
                  let rule, severity = blocking_rule () in
                  add
                    (Finding.v ~severity ~rule ~where:(where_tok d tok)
                       (Printf.sprintf "%s calls %s, which may block (%s), while holding %s"
                          (qualified d) (qualified defs.(c)) chain (names eff)))
                end)
              r.sr_calls;
            List.iter
              (fun (tok, target) ->
                add
                  (Finding.v ~rule:"atomic-rmw" ~where:(where_tok d tok)
                     (Printf.sprintf
                        "%s: naked Atomic.get-then-Atomic.set read-modify-write on %s; use a \
                         compare_and_set retry loop or fetch_and_add"
                        (qualified d) target)))
              r.sr_rmw;
            (* useless-lock evidence: anything in a critical section that
               plausibly touches shared state — a field/module access, a
               mutation operator, or a resolved call. *)
            let body = d.Cg.d_body in
            let nb = Array.length body in
            List.iter
              (fun (l, start, stop) ->
                locked_once.(l) <- true;
                if not used.(l) then begin
                  let evidence_tok tj =
                    tj = "<-" || tj = ":=" || tj = "!" || tj = "incr" || tj = "decr"
                    || (String.contains tj '.'
                       && tj.[0] <> '.'
                       && not (tj.[0] >= '0' && tj.[0] <= '9')
                       && (not (String.starts_with ~prefix:"Mutex." tj))
                       && (not (String.starts_with ~prefix:"Condition." tj))
                       && (not (String.starts_with ~prefix:"Fun." tj))
                       && resolve_lock tbl d tj = None)
                  in
                  for j = start + 1 to min (stop - 1) (nb - 1) do
                    if evidence_tok body.(j).S.t then used.(l) <- true
                  done;
                  (* A site only counts when it is not the mutex itself:
                     the lock name resolves to its own defining binding. *)
                  List.iter
                    (fun (tok, _) ->
                      if
                        tok > start && tok < stop
                        && resolve_lock tbl d body.(tok).S.t = None
                      then used.(l) <- true)
                    g.Cg.sites.(d.Cg.d_id)
                end)
              r.sr_regions)
      defs;
    Array.iter
      (fun l ->
        if not locked_once.(l.l_id) then
          add
            (Finding.v ~severity:Finding.Warn ~rule:"useless-lock"
               ~where:(Printf.sprintf "%s:%d" l.l_file l.l_line)
               (Printf.sprintf "mutex %s is never acquired" l.l_name))
        else if not used.(l.l_id) then
          add
            (Finding.v ~severity:Finding.Warn ~rule:"useless-lock"
               ~where:(Printf.sprintf "%s:%d" l.l_file l.l_line)
               (Printf.sprintf "mutex %s is acquired but its critical sections guard nothing"
                  l.l_name)))
      locks;
    List.rev !findings
  end
