(* A deliberately small fork-join pool over [Domain.spawn]. One batch per
   call: [map_array] spawns at most [jobs - 1] worker domains, the calling
   domain works too, and everyone pulls the next unclaimed index from a
   shared atomic counter (work stealing by index). Results land in a
   pre-sized output array at their input index, so the output order is the
   input order no matter which domain computed which element — that is the
   canonical-merge property the [Check.Share] certification relies on for
   byte-identical [--jobs 1] / [--jobs N] output. *)

let default_jobs () =
  match Domain.recommended_domain_count () with n when n >= 1 -> n | _ -> 1

let run_workers ~jobs ~n ~(work : int -> unit) =
  let next = Atomic.make 0 in
  (* First exception wins; the other domains drain the remaining indices
     normally (simpler than a cancellation protocol, and every [work] call
     in this repo is short). *)
  let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
  let worker () =
    let continue = ref true in
    while !continue do
      let k = Atomic.fetch_and_add next 1 in
      if k >= n then continue := false
      else
        try work k
        with e ->
          let bt = Printexc.get_raw_backtrace () in
          ignore (Atomic.compare_and_set error None (Some (e, bt)))
    done
  in
  let spawned = Array.init (min jobs n - 1) (fun _ -> Domain.spawn worker) in
  worker ();
  Array.iter Domain.join spawned;
  (* Re-raise the first failure with its original backtrace, after every
     domain has been joined (no orphan domains on error). *)
  match Atomic.get error with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let map_array ?jobs f a =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  let n = Array.length a in
  if jobs <= 1 || n <= 1 then Array.map f a
  else begin
    let out = Array.make n None in
    run_workers ~jobs ~n ~work:(fun k -> out.(k) <- Some (f a.(k)));
    Array.map (function Some v -> v | None -> assert false) out
  end

let init ?jobs n f =
  let jobs = match jobs with Some j -> max 1 j | None -> default_jobs () in
  if jobs <= 1 || n <= 1 then Array.init n f
  else begin
    let out = Array.make n None in
    run_workers ~jobs ~n ~work:(fun k -> out.(k) <- Some (f k));
    Array.map (function Some v -> v | None -> assert false) out
  end

module Background = struct
  (* Persistent variant for server loops: the domains live until their
     bodies decide to return, and [join] collects them once. Exceptions
     follow the same first-wins convention as [run_workers]. *)

  type t = {
    domains : unit Domain.t array;
    error : (exn * Printexc.raw_backtrace) option Atomic.t;
  }

  let spawn n body =
    let n = max 1 n in
    let error : (exn * Printexc.raw_backtrace) option Atomic.t = Atomic.make None in
    let guarded i =
      try body i
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set error None (Some (e, bt)))
    in
    { domains = Array.init n (fun i -> Domain.spawn (fun () -> guarded i)); error }

  let join t =
    Array.iter Domain.join t.domains;
    match Atomic.get t.error with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
end
