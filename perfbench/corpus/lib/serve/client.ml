type t = {
  fd : Unix.file_descr;
  buf : Bytes.t;  (* reusable read chunk *)
  inbuf : Buffer.t;  (* undecoded reply bytes *)
  mutable alive : bool;
}

let chunk = 8192

let finish_connect fd =
  (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error (_e, _, _) -> ());
  Ok { fd; buf = Bytes.create chunk; inbuf = Buffer.create 256; alive = true }

(* Bounded connect: non-blocking connect, select on writability, then
   SO_ERROR tells refused from established. *)
let connect_deadline fd sockaddr tmo =
  Unix.set_nonblock fd;
  let outcome =
    match Unix.connect fd sockaddr with
    | () -> Ok ()
    | exception Unix.Unix_error (Unix.EINPROGRESS, _, _) -> (
        match Unix.select [] [ fd ] [] tmo with
        | _, [], _ ->
            Obs.Metric.Counter.incr Metrics.client_timeouts;
            Error "connect timed out"
        | _, _ :: _, _ -> (
            match Unix.getsockopt_error fd with
            | None -> Ok ()
            | Some err -> Error (Unix.error_message err))
        | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err))
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  in
  (match outcome with Ok () -> Unix.clear_nonblock fd | Error _ -> ());
  outcome

let connect ?(host = "127.0.0.1") ?timeout_s ~port () =
  match Unix.inet_addr_of_string host with
  | exception Failure _ -> Error (Printf.sprintf "not an IPv4/IPv6 literal: %s" host)
  | addr -> (
      let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      let sockaddr = Unix.ADDR_INET (addr, port) in
      let fail msg =
        (try Unix.close fd with Unix.Unix_error (_e, _, _) -> ());
        Error (Printf.sprintf "connect %s:%d: %s" host port msg)
      in
      match timeout_s with
      | Some tmo when tmo > 0.0 -> (
          match connect_deadline fd sockaddr tmo with
          | Ok () -> finish_connect fd
          | Error msg -> fail msg)
      | Some _ | None -> (
          match Unix.connect fd sockaddr with
          | () -> finish_connect fd
          | exception Unix.Unix_error (err, _, _) -> fail (Unix.error_message err)))

let close t =
  if t.alive then begin
    t.alive <- false;
    try Unix.close t.fd with Unix.Unix_error (_e, _, _) -> ()
  end

let write_all t s =
  let n = String.length s in
  let rec loop off =
    if off >= n then Ok ()
    else
      match Unix.write_substring t.fd s off (n - off) with
      | written -> loop (off + written)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop off
      | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  in
  loop 0

(* True when the fd turns readable before [deadline]; an infinite
   deadline skips the select and lets the read block. *)
let wait_readable fd ~deadline =
  if not (Float.is_finite deadline) then true
  else begin
    let remaining = deadline -. Obs.Clock.now_s () in
    if remaining <= 0.0 then false
    else
      match Unix.select [ fd ] [] [] remaining with
      | [], _, _ -> false
      | _ :: _, _, _ -> true
      | exception Unix.Unix_error (_e, _, _) -> true (* the read reports it *)
  end

let rec read_reply t ~deadline =
  let data = Buffer.contents t.inbuf in
  match Wire.decode_response data with
  | Ok (resp, next) ->
      let len = String.length data in
      Buffer.clear t.inbuf;
      Buffer.add_substring t.inbuf data next (len - next);
      Ok resp
  | Error Wire.Truncated ->
      if not (wait_readable t.fd ~deadline) then begin
        Obs.Metric.Counter.incr Metrics.client_timeouts;
        Error "timed out waiting for reply"
      end
      else (
        match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
        | 0 -> Error "connection closed by server"
        | n ->
            Buffer.add_subbytes t.inbuf t.buf 0 n;
            read_reply t ~deadline
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_reply t ~deadline
        | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err))
  | Error e -> Error (Wire.error_to_string e)

let call ?timeout_s t req =
  if not t.alive then Error "connection already closed"
  else
    let deadline =
      match timeout_s with
      | Some s when s > 0.0 -> Obs.Clock.now_s () +. s
      | Some _ | None -> Float.infinity
    in
    match write_all t (Wire.encode_request req) with
    | Error e -> Error e
    | Ok () -> read_reply t ~deadline

(* ------------------------------ retries ---------------------------- *)

let idempotent = function
  | Wire.Path_query _ | Wire.Stats | Wire.Health -> true
  | Wire.Demand_update _ | Wire.Link_event _ | Wire.Reload -> false

type retry = { attempts : int; base_backoff_s : float; max_backoff_s : float; seed : int }

let default_retry = { attempts = 3; base_backoff_s = 0.05; max_backoff_s = 1.0; seed = 7 }

(* Exponential backoff with full jitter: uniform in [0, min(max, base *
   2^try)). Seeded, so a fixed-seed harness gets a fixed schedule. *)
let backoff_s retry prng ~try_ =
  let cap =
    Float.min
      (Float.max 0.0 retry.max_backoff_s)
      (Float.max 0.0 retry.base_backoff_s *. float_of_int (1 lsl Int.min try_ 16))
  in
  Eutil.Prng.range prng 0.0 cap

let retriable_reply = function
  | Wire.Error_reply { code; _ } -> code = Wire.err_overloaded || code = Wire.err_deadline
  | _ -> false

let request ?host ?connect_timeout_s ?timeout_s ?retry ~port req =
  let with_retry = (match retry with Some _ -> true | None -> false) && idempotent req in
  let rcfg = match retry with Some r -> r | None -> default_retry in
  let attempts = if with_retry then Int.max 1 rcfg.attempts else 1 in
  let prng = Eutil.Prng.create rcfg.seed in
  let rec go try_ =
    let outcome =
      match connect ?host ?timeout_s:connect_timeout_s ~port () with
      | Error e -> Error e
      | Ok c ->
          let r = call ?timeout_s c req in
          close c;
          r
    in
    let transient =
      match outcome with Ok resp -> retriable_reply resp | Error _ -> true
    in
    if transient && try_ + 1 < attempts then begin
      Obs.Metric.Counter.incr Metrics.client_retries;
      Unix.sleepf (backoff_s rcfg prng ~try_);
      go (try_ + 1)
    end
    else outcome
  in
  go 0

(* ------------------------------- http ------------------------------ *)

let header_end raw =
  let n = String.length raw in
  let rec scan i =
    if i + 3 >= n then None
    else if raw.[i] = '\r' && raw.[i + 1] = '\n' && raw.[i + 2] = '\r' && raw.[i + 3] = '\n'
    then Some (i + 4)
    else scan (i + 1)
  in
  scan 0

let parse_http raw =
  match header_end raw with
  | None -> Error "malformed HTTP response: no header terminator"
  | Some body_at -> (
      match String.index_opt raw ' ' with
      | None -> Error "malformed HTTP status line"
      | Some sp ->
          let code_end =
            match String.index_from_opt raw (sp + 1) ' ' with Some j -> j | None -> body_at
          in
          let code = String.sub raw (sp + 1) (code_end - sp - 1) in
          if String.equal code "200" then
            Ok (String.sub raw body_at (String.length raw - body_at))
          else Error ("HTTP status " ^ code))

let slurp t =
  let rec go () =
    match Unix.read t.fd t.buf 0 (Bytes.length t.buf) with
    | 0 -> Ok (Buffer.contents t.inbuf)
    | n ->
        Buffer.add_subbytes t.inbuf t.buf 0 n;
        go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
  in
  go ()

let http_get ?(host = "127.0.0.1") ~port ~path () =
  match connect ~host ~port () with
  | Error e -> Error e
  | Ok t -> (
      let request = Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n" path host in
      let raw =
        match write_all t request with Error e -> Error e | Ok () -> slurp t
      in
      close t;
      match raw with Error e -> Error e | Ok raw -> parse_http raw)
