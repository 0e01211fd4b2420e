type response = { status : int; content_type : string; body : string }

let text ?(status = 200) body = { status; content_type = "text/plain; charset=utf-8"; body }
let json ?(status = 200) body = { status; content_type = "application/json"; body }

type route = string * (unit -> response)

type t = {
  sock : Unix.file_descr;
  stop_w : Unix.file_descr;
  server : unit Domain.t;
  port : int;
  stopped : bool Atomic.t;
}

let reason = function
  | 200 -> "OK"
  | 400 -> "Bad Request"
  | 404 -> "Not Found"
  | 405 -> "Method Not Allowed"
  | 500 -> "Internal Server Error"
  | _ -> "Status"

let write_response fd { status; content_type; body } =
  let head =
    Printf.sprintf
      "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n"
      status (reason status) content_type (String.length body)
  in
  let out = head ^ body in
  let len = String.length out in
  let pos = ref 0 in
  while !pos < len do
    pos := !pos + Unix.write_substring fd out !pos (len - !pos)
  done

(* Read until the end of the request head (CRLFCRLF) or a size cap; the
   routes are all GETs, so any body is ignored. Each read scans only the
   bytes it added, from 3 back so a terminator split across reads is
   found: the head is scanned once however it arrives. *)
let read_head fd =
  let buf = Buffer.create 512 in
  let chunk = Bytes.create 512 in
  let crlf i = Buffer.nth buf i = '\r' && Buffer.nth buf (i + 1) = '\n' in
  let rec terminated i =
    i + 3 < Buffer.length buf && ((crlf i && crlf (i + 2)) || terminated (i + 1))
  in
  let rec go () =
    let n =
      if Buffer.length buf > 16 * 1024 then 0 else Unix.read fd chunk 0 (Bytes.length chunk)
    in
    if n = 0 then Buffer.contents buf
    else begin
      let from = max 0 (Buffer.length buf - 3) in
      Buffer.add_subbytes buf chunk 0 n;
      if terminated from then Buffer.contents buf else go ()
    end
  in
  go ()

let handle routes fd =
  let head = read_head fd in
  let request_line = match String.index_opt head '\r' with
    | Some i -> String.sub head 0 i
    | None -> head
  in
  let response =
    match String.split_on_char ' ' request_line with
    | [ meth; target; _version ] ->
      if meth <> "GET" && meth <> "HEAD" then text ~status:405 "method not allowed\n"
      else begin
        (* Strip any query string; routes match on the path alone. *)
        let path =
          match String.index_opt target '?' with
          | Some i -> String.sub target 0 i
          | None -> target
        in
        match List.assoc_opt path routes with
        | None -> text ~status:404 (Printf.sprintf "no route %s\n" path)
        | Some f -> (
          try f ()
          with e -> text ~status:500 (Printf.sprintf "handler error: %s\n" (Printexc.to_string e)))
      end
    | _ -> text ~status:400 "malformed request line\n"
  in
  write_response fd response

let serve_loop sock stop_r routes =
  let running = ref true in
  while !running do
    match Unix.select [ sock; stop_r ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      if List.mem stop_r readable then running := false
      else if List.mem sock readable then begin
        match Unix.accept sock with
        | exception Unix.Unix_error (_, _, _) -> ()
        | fd, _addr ->
          (* One connection at a time: handlers are quick (format a
             snapshot) and serialising them means the Window scratch
             buffers see no extra route-level concurrency. *)
          (try handle routes fd with _ -> ());
          (try Unix.close fd with Unix.Unix_error (_, _, _) -> ())
      end
  done;
  (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
  try Unix.close stop_r with Unix.Unix_error (_, _, _) -> ()

let start ?(host = "127.0.0.1") ~port routes =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_of_string host, port));
      Unix.listen sock 16;
      let actual_port =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      let stop_r, stop_w = Unix.pipe () in
      let server = Domain.spawn (fun () -> serve_loop sock stop_r routes) in
      { sock; stop_w; server; port = actual_port; stopped = Atomic.make false }
    with e ->
      (try Unix.close sock with Unix.Unix_error (_, _, _) -> ());
      raise e
  in
  t

let port t = t.port

let stop t =
  if Atomic.compare_and_set t.stopped false true then begin
    (try ignore (Unix.write_substring t.stop_w "x" 0 1 : int)
     with Unix.Unix_error (_, _, _) -> ());
    Domain.join t.server;
    try Unix.close t.stop_w with Unix.Unix_error (_, _, _) -> ()
  end
