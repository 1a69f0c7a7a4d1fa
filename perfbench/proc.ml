(* Driving the real binary as a child process: spawn, feed, collect
   timestamped output, reap with wait4's CPU time and peak RSS. *)

external now_ns : unit -> int = "e20_now_ns" [@@noalloc]
external wait4 : int -> int * int * int = "e20_wait4"

type exit = {
  code : int;  (** exit code, or minus the signal number *)
  cpu_us : int;  (** user + sys *)
  maxrss_kb : int;
}

(* Children not yet reaped: killed and waited for at exit, so a run that
   fails midway leaves no daemon behind. *)
let live : (int, unit) Hashtbl.t = Hashtbl.create 4

let reap pid =
  let code, cpu_us, maxrss_kb = wait4 pid in
  Hashtbl.remove live pid;
  { code; cpu_us; maxrss_kb }

let () =
  at_exit (fun () ->
      Hashtbl.iter
        (fun pid () ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (wait4 pid) with Failure _ -> ())
        live)

let dev_null () = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0

let spawn ?(stdin = Unix.stdin) ?(stdout = Unix.stdout) ?(stderr = Unix.stderr)
    prog args =
  let pid = Unix.create_process prog (Array.of_list (prog :: args)) stdin stdout stderr in
  Hashtbl.replace live pid ();
  pid

(* Output lines of a run, each stamped with the time its newline was
   read. *)
type lines = { text : string array; at_ns : int array }

(* Output chunks with the time each was read, newest first. *)
type collector = (int * string) list ref

let collector () : collector = ref []
let collect (c : collector) buf n = c := (now_ns (), Bytes.sub_string buf 0 n) :: !c

let lines_of c =
  let text = ref [] and at = ref [] in
  let carry = Buffer.create 256 in
  List.iter
    (fun (t, s) ->
      let start = ref 0 in
      String.iteri
        (fun i ch ->
          if ch = '\n' then begin
            Buffer.add_substring carry s !start (i - !start);
            text := Buffer.contents carry :: !text;
            at := t :: !at;
            Buffer.clear carry;
            start := i + 1
          end)
        s;
      Buffer.add_substring carry s !start (String.length s - !start))
    (List.rev !c);
  { text = Array.of_list (List.rev !text); at_ns = Array.of_list (List.rev !at) }

let read_chunk = 65536

(* Write [input] to [out_fd] while reading [in_fd] until EOF, in one
   select loop so neither pipe can fill and stall the child.  Answers
   the collected output and, for each write call, the input offset it
   started at and its time. *)
let pump ~input ~out_fd ~in_fd =
  let c = collector () in
  let buf = Bytes.create read_chunk in
  let pos = ref 0 and n = String.length input in
  let writes = ref [] in
  let out_open = ref true in
  let close_out () =
    if !out_open then begin
      Unix.close out_fd;
      out_open := false
    end
  in
  if n = 0 then close_out () else Unix.set_nonblock out_fd;
  let eof = ref false in
  while not !eof do
    let wr = if !out_open then [ out_fd ] else [] in
    match Unix.select [ in_fd ] wr [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | r, w, _ ->
        if w <> [] then begin
          let len = min read_chunk (n - !pos) in
          let t = now_ns () in
          match Unix.write_substring out_fd input !pos len with
          | k ->
              writes := (!pos, t) :: !writes;
              pos := !pos + k;
              if !pos >= n then close_out ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
          | exception Unix.Unix_error (Unix.EPIPE, _, _) -> close_out ()
        end;
        if r <> [] then begin
          match Unix.read in_fd buf 0 read_chunk with
          | 0 -> eof := true
          | k -> collect c buf k
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
        end
  done;
  close_out ();
  (lines_of c, Array.of_list (List.rev !writes))

type run = {
  wall_ns : int;  (** spawn to the last answer *)
  exit : exit;
  out : lines;
  offered_ns : int array;  (** per document: when its first byte was offered *)
}

(* Time of the write call that offered byte [off] of the input. *)
let offered_at writes off =
  let lo = ref 0 and hi = ref (Array.length writes - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if fst writes.(mid) <= off then lo := mid else hi := mid - 1
  done;
  snd writes.(!lo)

let last_at ~since (out : lines) = Array.fold_left max since out.at_ns

(* [prog args] with [input] on stdin through a pipe, output collected
   from stdout. *)
let run_stdin ?(stderr = Unix.stderr) ~prog ~args ~input ~doc_offsets () =
  let child_in, to_child = Unix.pipe ~cloexec:true () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid = spawn ~stdin:child_in ~stdout:child_out ~stderr prog args in
  Unix.close child_in;
  Unix.close child_out;
  let out, writes = pump ~input ~out_fd:to_child ~in_fd:from_child in
  Unix.close from_child;
  let exit = reap pid in
  let offered_ns = Array.map (offered_at writes) doc_offsets in
  { wall_ns = last_at ~since:t0 out - t0; exit; out; offered_ns }

(* [prog args] with stdin and stdout on /dev/null: the wall time from
   spawn to exit. *)
let run_quiet ~prog ~args =
  let null = dev_null () in
  let t0 = now_ns () in
  let pid = spawn ~stdin:null ~stdout:null ~stderr:null prog args in
  let exit = reap pid in
  let wall = now_ns () - t0 in
  Unix.close null;
  (wall, exit)

(* Batch: no input on stdin, answers on stdout; every page is offered at
   spawn. *)
let run_batch ~prog ~args ~docs =
  let null = dev_null () in
  let from_child, child_out = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid = spawn ~stdin:null ~stdout:child_out ~stderr:null prog args in
  Unix.close child_out;
  Unix.close null;
  let c = collector () in
  let buf = Bytes.create read_chunk in
  let rec loop () =
    match Unix.read from_child buf 0 read_chunk with
    | 0 -> ()
    | k ->
        collect c buf k;
        loop ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
  in
  loop ();
  Unix.close from_child;
  let exit = reap pid in
  let out = lines_of c in
  { wall_ns = last_at ~since:t0 out - t0; exit; out; offered_ns = Array.make docs t0 }

(* --- socket mode --- *)

let connect path =
  let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect s (Unix.ADDR_UNIX path) with
  | () -> Some s
  | exception Unix.Unix_error _ ->
      Unix.close s;
      None

(* Poll until the daemon accepts; gives up after [timeout_s]. *)
let await_socket ?(timeout_s = 30.0) path =
  let deadline = now_ns () + int_of_float (timeout_s *. 1e9) in
  let rec go () =
    match connect path with
    | Some s -> s
    | None ->
        if now_ns () > deadline then failwith ("serve never accepted on " ^ path);
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let drain_to_eof fd =
  let buf = Bytes.create read_chunk in
  let rec go () =
    match Unix.read fd buf 0 read_chunk with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  go ()

let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  reap pid

(* Session id of an outgoing frame line ([-1] when it carries none). *)
let frame_id line =
  let n = String.length line in
  let rec find i =
    if i + 5 > n then -1
    else if line.[i] = '"' && String.sub line i 5 = "\"id\":" then digits (i + 5) (i + 5) 0
    else find (i + 1)
  and digits start j v =
    if j < n && line.[j] >= '0' && line.[j] <= '9' then digits start (j + 1) ((v * 10) + Char.code line.[j] - 48)
    else if j = start then -1
    else v
  in
  find 0

(* A frame after which the client expects nothing more for its session:
   the clean close or any per-session error. *)
let terminal line =
  String.starts_with ~prefix:"{\"err\"" line
  || String.starts_with ~prefix:"{\"ok\":\"closed\"" line

(* A client on one connection keeping [window] whole sessions in flight:
   each terminal frame releases the next session.  [sessions.(i)] is
   session [i]'s newline-terminated frames.  Answers the output lines,
   the per-session send times, and the time the last session ended. *)
let closed_loop ~fd ~window ~(sessions : string array) =
  let n = Array.length sessions in
  let c = collector () in
  let buf = Bytes.create read_chunk in
  let sent_ns = Array.make n 0 in
  let pending = Buffer.create 65536 in
  let wpos = ref 0 in
  let next = ref 0 and done_ = ref 0 in
  let carry = Buffer.create 256 in
  let release () =
    if !next < n then begin
      sent_ns.(!next) <- now_ns ();
      Buffer.add_string pending sessions.(!next);
      incr next
    end
  in
  Unix.set_nonblock fd;
  for _ = 1 to window do
    release ()
  done;
  let finished () = !done_ >= n in
  let eof = ref false in
  while (not (finished ())) && not !eof do
    let want_write = !wpos < Buffer.length pending in
    match Unix.select [ fd ] (if want_write then [ fd ] else []) [] 30.0 with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | [], [], _ -> failwith "serve stalled for 30 s"
    | r, w, _ ->
        if w <> [] then begin
          let len = Buffer.length pending - !wpos in
          match Unix.write_substring fd (Buffer.contents pending) !wpos len with
          | k ->
              wpos := !wpos + k;
              if !wpos = Buffer.length pending then begin
                Buffer.clear pending;
                wpos := 0
              end
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
        end;
        if r <> [] then begin
          match Unix.read fd buf 0 read_chunk with
          | 0 -> eof := true
          | k ->
              collect c buf k;
              for i = 0 to k - 1 do
                let ch = Bytes.get buf i in
                if ch = '\n' then begin
                  if terminal (Buffer.contents carry) then begin
                    incr done_;
                    release ()
                  end;
                  Buffer.clear carry
                end
                else if Buffer.length carry < 16 then Buffer.add_char carry ch
              done
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
            ->
              ()
        end
  done;
  let t_last = now_ns () in
  (* half-close: the daemon drains, answers the rest and closes *)
  Unix.clear_nonblock fd;
  (try Unix.shutdown fd Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
  let rec rest () =
    match Unix.read fd buf 0 read_chunk with
    | 0 -> ()
    | k ->
        collect c buf k;
        rest ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> rest ()
    | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ()
  in
  rest ();
  (lines_of c, sent_ns, t_last)

let run_socket ~prog ~args ~path ~window ~sessions =
  let null = dev_null () in
  let t0 = now_ns () in
  let pid = spawn ~stdin:null ~stdout:null ~stderr:null prog (args @ [ "--socket"; path ]) in
  Unix.close null;
  let fd = await_socket path in
  let out, sent_ns, t_last = closed_loop ~fd ~window ~sessions in
  Unix.close fd;
  let exit = stop pid in
  { wall_ns = t_last - t0; exit; out; offered_ns = sent_ns }

(* Set-up of a socket daemon: spawn until an empty connection is served
   and closed (bind, accept, Supervisor.create, drain). *)
let socket_setup ~prog ~args ~path =
  let null = dev_null () in
  let t0 = now_ns () in
  let pid = spawn ~stdin:null ~stdout:null ~stderr:null prog (args @ [ "--socket"; path ]) in
  Unix.close null;
  let fd = await_socket path in
  Unix.shutdown fd Unix.SHUTDOWN_SEND;
  drain_to_eof fd;
  let wall = now_ns () - t0 in
  Unix.close fd;
  let exit = stop pid in
  (wall, exit)
