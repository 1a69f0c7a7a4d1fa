(* The end-to-end runs: the real `rexdex` binary as a separate process,
   at its defaults, over the seeded corpus, every answer checked against
   the reference.  Tracing is off throughout. *)

type env = {
  bin : string;
  dir : string;  (** per-run scratch inside the checkout *)
  rxc : string;
  artifact : Artifact.t;
  wrapper : Wrapper.t;
}

let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)
let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Unix.mkdir d 0o755
  end

let must what (wall, (e : Proc.exit)) =
  if e.code <> 0 then failwith (Printf.sprintf "%s exited %d" what e.code);
  wall

let rec remove path =
  match (Unix.lstat path).st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* `learn --save` on the two Figure 1 pages, then `compile` of the
   learned expression over the learned alphabet: the one .rxc both
   binaries load. *)
let prepare ~bin ~dir =
  remove dir;
  mkdir_p dir;
  let samples =
    List.map
      (fun (name, html) ->
        let p = Filename.concat dir name in
        write_file p html;
        p)
      (Corpus.training_pages ())
  in
  let wfile = Filename.concat dir "learned.rexdex" in
  ignore (must "rexdex learn" (Proc.run_quiet ~prog:bin ~args:(("learn" :: samples) @ [ "--save"; wfile ])));
  let field key =
    let prefix = key ^ ": " in
    match
      List.find_opt
        (fun l -> String.starts_with ~prefix l)
        (String.split_on_char '\n' (read_file wfile))
    with
    | Some l -> String.sub l (String.length prefix) (String.length l - String.length prefix)
    | None -> failwith ("learned wrapper has no " ^ key)
  in
  let syms = String.concat "," (String.split_on_char ' ' (field "alphabet")) in
  let rxc = Filename.concat dir "learned.rxc" in
  ignore
    (must "rexdex compile"
       (Proc.run_quiet ~prog:bin ~args:[ "compile"; "-a"; syms; field "expression"; "-o"; rxc ]));
  let artifact =
    match Artifact.load rxc with
    | Ok a -> a
    | Error e -> failwith (Artifact.error_to_string e)
  in
  if not (Extraction.matcher_online (Artifact.matcher artifact)) then
    failwith "the learned expression is not online; serve would refuse it";
  let wrapper =
    match Wrapper.of_artifact artifact with Ok w -> w | Error e -> failwith e
  in
  { bin; dir; rxc; artifact; wrapper }

(* Everything one workload needs per invocation, built at set-up. *)
type plan = {
  corpus : Corpus.t;
  invoke : unit -> Proc.run;
  setup_once : unit -> int * Proc.exit;
  check : Proc.lines -> Reference.verdict;
  expect_exit : int;
  frames : int;  (** frames per invocation (pages for batch) *)
  bytes : int;
}

let plan env (corpus : Corpus.t) =
  let alpha = env.artifact.Artifact.alpha in
  let matcher = Artifact.matcher env.artifact in
  let bin = env.bin in
  let serve_args = [ "serve"; "--load"; env.rxc ] in
  let docs = Array.length corpus.pages in
  match corpus.workload with
  | Corpus.Serve_pages ->
      let expect = Reference.serve alpha matcher corpus in
      {
        corpus;
        invoke =
          (fun () ->
            Proc.run_stdin ~prog:bin ~args:serve_args ~input:corpus.stream
              ~doc_offsets:corpus.open_at ());
        setup_once = (fun () -> Proc.run_quiet ~prog:bin ~args:serve_args);
        check = Reference.check_serve ~expect;
        expect_exit = 0;
        frames = Corpus.frame_count corpus;
        bytes = Corpus.input_bytes corpus;
      }
  | Corpus.Serve_tokens ->
      let expect = Reference.serve alpha matcher corpus in
      let sessions =
        Array.map (fun l -> String.concat "" (List.map (fun f -> f ^ "\n") l)) corpus.sessions
      in
      (* a relative path: sun_path is short, and the run stays inside
         the checkout *)
      let path = Filename.concat env.dir "serve.sock" in
      {
        corpus;
        invoke =
          (fun () ->
            Proc.run_socket ~prog:bin ~args:serve_args ~path ~window:(Corpus.window corpus.workload)
              ~sessions);
        setup_once = (fun () -> Proc.socket_setup ~prog:bin ~args:serve_args ~path);
        check = Reference.check_serve ~expect;
        expect_exit = 0;
        frames = Corpus.frame_count corpus;
        bytes = Corpus.input_bytes corpus;
      }
  | Corpus.Batch_pages ->
      let pdir = Filename.concat env.dir "pages" in
      mkdir_p pdir;
      let files =
        Array.mapi
          (fun i html ->
            let f = Filename.concat pdir (Printf.sprintf "p%05d.html" i) in
            write_file f html;
            f)
          corpus.pages
      in
      let empty = Filename.concat env.dir "empty.html" in
      write_file empty "";
      let expect, expect_exit = Reference.batch env.wrapper ~files corpus in
      let args = [ "batch"; "--load"; env.rxc ] in
      {
        corpus;
        invoke =
          (fun () -> Proc.run_batch ~prog:bin ~args:(args @ Array.to_list files) ~docs);
        setup_once = (fun () -> Proc.run_quiet ~prog:bin ~args:(args @ [ empty ]));
        check = Reference.check_batch ~expect;
        expect_exit;
        frames = docs;
        bytes = Corpus.input_bytes corpus;
      }

type sample = {
  wall_s : float;
  cpu_ms : float;
  rss_mb : float;
  p50_us : float;
  p99_us : float;
}

type result = {
  values : Report.value list;
  attempted : int;
  failed : int;
  exit_ok : bool;
  notes : string list;  (** sample counts, and a few failed documents *)
}

let one p =
  let r = p.invoke () in
  let v = p.check r.out in
  let lat = ref [] in
  Array.iteri
    (fun i t -> if t >= 0 then lat := (float_of_int (t - r.offered_ns.(i)) /. 1e3) :: !lat)
    v.answered_ns;
  (* with no document answered correctly, every one waited the whole run *)
  let lat = if !lat = [] then [| float_of_int r.wall_ns /. 1e3 |] else Array.of_list !lat in
  let s =
    {
      wall_s = float_of_int r.wall_ns /. 1e9;
      cpu_ms = float_of_int r.exit.cpu_us /. 1e3;
      rss_mb = float_of_int r.exit.maxrss_kb /. 1024.0;
      p50_us = Report.percentile 0.5 lat;
      p99_us = Report.percentile 0.99 lat;
    }
  in
  (s, v, r.exit.code = p.expect_exit, Array.length lat)

(* Alternate an empty-input invocation (set-up time) with a full one
   until [seconds] have passed, after one untimed warm-up pair so the
   page cache and lazy initialisation are settled. *)
let measure p ~seconds =
  ignore (p.setup_once ());
  ignore (one p);
  let deadline = Proc.now_ns () + int_of_float (seconds *. 1e9) in
  let setups = ref [] and samples = ref [] in
  let attempted = ref 0 and failed = ref 0 and exit_ok = ref true and problems = ref [] in
  let latencies = ref 0 in
  let continue = ref true in
  while !continue do
    let wall, e = p.setup_once () in
    if e.code <> 0 && e.code <> 1 then exit_ok := false;
    setups := (float_of_int wall /. 1e9) :: !setups;
    let s, v, ok, n_lat = one p in
    latencies := !latencies + n_lat;
    samples := s :: !samples;
    attempted := !attempted + v.attempted;
    failed := !failed + v.failed;
    if not ok then exit_ok := false;
    if !problems = [] then problems := v.problems;
    continue := Proc.now_ns () < deadline
  done;
  let samples = Array.of_list (List.rev !samples) in
  let mb = float_of_int p.bytes /. 1e6 in
  let docs = float_of_int (Array.length p.corpus.pages) in
  let col f = Array.map f samples in
  let metric name = List.find (fun m -> m.Report.name = name) Report.end_to_end in
  let v name f = Report.summarize (metric name) (col f) in
  {
    values =
      [
        Report.summarize (metric "setup_s") (Array.of_list (List.rev !setups));
        v "mb_per_s" (fun s -> mb /. s.wall_s);
        v "frames_per_s" (fun s -> float_of_int p.frames /. s.wall_s);
        v "docs_per_s" (fun s -> docs /. s.wall_s);
        v "session_p50_us" (fun s -> s.p50_us);
        v "session_p99_us" (fun s -> s.p99_us);
        v "cpu_ms_per_mb" (fun s -> s.cpu_ms /. mb);
        v "peak_rss_mb" (fun s -> s.rss_mb);
      ];
    attempted = !attempted;
    failed = !failed;
    exit_ok = !exit_ok;
    notes =
      Printf.sprintf
        "%d invocations of %d documents; session latency percentiles per invocation over %d samples in all"
        (Array.length samples) (Array.length p.corpus.pages) !latencies
      :: !problems;
  }
