(* The traced run: in process, over the workload's corpus, time the
   public functions of each layer with a span around every call, and
   derive the per-layer metrics from the spans.  Rounds of all passes
   repeat until the run's time is used; each metric is the median over
   rounds.  The spans of the last round are written out at the end. *)

type ctx = {
  env : Drive.env;
  corpus : Corpus.t;
  alpha : Alphabet.t;
  matcher : Extraction.matcher;
  table : Front.table;
  lines : string list;  (** the corpus stream, one frame per line *)
  batches : string list list;  (** [lines] as serve batches them *)
  chunks : string list array;  (** per page: its page-frame chunks *)
  runs : string list list array;  (** per page: its token-frame runs *)
  words : Word.t array;  (** per page: its symbol word *)
  tr : Trace.t;
}

(* Serve reads 64 KiB at a time and hands each read's complete lines to
   the supervisor, at most [Serve.default_batch_max] at a time; replay
   the same cuts over the corpus stream. *)
let serve_batches stream =
  let n = String.length stream in
  let batches = ref [] and carry = ref 0 and pos = ref 0 in
  while !pos < n do
    let stop = min n (!pos + 65536) in
    let lines = ref [] in
    let start = ref !carry in
    for i = !pos to stop - 1 do
      if stream.[i] = '\n' then begin
        lines := String.sub stream !start (i - !start) :: !lines;
        start := i + 1
      end
    done;
    carry := !start;
    pos := stop;
    let rec cut = function
      | [] -> ()
      | l ->
          let rec take k acc = function
            | rest when k = 0 -> (List.rev acc, rest)
            | [] -> (List.rev acc, [])
            | x :: rest -> take (k - 1) (x :: acc) rest
          in
          let b, rest = take Serve.default_batch_max [] l in
          batches := b :: !batches;
          cut rest
    in
    cut (List.rev !lines)
  done;
  List.rev !batches

let context env (corpus : Corpus.t) =
  let alpha = env.Drive.artifact.Artifact.alpha in
  let table = Front.build alpha in
  let seed = corpus.seed in
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' corpus.stream) in
  {
    env;
    corpus;
    alpha;
    matcher = Artifact.matcher env.artifact;
    table;
    lines;
    batches = serve_batches corpus.stream;
    chunks = Array.mapi (Corpus.page_chunks ~seed) corpus.pages;
    runs = Array.mapi (fun i html -> Corpus.token_runs ~seed i (Corpus.tag_names alpha html)) corpus.pages;
    words = Array.map (Front.word table) corpus.pages;
    tr = Trace.create ();
  }

let sp c label = Trace.intern c.tr label

let each_page c ~parent label f =
  let name = sp c label in
  Array.iteri (fun i x -> Trace.span c.tr name ~parent ~sid:i (fun () -> f i x)) c.corpus.pages

(* Groups of at most [n] consecutive pages, the size of one batch
   invocation, so the traced run never holds more trees than batch does. *)
let groups n a =
  let len = Array.length a in
  List.init ((len + n - 1) / n) (fun g -> Array.to_list (Array.sub a (g * n) (min n (len - (g * n)))))

type round = {
  metrics : (string * float) list;
  sup_jobs1_ns : float;
  encode_ns : float;
  outputs : Frame.outgoing list list list;
      (** what handle_batch answered, at the default jobs and at jobs 1 *)
}

let supervisor_config c jobs =
  {
    Supervisor.matcher = c.matcher;
    alpha = c.alpha;
    jobs;
    max_sessions = 64 (* serve's default --max-sessions *);
    fuel = None;
    deadline_ms = None;
    retry_after_ms = Supervisor.default_retry_after_ms;
    heal = None;
  }

let pool_delta f =
  let p0 = Pool.stats () in
  let r = f () in
  (r, Pool.delta_stats ~earlier:p0 (Pool.stats ()))

let one_round c ~round_span =
  let tr = c.tr in
  let n_pages = Array.length c.corpus.pages in
  let call label ~parent ~sid f = Trace.span tr (sp c label) ~parent ~sid f in
  let group label f = call label ~parent:round_span ~sid:(-1) (fun () -> f (tr.Trace.n - 1)) in
  (* set-up layers *)
  group "pass.artifact" (fun p ->
      for _ = 1 to 10 do
        ignore (call "artifact.load" ~parent:p ~sid:(-1) (fun () -> Artifact.load c.env.rxc))
      done);
  group "pass.front_build" (fun p ->
      for _ = 1 to 10 do
        ignore (call "front.build" ~parent:p ~sid:(-1) (fun () -> Front.build c.alpha))
      done);
  (* Frame.decode over every line of the stream *)
  group "pass.decode" (fun p ->
      List.iter
        (fun l -> ignore (Sys.opaque_identity (call "frame.decode" ~parent:p ~sid:(-1) (fun () -> Frame.decode l))))
        c.lines);
  (* Session: token feeds, and page feeds plus finish *)
  group "pass.session_feed" (fun p ->
      Array.iteri
        (fun i runs ->
          let s =
            call "session.create.tokens" ~parent:p ~sid:i (fun () ->
                Session.create ~matcher:c.matcher ~alpha:c.alpha ~id:i ~ordinal:i ~front:c.table ())
          in
          List.iter (fun r -> ignore (call "session.feed" ~parent:p ~sid:i (fun () -> Session.feed s r))) runs;
          ignore (call "session.feed_finish" ~parent:p ~sid:i (fun () -> Session.finish s)))
        c.runs);
  group "pass.session_page" (fun p ->
      Array.iteri
        (fun i chunks ->
          let s =
            call "session.create.pages" ~parent:p ~sid:i (fun () ->
                Session.create ~matcher:c.matcher ~alpha:c.alpha ~id:i ~ordinal:i ~front:c.table ())
          in
          List.iter
            (fun ch -> ignore (call "session.page" ~parent:p ~sid:i (fun () -> Session.feed_page s ch)))
            chunks;
          ignore (call "session.page" ~parent:p ~sid:i (fun () -> Session.finish s)))
        c.chunks);
  (* Front: streaming with a no-op emit, and whole-page extraction *)
  let f0 = Front.stats () in
  group "pass.front_stream" (fun p ->
      Array.iteri
        (fun i chunks ->
          call "front.stream" ~parent:p ~sid:i (fun () ->
              let st = Front.stream_make c.table in
              List.iter (fun ch -> ignore (Front.stream_feed st ch ~emit:ignore)) chunks;
              ignore (Front.stream_finish st ~emit:ignore)))
        c.chunks);
  let f1 = Front.stats () in
  group "pass.front_extract" (fun p ->
      each_page c ~parent:p "front.extract" (fun _ html ->
          ignore (Sys.opaque_identity (Front.extract c.table c.matcher html))));
  (* Extraction: the streaming matcher over pre-resolved words *)
  group "pass.extraction" (fun p ->
      Array.iteri
        (fun i w ->
          call "extraction.step" ~parent:p ~sid:i (fun () ->
              Seq.iter ignore (Extraction.matcher_stream_splits c.matcher (Array.to_seq w))))
        c.words);
  (* Html_tree and Tag_seq *)
  group "pass.tree" (fun p ->
      each_page c ~parent:p "html_tree.parse" (fun i html ->
          let doc = Html_tree.parse html in
          ignore
            (Sys.opaque_identity
               (call "tag_seq.word" ~parent:(tr.Trace.n - 1) ~sid:i (fun () -> Tag_seq.of_doc c.alpha doc)))));
  (* Wrapper.extract_batch, at the default jobs and at jobs 1 *)
  let w = c.env.wrapper in
  let batch_groups = groups (Corpus.default_size Corpus.Batch_pages) c.corpus.pages in
  let wrapper_pass label jobs =
    group ("pass." ^ label) (fun p ->
        List.iter
          (fun g ->
            let docs = List.map Html_tree.parse g in
            ignore (call label ~parent:p ~sid:(-1) (fun () -> Wrapper.extract_batch ?jobs w docs)))
          batch_groups)
  in
  (* minor words are counted per domain, so the words metrics come from
     the jobs-1 passes, where all the work runs on this domain *)
  let (), batch_pool = pool_delta (fun () -> wrapper_pass "wrapper.batch" None) in
  wrapper_pass "wrapper.batch.jobs1" (Some 1);
  (* Supervisor.handle_batch over serve's own batch cuts *)
  let sup_pass label jobs =
    let sup = Supervisor.create (supervisor_config c jobs) in
    let outs = ref [] in
    group ("pass." ^ label) (fun p ->
        List.iter
          (fun b -> outs := call label ~parent:p ~sid:(-1) (fun () -> Supervisor.handle_batch sup b) :: !outs)
          c.batches);
    ignore (Supervisor.drain sup);
    List.rev !outs
  in
  let outs_default, serve_pool =
    pool_delta (fun () -> sup_pass "supervisor.batch" (Batch.recommended_jobs ()))
  in
  let outs = sup_pass "supervisor.batch.jobs1" 1 in
  (* Frame.encode over what the supervisor answered *)
  group "pass.encode" (fun p ->
      List.iter
        (List.iter (fun f -> ignore (Sys.opaque_identity (call "frame.encode" ~parent:p ~sid:(-1) (fun () -> Frame.encode f)))))
        outs);
  let tot = Trace.totals tr in
  let t label =
    match List.assoc_opt label tot with Some a -> a | None -> failwith ("no spans named " ^ label)
  in
  let ns label = float_of_int (t label).Trace.total_ns in
  let words label = (t label).Trace.words in
  let count label = float_of_int (t label).Trace.count in
  let frames = float_of_int (List.length c.lines) in
  let tokens = float_of_int (Array.fold_left (fun a w -> a + Array.length w) 0 c.words) in
  let kb = float_of_int (Corpus.page_bytes c.corpus) /. 1024.0 in
  let pages = float_of_int n_pages in
  let pool_of = match c.corpus.workload with Corpus.Batch_pages -> batch_pool | _ -> serve_pool in
  let per_batch x = float_of_int x /. float_of_int (max 1 pool_of.Pool.batches) in
  let session_ns =
    match c.corpus.workload with
    | Corpus.Serve_tokens -> ns "session.create.tokens" +. ns "session.feed" +. ns "session.feed_finish"
    | _ -> ns "session.create.pages" +. ns "session.page"
  in
  let r =
    [
      ("frame.decode_ns_per_frame", ns "frame.decode" /. frames);
      ("frame.decode_words_per_frame", words "frame.decode" /. frames);
      ("frame.encode_ns_per_frame", ns "frame.encode" /. count "frame.encode");
      ("frame.encode_words_per_frame", words "frame.encode" /. count "frame.encode");
      ("supervisor.batch_ns_per_frame", ns "supervisor.batch" /. frames);
      ("supervisor.batch_words_per_frame", words "supervisor.batch.jobs1" /. frames);
      ("supervisor.batch_ns_per_frame.jobs1", ns "supervisor.batch.jobs1" /. frames);
      ( "supervisor.self_ns_per_frame",
        (ns "supervisor.batch.jobs1" -. ns "frame.decode" -. session_ns) /. frames );
      ("session.feed_ns_per_token", ns "session.feed" /. tokens);
      ("session.feed_words_per_token", words "session.feed" /. tokens);
      ("session.page_ns_per_kb", ns "session.page" /. kb);
      ("session.page_words_per_kb", words "session.page" /. kb);
      ("front.stream_ns_per_kb", ns "front.stream" /. kb);
      ("front.stream_words_per_kb", words "front.stream" /. kb);
      ( "front.interner_hit_ratio",
        let h = f1.Front.interner_hits - f0.Front.interner_hits
        and m = f1.Front.interner_misses - f0.Front.interner_misses in
        float_of_int h /. float_of_int (max 1 (h + m)) );
      ("front.extract_ns_per_page", ns "front.extract" /. pages);
      ("front.build_ms", ns "front.build" /. count "front.build" /. 1e6);
      ("extraction.step_ns_per_token", ns "extraction.step" /. tokens);
      ("html_tree.parse_ns_per_page", float_of_int (t "html_tree.parse").Trace.self_ns /. pages);
      ("html_tree.parse_words_per_page", (words "html_tree.parse" -. words "tag_seq.word") /. pages);
      ("tag_seq.word_ns_per_page", ns "tag_seq.word" /. pages);
      ("wrapper.batch_ns_per_page", ns "wrapper.batch" /. pages);
      ("wrapper.batch_ns_per_page.jobs1", ns "wrapper.batch.jobs1" /. pages);
      ("pool.chunks_per_batch", per_batch pool_of.Pool.chunks);
      ("pool.seq_fallback_ratio", per_batch pool_of.Pool.seq_fallbacks);
      ("pool.steals_per_batch", per_batch pool_of.Pool.steals);
      ("artifact.load_ms", ns "artifact.load" /. count "artifact.load" /. 1e6);
    ]
  in
  {
    metrics = r;
    sup_jobs1_ns = ns "supervisor.batch.jobs1";
    encode_ns = ns "frame.encode";
    outputs = [ outs_default; outs ];
  }

(* `serve --stats` counters on stderr: "name value" pairs under
   "serve stats:". *)
let serve_stats text =
  let lines = String.split_on_char '\n' text in
  let rec section = function
    | [] -> []
    | l :: rest when String.trim l = "serve stats:" -> body rest
    | _ :: rest -> section rest
  and body = function
    | l :: rest when String.length l > 2 && String.sub l 0 2 = "  " ->
        let words = List.filter (( <> ) "") (String.split_on_char ' ' l) in
        let rec pairs = function
          | k :: v :: more -> (k, int_of_string v) :: pairs more
          | _ -> []
        in
        pairs words @ body rest
    | _ -> []
  in
  section lines

(* The measured layers must account for the serve-pages end-to-end time
   at jobs 1: set-up + handle_batch + encode may differ from the wall
   time by at most this share of it.  The rest is line split, read and
   write, which have no public entry point (serve.io_ns_per_frame). *)
let reconcile_tolerance = 0.25

type result = {
  values : Report.value list;
  attempted : int;
  failed : int;
  correct : bool;
  notes : string list;
  self_table : (string * Trace.total) list;  (** last round, per span name *)
}

let run env (corpus : Corpus.t) ~seconds ~spans_path =
  let c = context env corpus in
  let frames = List.length c.lines and docs = Array.length corpus.pages in
  let expect = Reference.serve c.alpha c.matcher corpus in
  let attempted = ref 0 and failed = ref 0 and notes = ref [] in
  let verdict (v : Reference.verdict) =
    attempted := !attempted + v.attempted;
    failed := !failed + v.failed;
    notes := List.rev_append v.problems !notes
  in
  (* serve --jobs 1 end to end, untraced, for serve.io and the
     reconciliation; its --stats counters must match the corpus *)
  let args = [ "serve"; "--load"; env.Drive.rxc; "--jobs"; "1" ] in
  let stats_file = Filename.concat env.dir "serve-stats.txt" in
  let walls =
    Array.init 5 (fun _ ->
        let fd = Unix.openfile stats_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o644 in
        let r =
          Proc.run_stdin ~stderr:fd ~prog:env.bin ~args:(args @ [ "--stats" ]) ~input:corpus.stream
            ~doc_offsets:corpus.open_at ()
        in
        Unix.close fd;
        verdict (Reference.check_serve ~expect r.out);
        float_of_int r.wall_ns)
  in
  let setups = Array.init 5 (fun _ -> float_of_int (fst (Proc.run_quiet ~prog:env.bin ~args))) in
  let e2e_ns = Report.median walls and setup_ns = Report.median setups in
  let counters = serve_stats (Drive.read_file stats_file) in
  let want =
    [
      ("frames", frames); ("opened", docs); ("closed", docs); ("shed", 0); ("refused", 0);
      ("faulted", 0); ("budget", 0); ("decode-errors", 0); ("proto-errors", 0);
    ]
  in
  let counters_ok =
    List.for_all
      (fun (k, v) ->
        let got = List.assoc_opt k counters in
        if got <> Some v then
          notes :=
            Printf.sprintf "serve --stats %s = %s, corpus has %d" k
              (match got with Some g -> string_of_int g | None -> "missing")
              v
            :: !notes;
        got = Some v)
      want
  in
  (* traced rounds *)
  let deadline = Proc.now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref [] in
  let continue = ref true in
  while !continue do
    Trace.reset c.tr;
    let root = Trace.enter c.tr (sp c "round") ~parent:Trace.root ~sid:(-1) in
    let r = one_round c ~round_span:root in
    Trace.leave c.tr root;
    rounds := r :: !rounds;
    continue := Proc.now_ns () < deadline
  done;
  let rounds = List.rev !rounds in
  let last = List.nth rounds (List.length rounds - 1) in
  List.iter
    (fun outs ->
      let text = Array.of_list (List.map Frame.encode (List.concat outs)) in
      verdict (Reference.check_serve ~expect { text; at_ns = Array.make (Array.length text) 0 }))
    last.outputs;
  Trace.write c.tr spans_path;
  let per_round f = Array.of_list (List.map f rounds) in
  let io r = (e2e_ns -. setup_ns -. r.sup_jobs1_ns -. r.encode_ns) /. float_of_int frames in
  let metric name = List.find (fun m -> m.Report.name = name) Report.per_layer in
  let values =
    List.map
      (fun (name, _) -> Report.summarize (metric name) (per_round (fun r -> List.assoc name r.metrics)))
      last.metrics
    @ [ Report.summarize (metric "serve.io_ns_per_frame") (per_round io) ]
  in
  let sup_ns = Report.median (per_round (fun r -> r.sup_jobs1_ns))
  and enc_ns = Report.median (per_round (fun r -> r.encode_ns)) in
  let rest_ns = e2e_ns -. setup_ns -. sup_ns -. enc_ns in
  let residual = rest_ns /. e2e_ns in
  let reconciled = Float.abs residual <= reconcile_tolerance in
  notes :=
    Printf.sprintf
      "serve --jobs 1: wall %.1f ms = set-up %.1f + handle_batch %.1f + encode %.1f + rest %.1f \
       (%.1f%% of wall; tolerance %.0f%%, %s)"
      (e2e_ns /. 1e6) (setup_ns /. 1e6) (sup_ns /. 1e6) (enc_ns /. 1e6) (rest_ns /. 1e6)
      (100.0 *. residual) (100.0 *. reconcile_tolerance)
      (if corpus.workload = Corpus.Serve_pages then "enforced" else "reported only")
    :: !notes;
  let reconciled_ok = reconciled || corpus.workload <> Corpus.Serve_pages in
  {
    values;
    attempted = !attempted;
    failed = !failed;
    correct = !failed = 0 && counters_ok && reconciled_ok;
    notes = List.rev !notes;
    self_table = Trace.totals c.tr;
  }
