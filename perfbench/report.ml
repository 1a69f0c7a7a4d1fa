(* Metric names, summary statistics, and the report: one human line per
   metric (median, quartiles, sample count) followed by the one-line
   JSON result. *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better; bound : float option }

let m ?bound name unit_ better = { name; unit_; better; bound }

(* Measured with tracing off, by driving the real binary.  Every metric
   applies to every workload; where a workload has no frames or sessions
   of its own, its unit of input stands in (see [Drive]).  [bound] is the
   share of the parent's median by which the metric may worsen. *)
let end_to_end =
  [
    m "setup_s" "s" Lower ~bound:0.25;
    m "mb_per_s" "MB/s" Higher ~bound:0.25;
    m "frames_per_s" "1/s" Higher ~bound:0.25;
    m "docs_per_s" "1/s" Higher ~bound:0.25;
    m "session_p50_us" "us" Lower ~bound:0.25;
    m "session_p99_us" "us" Lower ~bound:0.25;
    m "cpu_ms_per_mb" "ms/MB" Lower ~bound:0.25;
    m "peak_rss_mb" "MB" Lower ~bound:0.1;
  ]

(* Measured in process by the traced run, over the same corpus.  Each
   layer's comment names the end-to-end metric it should move. *)
let per_layer =
  [
    (* Frame: mb_per_s on serve-pages, frames_per_s on serve-tokens *)
    m "frame.decode_ns_per_frame" "ns" Lower;
    m "frame.decode_words_per_frame" "words" Lower;
    m "frame.encode_ns_per_frame" "ns" Lower;
    m "frame.encode_words_per_frame" "words" Lower;
    (* Supervisor: both serve throughputs and cpu_ms_per_mb *)
    m "supervisor.batch_ns_per_frame" "ns" Lower;
    m "supervisor.batch_words_per_frame" "words" Lower;
    m "supervisor.batch_ns_per_frame.jobs1" "ns" Lower;
    m "supervisor.self_ns_per_frame" "ns" Lower;
    (* Session: serve-tokens throughput and session_p99_us (feed);
       serve-pages (page) *)
    m "session.feed_ns_per_token" "ns" Lower;
    m "session.feed_words_per_token" "words" Lower;
    m "session.page_ns_per_kb" "ns" Lower;
    m "session.page_words_per_kb" "words" Lower;
    (* Front: mb_per_s on serve-pages; build_ms moves setup_s *)
    m "front.stream_ns_per_kb" "ns" Lower;
    m "front.stream_words_per_kb" "words" Lower;
    m "front.interner_hit_ratio" "ratio" Higher;
    m "front.extract_ns_per_page" "ns" Lower;
    m "front.build_ms" "ms" Lower;
    (* Extraction: both serve workloads, a small share *)
    m "extraction.step_ns_per_token" "ns" Lower;
    (* Html_tree and Tag_seq: docs_per_s on batch-pages only *)
    m "html_tree.parse_ns_per_page" "ns" Lower;
    m "html_tree.parse_words_per_page" "words" Lower;
    m "tag_seq.word_ns_per_page" "ns" Lower;
    (* Wrapper and Pool: docs_per_s on batch-pages; the pool counts are
       the workload's own binary path (serve: handle_batch, batch:
       extract_batch) *)
    m "wrapper.batch_ns_per_page" "ns" Lower;
    m "wrapper.batch_ns_per_page.jobs1" "ns" Lower;
    m "pool.chunks_per_batch" "count" Lower;
    m "pool.seq_fallback_ratio" "ratio" Higher;
    m "pool.steals_per_batch" "count" Lower;
    (* Artifact: setup_s *)
    m "artifact.load_ms" "ms" Lower;
    (* Serve: line split, read and write, derived; both serve throughputs *)
    m "serve.io_ns_per_frame" "ns" Lower;
  ]

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

let median a =
  let s = sorted a and n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then s.(n / 2)
  else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* Quartiles by the exclusive method of Python's statistics.quantiles,
   the one the spreads of this benchmark are judged by. *)
let quartiles a =
  let s = sorted a and n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (s.(0), s.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

(* Nearest-rank percentile, [p] in (0, 1]. *)
let percentile p a =
  let s = sorted a and n = Array.length a in
  if n = 0 then nan else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

type value = { metric : metric; samples : float array; value : float }

let summarize metric samples = { metric; samples; value = median samples }

let host_facts () =
  let read_first f = try In_channel.with_open_text f In_channel.input_line with _ -> None in
  let commit =
    match read_first ".git/HEAD" with
    | Some h when String.length h > 5 && String.sub h 0 5 = "ref: " -> (
        match read_first (".git/" ^ String.sub h 5 (String.length h - 5)) with
        | Some c -> c
        | None -> "unknown")
    | Some c -> c
    | None -> "unknown"
  in
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("ocaml", Sys.ocaml_version);
    ("commit", commit);
  ]

let print_human ~workload ~seed ~trace values =
  Printf.printf "# e20 workload=%s seed=%d trace=%d %s\n" workload seed trace
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ v) (host_facts ())));
  List.iter
    (fun v ->
      let q1, q3 = quartiles v.samples in
      Printf.printf "%-38s %14.4f %-6s q1 %.4f q3 %.4f n=%d\n" v.metric.name v.value
        v.metric.unit_ q1 q3 (Array.length v.samples))
    values

(* The last line of standard output.  Refuses a metric set that differs
   from [expected] or a value JSON cannot carry. *)
let json_line ~expected ~correct ~attempted ~failed values =
  let names = List.map (fun v -> v.metric.name) values in
  let want = List.map (fun m -> m.name) expected in
  if List.sort compare names <> List.sort compare want then
    failwith
      ("metric set differs from BENCHMARK.json: " ^ String.concat "," names);
  List.iter
    (fun v ->
      if not (Float.is_finite v.value) then
        failwith (Printf.sprintf "metric %s is not finite" v.metric.name))
    values;
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun v ->
            Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} v.metric.name v.value
              v.metric.unit_)
          values))
