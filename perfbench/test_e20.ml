open E20lib

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let figure1_alpha () = Wrapper.alphabet_for [ Pagegen.figure1_top (); Pagegen.figure1_bottom () ]

let learned () =
  let sample d = (d, Option.get (Pagegen.target_path d)) in
  match Wrapper.learn [ sample (Pagegen.figure1_top ()); sample (Pagegen.figure1_bottom ()) ] with
  | Ok w -> w
  | Error _ -> failwith "learning the Figure 1 wrapper failed"

(* The same seed gives byte-identical inputs; another seed other inputs. *)
let test_corpus () =
  let alpha = figure1_alpha () in
  List.iter
    (fun w ->
      let name = Corpus.workload_name w in
      let a = Corpus.make ~size:40 w ~seed:7 alpha and b = Corpus.make ~size:40 w ~seed:7 alpha in
      let c = Corpus.make ~size:40 w ~seed:8 alpha in
      check (name ^ ": same seed, same bytes") (a.stream = b.stream && a.pages = b.pages);
      check (name ^ ": other seed, other bytes") (a.stream <> c.stream && a.pages <> c.pages))
    Corpus.all_workloads

let lines text = { Proc.text = Array.of_list text; at_ns = Array.make (List.length text) 0 }

let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then s
    else if String.sub s i n = sub then String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

(* The checker passes the reference itself and flags each corruption. *)
let test_checker () =
  let w = learned () in
  let alpha = w.Wrapper.alpha and matcher = w.Wrapper.matcher in
  let c = Corpus.make ~size:40 Corpus.Serve_pages ~seed:3 alpha in
  let expect = Reference.serve alpha matcher c in
  let all = List.concat (Array.to_list expect) in
  let failed out = (Reference.check_serve ~expect (lines out)).failed in
  check "serve: the reference passes" (failed all = 0);
  let is_split l = String.starts_with ~prefix:"{\"split\"" l in
  let dropped =
    let seen = ref false in
    List.filter (fun l -> if is_split l && not !seen then (seen := true; false) else true) all
  in
  check "serve: a dropped split fails" (List.exists is_split all && failed dropped = 1);
  let relabel ~from ~into l =
    replace ~sub:(Printf.sprintf "\"id\":%d" from) ~by:(Printf.sprintf "\"id\":%d" into) l
  in
  (* a session whose answer differs from session 0's in more than its id *)
  let j =
    List.find
      (fun k -> List.map (relabel ~from:k ~into:0) expect.(k) <> expect.(0))
      (List.init 39 succ)
  in
  let swap l =
    match Proc.frame_id l with
    | 0 -> relabel ~from:0 ~into:j l
    | k when k = j -> relabel ~from:j ~into:0 l
    | _ -> l
  in
  check "serve: swapped session ids fail" (failed (List.map swap all) = 2);
  let files = Array.init 40 (Printf.sprintf "p%05d.html") in
  let bexpect, _ = Reference.batch w ~files c in
  let bfailed out = (Reference.check_batch ~expect:bexpect (lines out)).failed in
  check "batch: the reference passes" (bfailed (Array.to_list bexpect) = 0);
  let changed =
    let seen = ref false in
    Array.to_list
      (Array.map
         (fun l ->
           if !seen || not (String.ends_with ~suffix:".1" l || String.ends_with ~suffix:".0" l) then l
           else begin
             seen := true;
             String.sub l 0 (String.length l - 1) ^ "7"
           end)
         bexpect)
  in
  check "batch: one changed page path fails" (bfailed changed = 1)

let read_json path =
  match Obs.Json.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (path ^ ": " ^ e)

let list_of = function Obs.Json.List l -> l | _ -> failwith "expected a JSON list"

(* A tiny run of every workload, end to end and traced, prints exactly
   the names BENCHMARK.json declares, and answers correctly. *)
let test_names ~bench ~bin =
  let j = read_json bench in
  let names key = List.map (fun m -> Obs.Json.(get_str (member "name" m))) (list_of (Obs.Json.member key j)) in
  let described key ms =
    List.sort compare
      (List.map
         (fun m ->
           Obs.Json.
             ( get_str (member "name" m),
               get_str (member "unit" m),
               get_str (member "better" m),
               match member "bound" m with Float f -> Some f | Null -> None | _ -> failwith "bound" ))
         (list_of (Obs.Json.member key j)))
    = List.sort compare
        (List.map
           (fun (m : Report.metric) ->
             (m.name, m.unit_, (match m.better with Report.Lower -> "lower" | Higher -> "higher"), m.bound))
           ms)
  in
  check "BENCHMARK.json workloads" (names "workloads" = List.map Corpus.workload_name Corpus.all_workloads);
  check "BENCHMARK.json end_to_end" (described "end_to_end" Report.end_to_end);
  check "BENCHMARK.json per_layer" (described "per_layer" Report.per_layer);
  let env = Drive.prepare ~bin ~dir:(Filename.concat ".perfbench_out" "test") in
  List.iter
    (fun w ->
      let name = Corpus.workload_name w in
      let corpus = Corpus.make ~size:24 w ~seed:11 env.artifact.Artifact.alpha in
      let e = Drive.measure (Drive.plan env corpus) ~seconds:0.001 in
      let printed vs = List.sort compare (List.map (fun (v : Report.value) -> v.metric.name) vs) in
      check (name ^ ": end-to-end names") (printed e.values = List.sort compare (names "end_to_end"));
      check (name ^ ": end-to-end answers correct") (e.failed = 0 && e.exit_ok && e.attempted > 0);
      let t =
        Layers.run env corpus ~seconds:0.001 ~spans_path:(Filename.concat env.dir "spans.csv")
      in
      check (name ^ ": per-layer names") (printed t.values = List.sort compare (names "per_layer"));
      check (name ^ ": traced answers correct") (t.failed = 0 && t.attempted > 0))
    Corpus.all_workloads

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  test_corpus ();
  test_checker ();
  test_names ~bench:Sys.argv.(1) ~bin:Sys.argv.(2);
  if !failures > 0 then begin
    Printf.printf "%d checks failed\n" !failures;
    exit 1
  end
