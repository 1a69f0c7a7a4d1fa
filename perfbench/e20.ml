(* E20 entry point: one workload, one seed, end to end (--trace 0) or
   the per-layer traced run (--trace 1).  The last line of standard
   output is the JSON result; the lines before it are the report. *)

open E20lib

let usage () =
  prerr_endline
    "usage: e20.exe --bin PATH --workload serve-pages|serve-tokens|batch-pages --seed N \
     --seconds S --trace 0|1";
  exit 2

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let bin = ref "" and workload = ref "" and seed = ref (-1) and seconds = ref 0.0
  and trace = ref (-1) in
  Arg.parse
    [
      ("--bin", Arg.Set_string bin, "the rexdex executable");
      ("--workload", Arg.Set_string workload, "workload name");
      ("--seed", Arg.Set_int seed, "corpus seed");
      ("--seconds", Arg.Set_float seconds, "measured time");
      ("--trace", Arg.Set_int trace, "1: the traced per-layer run");
    ]
    (fun _ -> usage ())
    "e20";
  let workload = match Corpus.workload_of_name !workload with Some w -> w | None -> usage () in
  if !bin = "" || !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then usage ();
  let name = Corpus.workload_name workload in
  (* scratch for one run at a time: emptied here, so a long series of
     runs leaves only its span files behind *)
  let dir = Filename.concat ".perfbench_out" "work" in
  let env = Drive.prepare ~bin:!bin ~dir in
  let corpus = Corpus.make workload ~seed:!seed env.artifact.Artifact.alpha in
  let expected, values, attempted, failed, correct, notes =
    if !trace = 0 then
      let r = Drive.measure (Drive.plan env corpus) ~seconds:!seconds in
      (Report.end_to_end, r.values, r.attempted, r.failed, r.failed = 0 && r.exit_ok, r.notes)
    else begin
      let spans = Filename.concat ".perfbench_out" (Printf.sprintf "spans-%s-%d.csv" name !seed) in
      let r = Layers.run env corpus ~seconds:!seconds ~spans_path:spans in
      Printf.printf "# spans of the last round: %s\n" spans;
      Printf.printf "# %-32s %8s %12s %12s %14s\n" "span" "calls" "total_ms" "self_ms" "minor_words";
      List.iter
        (fun (label, (t : Trace.total)) ->
          Printf.printf "# %-32s %8d %12.3f %12.3f %14.0f\n" label t.count
            (float_of_int t.total_ns /. 1e6) (float_of_int t.self_ns /. 1e6) t.words)
        r.self_table;
      (Report.per_layer, r.values, r.attempted, r.failed, r.correct, r.notes)
    end
  in
  List.iter (fun p -> Printf.printf "# %s\n" p) notes;
  Report.print_human ~workload:name ~seed:!seed ~trace:!trace values;
  Printf.printf "# attempted %d failed %d failed_share %.6f\n" attempted failed
    (float_of_int failed /. float_of_int (max 1 attempted));
  print_endline (Report.json_line ~expected ~correct ~attempted ~failed values)
