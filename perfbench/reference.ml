(* Expected answers, computed in process on the slow path, and the
   checker that compares every session and every page against them. *)

(* Serve: the tree path (Html_tree.parse, Tag_seq.of_doc) and the
   offline matcher, rendered with Frame.encode.  A page with no match
   answers a closed frame with zero splits, which is a correct answer. *)
let serve_session alpha matcher id html =
  let word = Tag_seq.of_doc alpha (Html_tree.parse html) in
  let splits = Extraction.matcher_splits matcher word in
  List.map Frame.encode
    ((Frame.Opened { id } :: List.map (fun pos -> Frame.Split { id; pos }) splits)
    @ [ Frame.Closed { id; splits = List.length splits; tokens = Array.length word } ])

let serve alpha matcher (c : Corpus.t) = Array.mapi (serve_session alpha matcher) c.pages

(* Batch: Wrapper.extract on the tree path, in batch's output format.
   "No match" is a correct answer here too; batch then exits 1. *)
let batch_line w file html =
  match Wrapper.extract w (Html_tree.parse html) with
  | Ok path ->
      ( Printf.sprintf "%s: target at %s" file
          (String.concat "." (List.map string_of_int path)),
        true )
  | Error e -> (Format.asprintf "%s: %a" file Wrapper.pp_extract_error e, false)

(* The expected lines, and the exit code batch answers with them. *)
let batch w ~files (c : Corpus.t) =
  let r = Array.mapi (fun i html -> batch_line w files.(i) html) c.pages in
  (Array.map fst r, if Array.for_all snd r then 0 else 1)

type verdict = {
  attempted : int;
  failed : int;
  answered_ns : int array;
      (** per document: when its last answer line arrived, [-1] if the
          document failed *)
  problems : string list;  (** a few failed documents, for the report *)
}

let note problems i what = if List.length problems < 5 then Printf.sprintf "doc %d: %s" i what :: problems else problems

(* Serve output, demultiplexed by session id.  A session fails when its
   frames differ in any way from the reference (a shed, refused,
   decode, proto, budget or fault frame included); a frame that names no
   known session fails one more document. *)
let check_serve ~(expect : string list array) (out : Proc.lines) =
  let n = Array.length expect in
  let got = Array.make n [] and last = Array.make n (-1) in
  let orphans = ref 0 in
  Array.iteri
    (fun k line ->
      let id = Proc.frame_id line in
      if id >= 0 && id < n then begin
        got.(id) <- line :: got.(id);
        last.(id) <- out.at_ns.(k)
      end
      else incr orphans)
    out.text;
  let failed = ref 0 and problems = ref [] in
  for i = 0 to n - 1 do
    if List.rev got.(i) <> expect.(i) then begin
      incr failed;
      last.(i) <- -1;
      problems :=
        note !problems i
          (Printf.sprintf "expected [%s] got [%s]" (String.concat " " expect.(i))
             (String.concat " " (List.rev got.(i))))
    end
  done;
  if !orphans > 0 then problems := Printf.sprintf "%d frames without a known session" !orphans :: !problems;
  { attempted = n; failed = min n (!failed + !orphans); answered_ns = last; problems = List.rev !problems }

(* Batch output: one line per page, in page order. *)
let check_batch ~(expect : string array) (out : Proc.lines) =
  let n = Array.length expect in
  let failed = ref 0 and problems = ref [] in
  let answered = Array.make n (-1) in
  Array.iteri
    (fun i e ->
      if i < Array.length out.text && out.text.(i) = e then answered.(i) <- out.at_ns.(i)
      else begin
        incr failed;
        problems :=
          note !problems i
            (Printf.sprintf "expected %S got %S" e
               (if i < Array.length out.text then out.text.(i) else "<missing>"))
      end)
    expect;
  let extra = max 0 (Array.length out.text - n) in
  { attempted = n; failed = min n (!failed + extra); answered_ns = answered; problems = List.rev !problems }
