(* Tests for the HTML substrate: lexer, tree builder, serializer,
   tag-sequence abstraction, path/mark mapping. *)

open Helpers

let check_tokens msg expected html =
  let got =
    Html_lexer.tokenize html
    |> List.map (fun t ->
           match t with
           | Html_token.Start_tag { name; _ } -> name
           | Html_token.End_tag n -> "/" ^ n
           | Html_token.Text _ -> "#text"
           | Html_token.Comment _ -> "#comment"
           | Html_token.Doctype _ -> "#doctype")
  in
  Alcotest.(check (list string)) msg expected got

let test_lexer_basics () =
  check_tokens "simple" [ "P"; "#text"; "/P" ] "<p>hello</p>";
  check_tokens "attrs"
    [ "A"; "#text"; "/A" ]
    {|<a href="x.html" class='c' data-k>go</a>|};
  check_tokens "self-closing" [ "BR" ] "<br />";
  check_tokens "comment + doctype"
    [ "#doctype"; "#comment"; "P"; "/P" ]
    "<!DOCTYPE html><!-- hi --><p></p>";
  check_tokens "case folding" [ "DIV"; "/DIV" ] "<DiV></dIv>"

let test_lexer_attrs () =
  let toks = Html_lexer.tokenize {|<input type="text" checked value=42>|} in
  match toks with
  | [ (Html_token.Start_tag _ as t) ] ->
      (match Html_token.attr t "type" with
      | Some (Some "text") -> ()
      | _ -> Alcotest.fail "type attr");
      (match Html_token.attr t "checked" with
      | Some None -> ()
      | _ -> Alcotest.fail "valueless attr");
      (match Html_token.attr t "value" with
      | Some (Some "42") -> ()
      | _ -> Alcotest.fail "unquoted attr");
      (match Html_token.attr t "missing" with
      | None -> ()
      | _ -> Alcotest.fail "missing attr")
  | _ -> Alcotest.fail "expected one start tag"

let test_lexer_malformed () =
  (* Must never raise; stray < is text. *)
  check_tokens "stray lt" [ "#text" ] "a < b";
  check_tokens "unterminated tag" [ "P" ] "<p";
  check_tokens "empty" [] "";
  check_tokens "unterminated comment" [ "#comment" ] "<!-- oops"

let test_lexer_script () =
  check_tokens "script body is raw"
    [ "SCRIPT"; "#text"; "/SCRIPT"; "P"; "/P" ]
    {|<script>if (a<b) { x = "<p>"; }</script><p></p>|}

let test_lexer_numeric_refs () =
  let check input expected =
    Alcotest.(check string) input expected (Html_lexer.decode_entities input)
  in
  (* decimal digits, or x/X then hex digits; leading zeros are digits *)
  check "&#65;" "A";
  check "&#x41;" "A";
  check "&#X41;" "A";
  check "&#x6a;&#x6A;" "jj";
  check "&#0065;" "A";
  check "&#x20;" " ";
  check "&#00000065;" "A";
  (* signs, underscores and radix prefixes are not digits *)
  List.iter
    (fun s -> check s s)
    [
      "&#0x41;"; "&#0o101;"; "&#0b1000001;"; "&#6_5;"; "&#+65;"; "&#-65;";
      "&#0u65;"; "&# 65;"; "&#x;"; "&#;"; "&#xG1;"; "&#65x;"; "&#x41h;";
    ];
  (* printable ASCII only, within the 10-character window *)
  List.iter
    (fun s -> check s s)
    [ "&#31;"; "&#127;"; "&#x7f;"; "&#000000065;" ];
  check "a&#x3C;b" "a<b"

let test_tree_nesting () =
  let doc = Html_tree.parse "<div><p>one</p><p>two</p></div>" in
  match doc with
  | [ Html_tree.Element { name = "DIV"; children = [ p1; p2 ]; _ } ] ->
      (match p1 with
      | Html_tree.Element { name = "P"; children = [ Html_tree.Text "one" ]; _ }
        ->
          ()
      | _ -> Alcotest.fail "p1 shape");
      (match p2 with
      | Html_tree.Element { name = "P"; _ } -> ()
      | _ -> Alcotest.fail "p2 shape")
  | _ -> Alcotest.fail "div shape"

let test_tree_void_and_implied () =
  (* <p> is implicitly closed by the following block element. *)
  let doc = Html_tree.parse "<p>text<h1>title</h1>" in
  (match doc with
  | [ Html_tree.Element { name = "P"; _ }; Html_tree.Element { name = "H1"; _ } ]
    ->
      ()
  | _ -> Alcotest.fail "implied </p>");
  (* void elements never nest children *)
  let doc2 = Html_tree.parse "<div><br>after</div>" in
  match doc2 with
  | [
   Html_tree.Element
     {
       name = "DIV";
       children =
         [ Html_tree.Element { name = "BR"; children = []; _ }; Html_tree.Text _ ];
       _;
     };
  ] ->
      ()
  | _ -> Alcotest.fail "void BR"

let test_tree_table_implied () =
  let doc = Html_tree.parse "<table><tr><td>a<td>b<tr><td>c</table>" in
  match Html_tree.find_elements "TR" doc with
  | [ (_, Html_tree.Element { children = c1; _ }); (_, _) ] ->
      check_int "first row has two cells" 2 (List.length c1)
  | l -> Alcotest.failf "expected 2 rows, got %d" (List.length l)

let test_tree_unmatched_end () =
  let doc = Html_tree.parse "<div>a</span>b</div>" in
  match doc with
  | [ Html_tree.Element { name = "DIV"; children; _ } ] ->
      check_int "both texts kept" 2 (List.length children)
  | _ -> Alcotest.fail "unmatched end tag dropped"

let test_roundtrip_stability () =
  (* parse ∘ to_string ∘ parse = parse *)
  let sources =
    [
      "<div><p>one</p><br><img src=\"x\"></div>";
      "<table><tr><td><form><input type=\"text\"></form></td></tr></table>";
      "<p>a<p>b<p>c";
    ]
  in
  List.iter
    (fun src ->
      let d1 = Html_tree.parse src in
      let d2 = Html_tree.parse (Html_tree.to_string d1) in
      check_bool (Printf.sprintf "stable: %s" src) true (Html_tree.equal d1 d2))
    sources

let test_paths () =
  let doc = Html_tree.parse "<div><p>a</p><p>b</p></div><hr>" in
  (match Html_tree.node_at doc [ 0; 1 ] with
  | Some (Html_tree.Element { name = "P"; _ }) -> ()
  | _ -> Alcotest.fail "node_at 0.1");
  (match Html_tree.node_at doc [ 1 ] with
  | Some (Html_tree.Element { name = "HR"; _ }) -> ()
  | _ -> Alcotest.fail "node_at 1");
  check_bool "dangling path" true (Html_tree.node_at doc [ 0; 5 ] = None);
  (* insert then re-read *)
  (match Html_tree.insert_at doc [ 0; 1 ] (Html_tree.element "B" []) with
  | Some doc' -> (
      match Html_tree.node_at doc' [ 0; 1 ] with
      | Some (Html_tree.Element { name = "B"; _ }) -> ()
      | _ -> Alcotest.fail "inserted node not found")
  | None -> Alcotest.fail "insert failed");
  (* replace (delete) *)
  match Html_tree.replace_at doc [ 0; 0 ] (fun _ -> []) with
  | Some doc' -> (
      match Html_tree.node_at doc' [ 0; 0 ] with
      | Some (Html_tree.Element { name = "P"; children = [ Html_tree.Text "b" ]; _ })
        ->
          ()
      | _ -> Alcotest.fail "sibling did not shift")
  | None -> Alcotest.fail "replace failed"

let test_find_elements () =
  let doc = Html_tree.parse "<form><input><input></form><input>" in
  check_int "three inputs" 3 (List.length (Html_tree.find_elements "input" doc));
  check_int "one form" 1 (List.length (Html_tree.find_elements "FORM" doc))

(* --- tag sequences --- *)

let test_tag_seq_basics () =
  let doc = Html_tree.parse "<p>x</p><form><input></form>" in
  let alpha = Tag_seq.alphabet_of_docs [ doc ] in
  let word = Tag_seq.of_doc alpha doc in
  check_string "sequence" "P /P FORM INPUT /FORM" (Word.to_string alpha word)

let test_tag_seq_void_no_close () =
  let doc = Html_tree.parse "<div><br><img src='x'></div>" in
  let alpha = Tag_seq.alphabet_of_docs [ doc ] in
  check_bool "no /BR symbol" true (Alphabet.find alpha "/BR" = None);
  check_string "sequence" "DIV BR IMG /DIV"
    (Word.to_string alpha (Tag_seq.of_doc alpha doc))

let test_mark_roundtrip () =
  let doc =
    Html_tree.parse "<form><input type='a'><input type='b'><input type='c'></form>"
  in
  let alpha = Tag_seq.alphabet_of_docs [ doc ] in
  (* mark the middle input: path [0; 1] *)
  match Tag_seq.mark_of_path alpha doc [ 0; 1 ] with
  | None -> Alcotest.fail "mark_of_path"
  | Some (word, i) ->
      check_int "position of 2nd input" 2 i;
      check_string "word" "FORM INPUT INPUT INPUT /FORM"
        (Word.to_string alpha word);
      (match Tag_seq.path_of_mark alpha doc i with
      | Some [ 0; 1 ] -> ()
      | _ -> Alcotest.fail "path_of_mark inverse");
      (* text/comment targets are rejected *)
      let doc2 = Html_tree.parse "<p>just text</p>" in
      check_bool "text target rejected" true
        (Tag_seq.mark_of_path alpha doc2 [ 0; 0 ] = None)

let test_figure1_sequences () =
  let top = Pagegen.figure1_top () in
  let bottom = Pagegen.figure1_bottom () in
  let alpha = Tag_seq.alphabet_of_docs [ top; bottom ] in
  (* §3's abstraction of the two documents (modulo <p> auto-closing,
     which our tree builder makes explicit). *)
  check_string "top" "P /P H1 /H1 P /P FORM INPUT INPUT BR INPUT BR INPUT /FORM"
    (Word.to_string alpha (Tag_seq.of_doc alpha top));
  check_string "bottom"
    "TABLE TR TH IMG /TH /TR TR TD H1 /H1 /TD /TR TR TD A /A /TD /TR TR TD \
     FORM INPUT INPUT INPUT BR INPUT /FORM /TD /TR /TABLE"
    (Word.to_string alpha (Tag_seq.of_doc alpha bottom));
  (* the marked element is the 2nd INPUT of the form in both *)
  (match Pagegen.target_path top with
  | Some path -> (
      match Tag_seq.mark_of_path alpha top path with
      | Some (word, i) ->
          check_bool "marks an INPUT" true
            (Alphabet.name alpha word.(i) = "INPUT");
          check_int "2nd input of top page" 8 i
      | None -> Alcotest.fail "mark top")
  | None -> Alcotest.fail "target top");
  match Pagegen.target_path bottom with
  | Some path -> (
      match Tag_seq.mark_of_path alpha bottom path with
      | Some (word, i) ->
          check_bool "marks an INPUT" true
            (Alphabet.name alpha word.(i) = "INPUT")
      | None -> Alcotest.fail "mark bottom")
  | None -> Alcotest.fail "target bottom"

(* --- abstraction levels --- *)

let test_abstraction_symbols () =
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let attrs v = [ { Html_token.name = "type"; value = v } ] in
  check_string "refined" "INPUT:type=text"
    (Abstraction.start_symbol abs "input" (attrs (Some "Text")));
  check_string "valueless attr falls back" "INPUT"
    (Abstraction.start_symbol abs "INPUT" (attrs None));
  check_string "missing attr falls back" "INPUT"
    (Abstraction.start_symbol abs "INPUT" []);
  check_string "unrefined element" "DIV"
    (Abstraction.start_symbol abs "div" (attrs (Some "x")));
  check_string "plain tags never refine" "INPUT"
    (Abstraction.start_symbol Abstraction.Tags "INPUT" (attrs (Some "text")));
  check_string "end symbol" "/FORM" (Abstraction.end_symbol "form")

let test_tag_seq_refined () =
  let abs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let doc =
    Html_tree.parse {|<form><input type="image"><input type="text"></form>|}
  in
  let alpha = Tag_seq.alphabet_of_docs ~abs [ doc ] in
  check_string "refined sequence"
    "FORM INPUT:type=image INPUT:type=text /FORM"
    (Word.to_string alpha (Tag_seq.of_doc ~abs alpha doc));
  (* refined symbols survive the expression parser (identifier chars) *)
  let e = Regex_parse.parse alpha "FORM INPUT:type=image INPUT:type=text /FORM" in
  check_bool "parseable as regex" true
    (Lang.mem (Lang.of_regex alpha e) (Tag_seq.of_doc ~abs alpha doc));
  (* mark/path roundtrip under refinement *)
  match Tag_seq.mark_of_path ~abs alpha doc [ 0; 1 ] with
  | Some (_, i) -> (
      check_int "mark position" 2 i;
      match Tag_seq.path_of_mark ~abs alpha doc i with
      | Some [ 0; 1 ] -> ()
      | _ -> Alcotest.fail "path_of_mark under refinement")
  | None -> Alcotest.fail "mark_of_path under refinement"

let prop_serializer_roundtrip =
  (* Generated trees survive to_string ∘ parse. *)
  let gen_tree =
    let open QCheck.Gen in
    let tag = oneofl [ "DIV"; "P"; "TABLE"; "TR"; "TD"; "FORM"; "A"; "B" ] in
    let rec node n =
      if n <= 0 then map (fun t -> Html_tree.element t []) tag
      else
        frequency
          [
            (2, map (fun t -> Html_tree.element t []) tag);
            (1, return (Html_tree.text "x"));
            ( 3,
              map2
                (fun t kids -> Html_tree.element t kids)
                tag
                (list_size (int_bound 3) (node (n - 1))) );
          ]
    in
    list_size (int_bound 4) (node 3)
  in
  qtest ~count:100 "serializer/parser fixpoint"
    (QCheck.make
       ~print:(fun d -> Html_tree.to_string d)
       gen_tree)
    (fun doc ->
      (* P cannot nest inside P (implied end tags); normalize once, then
         require stability. *)
      let d1 = Html_tree.parse (Html_tree.to_string doc) in
      let d2 = Html_tree.parse (Html_tree.to_string d1) in
      Html_tree.equal d1 d2)

(* --- fused front-end (Front) ---

   Deterministic spot checks of the fused pass against the
   materializing pipeline on the lexer/builder edge cases the property
   suites might only graze: entity decoding inside attribute values,
   raw-text elements with extended close names, implied end tags,
   self-closing syntax, comment/doctype shapes, and junk. *)

let front_word ~abs alpha s =
  match Front.word (Front.build ~abs alpha) s with
  | w -> Ok (Word.to_string alpha w)
  | exception Tag_seq.Unknown_symbol t -> Error t

let tree_word ~abs alpha s =
  match Tag_seq.of_doc ~abs alpha (Html_tree.parse s) with
  | w -> Ok (Word.to_string alpha w)
  | exception Tag_seq.Unknown_symbol t -> Error t

let tricky_pages =
  [
    "<p>one<p>two<div>three</div>";
    "<ul><li>a<li>b<li>c</ul>";
    "<table><tr><td>a<td>b<tr><td>c</table>";
    "<form><input type=\"text\"><br/><input></form>";
    "<div/>text<br>";
    "<script>if (a < b) { document.write(\"</div>\"); }</script><p>after";
    "<script>x</scriptfoo><p>tail";
    "<style>p > a { color: red }</style><b>x</b>";
    "<!-- <p>not a tag</p> --><div>real</div>";
    "<!-- unterminated comment <p>";
    "<!doctype html><p>x</p>";
    "<p>a &lt; b &amp;&amp; c &gt; d &quot;q&quot; &#65;</p>";
    "<p>&#32;&#32;</p><div>x</div>";
    "<p>&bogus; &#xyz; &toolongtobeanentity; text</p>";
    "<p>&#x20;</p><div>&#0x20;</div><p>&#X20;&#+32;&#3_2;</p><b>&#x0020;</b>";
    "<form><input type=\"&#x74;ext\"><input type=\"&#X72;adio\">\
     <input type=\"&#0x74;ext\"><input type=&#116;ext></form>";
    "<form><input type=><input type=\"\"><input type= ''><p>after</form>";
    "<p>a < b</p>";
    "<div></ div><p>x</p>";
    "<div></div junk junk><p>x</p>";
    "<a href=\"x>y\">link</a>";
    "<input type = \"radio\" checked><select><option>a<option>b</select>";
    "<DIV><P>UPPER</P></DIV><dIv>mixed</DiV>";
  ]

let test_front_tricky_pages () =
  List.iter
    (fun abs ->
      List.iter
        (fun s ->
          let alpha = Tag_seq.alphabet_of_docs ~abs [ Html_tree.parse s ] in
          Alcotest.(check (result string string))
            s (tree_word ~abs alpha s) (front_word ~abs alpha s))
        tricky_pages)
    [ Abstraction.Tags; Abstraction.Tags_with_attrs [ ("INPUT", "type") ] ]

let test_front_figure1 () =
  List.iter
    (fun doc ->
      let s = Html_tree.to_string doc in
      let abs = Abstraction.Tags in
      let alpha = Tag_seq.alphabet_of_docs ~abs [ doc ] in
      Alcotest.(check (result string string))
        "figure1 fused ≡ tree" (tree_word ~abs alpha s)
        (front_word ~abs alpha s))
    [ Pagegen.figure1_top (); Pagegen.figure1_bottom () ]

let test_front_chunking_every_cut () =
  let s =
    "<div><p>a &amp; b<script>\"</div>\"</script><table><tr><td>x<td>y</table></div>"
  in
  let abs = Abstraction.Tags in
  let alpha = Tag_seq.alphabet_of_docs ~abs [ Html_tree.parse s ] in
  let tbl = Front.build ~abs alpha in
  let oneshot = Array.to_list (Front.word tbl s) in
  for cut = 0 to String.length s do
    let acc = ref [] in
    let emit a = acc := a :: !acc in
    let st = Front.stream_make tbl in
    (match Front.stream_feed st (String.sub s 0 cut) ~emit with
    | Ok () -> ()
    | Error t -> Alcotest.failf "chunk 1 at %d: unknown %s" cut t);
    (match
       Front.stream_feed st (String.sub s cut (String.length s - cut)) ~emit
     with
    | Ok () -> ()
    | Error t -> Alcotest.failf "chunk 2 at %d: unknown %s" cut t);
    (match Front.stream_finish st ~emit with
    | Ok () -> ()
    | Error t -> Alcotest.failf "finish at %d: unknown %s" cut t);
    Alcotest.(check (list int))
      (Printf.sprintf "cut at %d" cut)
      oneshot (List.rev !acc)
  done

(* A numeric reference that decodes to a space keeps a text run
   all-space, so it adds no text node and does not shift the next
   element's child index; a malformed one is text.  The fused path must
   place the P exactly where the tree does. *)
let test_front_entity_paths () =
  let alpha = Alphabet.make [ "DIV"; "/DIV"; "P"; "/P" ] in
  let m = Extraction.compile (Extraction.parse alpha "DIV <P> .*") in
  let tbl = Front.build alpha in
  List.iter
    (fun (ent, index) ->
      let s = "<div>" ^ ent ^ "<p>x</p></div>" in
      let tree =
        match Html_tree.find_elements "P" (Html_tree.parse s) with
        | (path, _) :: _ -> path
        | [] -> Alcotest.fail "no P in the tree"
      in
      Alcotest.(check (list int)) (s ^ " (tree)") [ 0; index ] tree;
      match Front.extract tbl m s with
      | Ok path -> Alcotest.(check (list int)) s tree path
      | Error _ -> Alcotest.failf "%s: fused extraction failed" s)
    [
      ("&#32;", 0); ("&#x20;", 0); ("&#X20;", 0); ("&#032;", 0);
      (" &#x0020; &#32; ", 0); ("&#0x20;", 1); ("&#+32;", 1); ("&#3_2;", 1);
      ("&#x20", 1); ("&#x2g;", 1); ("&#65;", 1);
    ]

(* --- allocation and counter contracts of the fused front-end --- *)

let one_byte = Array.init 256 (fun c -> String.make 1 (Char.chr c))

(* Minor words of one stream over [k] copies of a Figure 1 page, fed
   whole or one byte per feed.  Chunks and the sink are built before
   counting, so the count is the engine's own. *)
let stream_words tbl page ~k ~bytewise =
  let html = String.concat "" (List.init k (fun _ -> page)) in
  let chunks =
    if bytewise then
      Array.init (String.length html) (fun i -> one_byte.(Char.code html.[i]))
    else [| html |]
  in
  let sum = ref 0 in
  let emit sym = sum := !sum + sym in
  let w0 = Gc.minor_words () in
  let st = Front.stream_make tbl in
  for i = 0 to Array.length chunks - 1 do
    match Front.stream_feed st chunks.(i) ~emit with
    | Ok () -> ()
    | Error t -> Alcotest.failf "unknown %s" t
  done;
  (match Front.stream_finish st ~emit with
  | Ok () -> ()
  | Error t -> Alcotest.failf "unknown %s" t);
  let w = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity !sum);
  w

let test_front_no_alloc_per_tag () =
  List.iter
    (fun (abs, doc) ->
      let page = Html_tree.to_string doc in
      let tbl = Front.build ~abs (Tag_seq.alphabet_of_docs ~abs [ doc ]) in
      List.iter
        (fun bytewise ->
          ignore (stream_words tbl page ~k:1 ~bytewise);
          let w1 = stream_words tbl page ~k:1 ~bytewise in
          let w8 = stream_words tbl page ~k:8 ~bytewise in
          (* one word per tag would be 7 × (tags per copy) more *)
          check_bool
            (Printf.sprintf "k=8 allocates as k=1 (%s): %.0f vs %.0f words"
               (if bytewise then "1-byte chunks" else "whole page")
               w8 w1)
            true
            (Float.abs (w8 -. w1) <= 4.))
        [ false; true ])
    [
      (Abstraction.Tags, Pagegen.figure1_top ());
      (Abstraction.Tags, Pagegen.figure1_bottom ());
      ( Abstraction.Tags_with_attrs [ ("INPUT", "type") ],
        Pagegen.figure1_top () );
    ]

exception Stop

let chunks_every k s =
  List.init ((String.length s + k - 1) / k) (fun i ->
      String.sub s (i * k) (min k (String.length s - (i * k))))

let interner_delta f =
  let s0 = Front.stats () in
  f ();
  let s1 = Front.stats () in
  ( s1.Front.interner_hits - s0.Front.interner_hits,
    s1.Front.interner_misses - s0.Front.interner_misses )

(* stream [chunks]; [emit] raises on the [stop_after]th symbol, after
   which the stream is fed on or, with [abandon], dropped — a session
   whose budget runs out mid-page ends like that *)
let stream_run ?(stop_after = -1) ?(abandon = false) tbl chunks =
  let n = ref 0 and stopped = ref false in
  let emit _ =
    incr n;
    if !n = stop_after then raise Stop
  in
  let st = Front.stream_make tbl in
  List.iter
    (fun c ->
      if not (abandon && !stopped) then
        match Front.stream_feed st c ~emit with
        | Ok () | Error _ -> ()
        | exception Stop -> stopped := true)
    chunks;
  if not (abandon && !stopped) then ignore (Front.stream_finish st ~emit)

(* Interner traffic is counted per lookup, re-scans of a carried tag
   included, and published once per feed; these deltas were measured
   with per-lookup atomic counting and must not move. *)
let test_front_interner_counts () =
  let top = Html_tree.to_string (Pagegen.figure1_top ()) in
  let bottom = Html_tree.to_string (Pagegen.figure1_bottom ()) in
  let raw =
    "<div><p>a &#32; b<script>\"</div>\"</script><style>p{}</style ><!-- c \
     --><table><tr><td>x<td>y</table><blink>z</blink></div>"
  in
  let abs = Abstraction.Tags in
  let alpha =
    Tag_seq.alphabet_of_docs ~abs
      [ Html_tree.parse top; Html_tree.parse bottom ]
  in
  let tbl = Front.build ~abs alpha in
  let rabs = Abstraction.Tags_with_attrs [ ("INPUT", "type") ] in
  let rtbl =
    Front.build ~abs:rabs
      (Tag_seq.alphabet_of_docs ~abs:rabs [ Html_tree.parse top ])
  in
  let raw_tbl =
    Front.build ~abs
      (Alphabet.make
         [ "DIV"; "/DIV"; "P"; "/P"; "SCRIPT"; "/SCRIPT"; "STYLE"; "/STYLE";
           "TABLE"; "/TABLE" ])
  in
  List.iter
    (fun (name, f, expected) ->
      Alcotest.(check (pair int int)) name expected (interner_delta f))
    [
      ("top whole", (fun () -> ignore (Front.word tbl top)), (14, 0));
      ("bottom whole", (fun () -> ignore (Front.word tbl bottom)), (30, 0));
      ( "top halves",
        (fun () ->
          let c = String.length top / 2 in
          stream_run tbl
            [ String.sub top 0 c; String.sub top c (String.length top - c) ]),
        (15, 0) );
      ("top every 7", (fun () -> stream_run tbl (chunks_every 7 top)), (43, 0));
      ( "bottom 1-byte",
        (fun () -> stream_run tbl (chunks_every 1 bottom)),
        (259, 0) );
      ( "top refined 1-byte",
        (fun () -> stream_run rtbl (chunks_every 1 top)),
        (220, 0) );
      ( "raw+unknown every 5",
        (fun () -> stream_run raw_tbl (chunks_every 5 raw)),
        (7, 1) );
      ( "raw+unknown 1-byte",
        (fun () -> stream_run raw_tbl (chunks_every 1 raw)),
        (7, 1) );
      ( "top emit raises at 9, every 11",
        (fun () -> stream_run ~stop_after:9 tbl (chunks_every 11 top)),
        (27, 0) );
      ( "bottom emit raises at 20, 1-byte",
        (fun () -> stream_run ~stop_after:20 tbl (chunks_every 1 bottom)),
        (259, 0) );
      ( "top emit raises at 9, whole, abandoned",
        (fun () -> stream_run ~stop_after:9 ~abandon:true tbl [ top ]),
        (9, 0) );
      ( "bottom emit raises at 20, every 13, abandoned",
        (fun () ->
          stream_run ~stop_after:20 ~abandon:true tbl (chunks_every 13 bottom)),
        (22, 0) );
    ]

let test_front_unknown_symbol () =
  (* an alphabet that misses TABLE: both paths must name TABLE, not
     whatever follows it *)
  let alpha = Alphabet.make [ "DIV"; "/DIV"; "P"; "/P" ] in
  let s = "<div><p>x</p><table><tr><td>y</table></div>" in
  let abs = Abstraction.Tags in
  Alcotest.(check (result string string))
    "same unknown symbol" (Error "TABLE")
    (front_word ~abs alpha s);
  Alcotest.(check (result string string))
    "tree agrees"
    (tree_word ~abs alpha s)
    (front_word ~abs alpha s)

let () =
  Alcotest.run "html"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "attributes" `Quick test_lexer_attrs;
          Alcotest.test_case "malformed input" `Quick test_lexer_malformed;
          Alcotest.test_case "script raw text" `Quick test_lexer_script;
          Alcotest.test_case "numeric character references" `Quick
            test_lexer_numeric_refs;
        ] );
      ( "tree",
        [
          Alcotest.test_case "nesting" `Quick test_tree_nesting;
          Alcotest.test_case "void + implied end" `Quick
            test_tree_void_and_implied;
          Alcotest.test_case "table implied cells" `Quick
            test_tree_table_implied;
          Alcotest.test_case "unmatched end tag" `Quick test_tree_unmatched_end;
          Alcotest.test_case "roundtrip stability" `Quick
            test_roundtrip_stability;
          Alcotest.test_case "paths" `Quick test_paths;
          Alcotest.test_case "find_elements" `Quick test_find_elements;
          prop_serializer_roundtrip;
        ] );
      ( "tag-seq",
        [
          Alcotest.test_case "basics" `Quick test_tag_seq_basics;
          Alcotest.test_case "void tags" `Quick test_tag_seq_void_no_close;
          Alcotest.test_case "mark roundtrip" `Quick test_mark_roundtrip;
          Alcotest.test_case "figure 1 sequences" `Quick test_figure1_sequences;
        ] );
      ( "abstraction",
        [
          Alcotest.test_case "symbol refinement" `Quick
            test_abstraction_symbols;
          Alcotest.test_case "refined tag sequences" `Quick
            test_tag_seq_refined;
        ] );
      ( "front",
        [
          Alcotest.test_case "tricky pages, both abstractions" `Quick
            test_front_tricky_pages;
          Alcotest.test_case "figure 1 pages" `Quick test_front_figure1;
          Alcotest.test_case "chunked ≡ one-shot at every cut" `Quick
            test_front_chunking_every_cut;
          Alcotest.test_case "unknown-symbol identity" `Quick
            test_front_unknown_symbol;
          Alcotest.test_case "numeric references place nodes like the tree"
            `Quick test_front_entity_paths;
          Alcotest.test_case "no allocation per tag (k=1 vs k=8)" `Quick
            test_front_no_alloc_per_tag;
          Alcotest.test_case "interner hit/miss counts" `Quick
            test_front_interner_counts;
        ] );
    ]
