(* Differential oracles for the serve subsystem: the supervised
   streaming daemon must be observationally identical to the offline
   matcher — for every job count, across any batch or chunk boundary
   placement, and under the full degradation ladder (injected faults,
   exhausted budgets, shed admissions).  Isolation is checked as byte
   identity: the frames of unaffected sessions must not change by one
   byte when a neighbour dies. *)

let with_faults site ~at f =
  Guard_faults.arm site ~at;
  Fun.protect ~finally:Guard_faults.disarm f

(* Streaming is only defined for Σ*-right expressions (§7), so every
   generated expression is re-rooted on Σ* — the same move the
   maximization pipeline performs before going online. *)
let onlineify e =
  Extraction.make e.Extraction.alpha e.Extraction.left e.Extraction.mark
    Regex.sigma_star

(* --- incoming-frame builders (JSON via the same printer the daemon's
       decoder is fuzzed against) --- *)

let line fields = Obs.Json.to_string (Obs.Json.Obj fields)

let open_line ?fuel id =
  let open Obs.Json in
  line
    (("op", Str "open") :: ("id", Int id)
    :: (match fuel with None -> [] | Some f -> [ ("fuel", Int f) ]))

let tokens_line alpha id syms =
  let open Obs.Json in
  line
    [
      ("op", Str "tokens");
      ("id", Int id);
      ("syms", List (List.map (fun a -> Str (Alphabet.name alpha a)) syms));
    ]

let close_line id =
  let open Obs.Json in
  line [ ("op", Str "close"); ("id", Int id) ]

let sup ?(jobs = 1) ?(max_sessions = 64) ?fuel m alpha =
  Supervisor.create
    {
      Supervisor.matcher = m;
      alpha;
      jobs;
      max_sessions;
      fuel;
      deadline_ms = None;
      retry_after_ms = Supervisor.default_retry_after_ms;
      heal = None;
    }

(* One session per derived word: full word, half prefix, short prefix —
   skewed enough that the parallel advance pass has real imbalance. *)
let words_of w =
  let n = Array.length w in
  [ w; Array.sub w 0 (n / 2); Array.sub w 0 (min n 3) ]

(* Interleaved script: all opens, then the sessions' token chunks
   round-robin (two chunks each), then all closes — the adversarial
   ordering for anything keyed on "one session at a time". *)
let script alpha words =
  let opens = List.mapi (fun i _ -> open_line (i + 1)) words in
  let halves =
    List.mapi
      (fun i w ->
        let n = Array.length w in
        let syms lo hi =
          List.init (hi - lo) (fun k -> w.(lo + k))
        in
        ( tokens_line alpha (i + 1) (syms 0 (n / 2)),
          tokens_line alpha (i + 1) (syms (n / 2) n) ))
      words
  in
  let closes = List.mapi (fun i _ -> close_line (i + 1)) words in
  opens @ List.map fst halves @ List.map snd halves @ closes

let frame_id = function
  | Frame.Err_decode _ | Frame.Healed _ -> None
  | Frame.Opened { id }
  | Frame.Split { id; _ }
  | Frame.Closed { id; _ }
  | Frame.Err_proto { id; _ }
  | Frame.Err_shed { id; _ }
  | Frame.Err_refused { id }
  | Frame.Err_budget { id; _ }
  | Frame.Err_fault { id; _ } ->
      Some id

let splits_for id frames =
  List.filter_map
    (function
      | Frame.Split { id = i; pos } when i = id -> Some pos | _ -> None)
    frames

let bytes_for id frames =
  frames
  |> List.filter (fun f -> frame_id f = Some id)
  |> List.map Frame.encode

(* --- frame codec references and generators --- *)

(* The encoder as it was before [Frame.encode_into]: an [Obs.Json.Obj]
   per frame, printed by [Obs.Json.to_string].  The byte-identity
   reference for the direct writer. *)
let reference_encode out =
  let open Obs.Json in
  to_string
    (match out with
    | Frame.Opened { id } -> Obj [ ("ok", Str "opened"); ("id", Int id) ]
    | Frame.Split { id; pos } -> Obj [ ("split", Int pos); ("id", Int id) ]
    | Frame.Closed { id; splits; tokens } ->
        Obj
          [
            ("ok", Str "closed");
            ("id", Int id);
            ("splits", Int splits);
            ("tokens", Int tokens);
          ]
    | Frame.Healed { generation; used } ->
        Obj
          [
            ("ok", Str "healed");
            ("generation", Int generation);
            ("used", Int used);
          ]
    | Frame.Err_decode { reason } ->
        Obj [ ("err", Str "decode"); ("reason", Str reason) ]
    | Frame.Err_proto { id; reason } ->
        Obj [ ("err", Str "proto"); ("id", Int id); ("reason", Str reason) ]
    | Frame.Err_shed { id; retry_after_ms } ->
        Obj
          [
            ("err", Str "shed");
            ("id", Int id);
            ("retry_after_ms", Int retry_after_ms);
          ]
    | Frame.Err_refused { id } -> Obj [ ("err", Str "refused"); ("id", Int id) ]
    | Frame.Err_budget { id; stage; spent; limit } ->
        Obj
          [
            ("err", Str "budget");
            ("id", Int id);
            ("stage", Str stage);
            ("spent", Int spent);
            ("limit", Int limit);
          ]
    | Frame.Err_fault { id; reason } ->
        Obj [ ("err", Str "fault"); ("id", Int id); ("reason", Str reason) ])

(* Strings a hostile client or a failing session can put on the wire:
   quotes, backslashes, control bytes, slashes, UTF-8 and stray high
   bytes. *)
let gen_hostile =
  QCheck.Gen.(
    string_size (int_bound 24)
      ~gen:
        (oneofl
           [ '"'; '\\'; '\n'; '\r'; '\t'; '\000'; '\031'; '/'; 'a'; 'p';
             'u'; '0'; '<'; '>'; ' '; '\xc3'; '\xa9'; '\xff' ]))

(* A decoded frame and its canonical line: keys in the documented
   order, no whitespace — the shapes the fast path is specialised to. *)
let canonical frame =
  let open Obs.Json in
  match frame with
  | Frame.Open { id; fuel; deadline_ms } ->
      let opt k = function Some v -> [ (k, Int v) ] | None -> [] in
      [ ("op", Str "open"); ("id", Int id) ]
      @ opt "fuel" fuel @ opt "deadline_ms" deadline_ms
  | Frame.Tokens { id; syms } ->
      [
        ("op", Str "tokens");
        ("id", Int id);
        ("syms", List (List.map (fun s -> Str s) syms));
      ]
  | Frame.Page { id; html } ->
      [ ("op", Str "page"); ("id", Int id); ("html", Str html) ]
  | Frame.Close { id } -> [ ("op", Str "close"); ("id", Int id) ]

let gen_frame =
  let open QCheck.Gen in
  (* the fast path takes at most 18 digits; wider ints are mutations *)
  let widest = 999_999_999_999_999_999 in
  let gen_int =
    oneof [ int_bound 100; int_bound widest; return 0; return widest ]
  in
  let* id = gen_int in
  oneof
    [
      (let* fuel = opt gen_int in
       let* deadline_ms = opt gen_int in
       return (Frame.Open { id; fuel; deadline_ms }));
      map
        (fun syms -> Frame.Tokens { id; syms })
        (list_size (int_bound 5) gen_hostile);
      map (fun html -> Frame.Page { id; html }) gen_hostile;
      return (Frame.Close { id });
    ]

let line_of frame = line (canonical frame)

(* The decoder contract: [decode] answers exactly what the generic
   decoder answers — the fast path is invisible. *)
let decoders_agree l = Frame.decode l = Frame.decode_generic l

(* Deviations from the canonical shapes, each one a reason for the fast
   path to hand over to the generic decoder. *)
type mutation =
  | Swap_keys of int
  | Duplicate_key of int
  | Extra_field
  | Whitespace of int * char
  | Escape_slash
  | Escape_u of char
  | Surrogates
  | Id_plus
  | Id_leading_zero
  | Id_negative
  | Id_overflow

let replace_all s ~sub ~by =
  let b = Buffer.create (String.length s) in
  let n = String.length sub in
  let i = ref 0 in
  while !i < String.length s do
    if !i + n <= String.length s && String.sub s !i n = sub then begin
      Buffer.add_string b by;
      i := !i + n
    end
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

(* The fast path takes every canonical line — except one whose strings
   hold control bytes, which the printer writes as [\u] escapes, left
   to the generic decoder. *)
let fast_takes frame =
  let l = line_of frame in
  match Frame.decode_fast l with
  | Some f -> f = frame
  | None -> replace_all l ~sub:{|\u|} ~by:"" <> l

let mutate frame m =
  let fields = canonical frame in
  let n = List.length fields in
  let id_with digits =
    replace_all (line fields) ~sub:{|"id":|} ~by:({|"id":|} ^ digits)
  in
  match m with
  | Swap_keys k ->
      let a = Array.of_list fields in
      let i = k mod n and j = (k + 1) mod n in
      let t = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- t;
      line (Array.to_list a)
  | Duplicate_key k -> line (fields @ [ List.nth fields (k mod n) ])
  | Extra_field -> line (fields @ [ ("trace", Obs.Json.Str "x") ])
  | Whitespace (k, c) ->
      let l = line fields in
      let k = k mod (String.length l + 1) in
      String.sub l 0 k ^ String.make 1 c ^ String.sub l k (String.length l - k)
  | Escape_slash -> replace_all (line fields) ~sub:"/" ~by:{|\/|}
  | Escape_u c ->
      replace_all (line fields) ~sub:(String.make 1 c)
        ~by:(Printf.sprintf "\\u%04x" (Char.code c))
  | Surrogates -> replace_all (line fields) ~sub:"u" ~by:{|\ud83d\ude00|}
  | Id_plus -> id_with "+"
  | Id_leading_zero -> id_with "0"
  | Id_negative -> id_with "-"
  | Id_overflow -> id_with "99999999999999999999"

let gen_mutation =
  let open QCheck.Gen in
  oneof
    [
      map (fun k -> Swap_keys k) small_nat;
      map (fun k -> Duplicate_key k) small_nat;
      return Extra_field;
      map2
        (fun k c -> Whitespace (k, c))
        small_nat
        (oneofl [ ' '; '\t'; '\n'; '\r' ]);
      return Escape_slash;
      map (fun c -> Escape_u c) (oneofl [ 'a'; 'p'; 'o'; '/'; '<' ]);
      return Surrogates;
      return Id_plus;
      return Id_leading_zero;
      return Id_negative;
      return Id_overflow;
    ]

let print_frame f = String.escaped (line_of f)

let print_outgoing f = String.escaped (reference_encode f)

let tests ~count =
  [
    QCheck.Test.make ~count
      ~name:"serve: fast decode ≡ generic on soup and truncations"
      (QCheck.pair Oracle_soup.arb_bytes
         (QCheck.make
            ~print:(fun fs -> String.concat " " (List.map print_frame fs))
            QCheck.Gen.(
              let* id = int_bound 1_000_000 in
              let* syms = list_size (int_bound 4) gen_hostile in
              let* html = gen_hostile in
              let* fuel = opt (int_bound 10_000) in
              let* deadline_ms = opt (int_bound 10_000) in
              return
                [
                  Frame.Open { id; fuel; deadline_ms };
                  Frame.Tokens { id; syms };
                  Frame.Page { id; html };
                  Frame.Close { id };
                ])))
      (fun (soup, frames) ->
        decoders_agree soup
        && List.for_all
             (fun f ->
               let l = line_of f in
               fast_takes f
               && Frame.decode l = Ok f
               && List.for_all
                    (fun k -> decoders_agree (String.sub l 0 k))
                    (List.init (String.length l) Fun.id))
             frames);
    QCheck.Test.make ~count
      ~name:"serve: fast decode ≡ generic on mutated frames"
      (QCheck.make
         ~print:(fun (f, m) -> String.escaped (mutate f m))
         QCheck.Gen.(pair gen_frame gen_mutation))
      (fun (f, m) ->
        fast_takes f && decoders_agree (mutate f m));
    QCheck.Test.make ~count
      ~name:"serve: encode_into ≡ Obs.Json printer, hostile strings"
      (QCheck.make
         ~print:(fun fs -> String.concat " " (List.map print_outgoing fs))
         QCheck.Gen.(
           let* a = oneof [ int; small_nat; return min_int; return max_int ] in
           let* b = small_nat in
           let* r = gen_hostile in
           let* st = gen_hostile in
           return
             Frame.
               [
                 Opened { id = a };
                 Split { id = b; pos = a };
                 Closed { id = a; splits = b; tokens = a };
                 Healed { generation = b; used = a };
                 Err_decode { reason = r };
                 Err_proto { id = a; reason = r };
                 Err_shed { id = b; retry_after_ms = a };
                 Err_refused { id = a };
                 Err_budget { id = b; stage = st; spent = a; limit = b };
                 Err_fault { id = a; reason = r };
               ]))
      (fun frames ->
        let b = Buffer.create 1 in
        List.for_all
          (fun f ->
            Buffer.clear b;
            Buffer.add_char b '\n';
            Frame.encode_into b f;
            let want = reference_encode f in
            Frame.encode f = want && Buffer.contents b = "\n" ^ want)
          frames);
    QCheck.Test.make ~count
      ~name:"serve: cursor ≡ matcher_stream_splits ≡ matcher_splits"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let m = Extraction.compile (onlineify e) in
        let c = Extraction.cursor m in
        let pushed =
          Array.fold_left
            (fun acc a ->
              let pos = Extraction.cursor_pos c in
              if Extraction.cursor_step c a then pos :: acc else acc)
            [] w
          |> List.rev
        in
        let stream = Extraction.matcher_stream_splits m (Array.to_seq w) in
        Extraction.cursor_pos c = Array.length w
        && pushed = Extraction.matcher_splits m w
        && List.of_seq stream = pushed
        (* persistent: a second traversal replays the same positions *)
        && List.of_seq stream = pushed);
    QCheck.Test.make ~count
      ~name:"serve: streamed sessions ≡ offline matcher_splits, jobs 1/2/4"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let words = words_of w in
        let lines = script alpha words in
        let out jobs = Supervisor.handle_batch (sup ~jobs m alpha) lines in
        let base = out 1 in
        out 2 = base
        && out 4 = base
        && List.for_all
             (fun (i, wi) ->
               let id = i + 1 in
               splits_for id base = Extraction.matcher_splits m wi
               && List.exists
                    (function
                      | Frame.Closed { id = i'; splits; tokens } ->
                          i' = id
                          && splits
                             = List.length (Extraction.matcher_splits m wi)
                          && tokens = Array.length wi
                      | _ -> false)
                    base)
             (List.mapi (fun i wi -> (i, wi)) words));
    QCheck.Test.make ~count
      ~name:"serve: output is invariant under batch boundary placement"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let lines = script alpha (words_of w) in
        let one_batch = Supervisor.handle_batch (sup m alpha) lines in
        let per_line =
          let s = sup m alpha in
          List.concat_map (Supervisor.handle_line s) lines
        in
        (* and per-token chunking of a single session's stream *)
        let whole =
          Supervisor.handle_batch (sup m alpha)
            (open_line 1
            :: tokens_line alpha 1 (Array.to_list w)
            :: [ close_line 1 ])
        in
        let per_token =
          Supervisor.handle_batch (sup m alpha)
            ((open_line 1
             :: List.map (fun a -> tokens_line alpha 1 [ a ]) (Array.to_list w))
            @ [ close_line 1 ])
        in
        one_batch = per_line
        && splits_for 1 whole = splits_for 1 per_token
        && List.filter (fun f -> frame_id f = None) per_token = []);
    QCheck.Test.make ~count
      ~name:"serve: a poisoned session leaves the others byte-identical"
      (QCheck.pair (Oracle_gen.arb_extraction_word_case ())
         QCheck.(int_range 0 2))
      (fun ((e, w), victim) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let words = words_of w in
        let lines = script alpha words in
        let clean = Supervisor.handle_batch (sup m alpha) lines in
        let faulted =
          with_faults Guard_faults.Session_item ~at:[ victim ] (fun () ->
              Supervisor.handle_batch (sup m alpha) lines)
        in
        let victim_id = victim + 1 in
        List.for_all
          (fun (i, _) ->
            let id = i + 1 in
            id = victim_id || bytes_for id faulted = bytes_for id clean)
          (List.mapi (fun i wi -> (i, wi)) words)
        && List.exists
             (function
               | Frame.Err_fault { id; _ } -> id = victim_id | _ -> false)
             faulted
        && not
             (List.exists
                (function
                  | Frame.Closed { id; _ } -> id = victim_id | _ -> false)
                faulted));
    QCheck.Test.make ~count
      ~name:"serve: shed-then-retry observes the session it would have had"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let syms = Array.to_list w in
        let s = sup ~max_sessions:1 m alpha in
        let b1 = Supervisor.handle_batch s [ open_line 1; open_line 2 ] in
        let _b2 =
          Supervisor.handle_batch s
            [ tokens_line alpha 1 syms; close_line 1 ]
        in
        let retry =
          Supervisor.handle_batch s
            [ open_line 2; tokens_line alpha 2 syms; close_line 2 ]
        in
        let control =
          Supervisor.handle_batch (sup m alpha)
            [ open_line 2; tokens_line alpha 2 syms; close_line 2 ]
        in
        b1
        = [
            Frame.Opened { id = 1 };
            Frame.Err_shed
              {
                id = 2;
                retry_after_ms = Supervisor.default_retry_after_ms;
              };
          ]
        && retry = control);
    QCheck.Test.make ~count
      ~name:"serve: budget exhaustion is isolated; ample fuel ≡ unbudgeted"
      (Oracle_gen.arb_extraction_word_case ())
      (fun (e, w) ->
        let e = onlineify e in
        let m = Extraction.compile e in
        let alpha = e.Extraction.alpha in
        let n = Array.length w in
        let syms = Array.to_list w in
        let solo fuel =
          Supervisor.handle_batch (sup m alpha)
            [ open_line ?fuel 2; tokens_line alpha 2 syms; close_line 2 ]
        in
        (* fuel beyond the stream length is unobservable *)
        let ample_invisible =
          bytes_for 2 (solo (Some (n + 1))) = bytes_for 2 (solo None)
        in
        if n = 0 then ample_invisible
        else
          (* session 1 starves at its last token; session 2, fed the
             same stream unbudgeted, must not notice *)
          let pair =
            Supervisor.handle_batch (sup m alpha)
              [
                open_line ~fuel:(n - 1) 1;
                open_line 2;
                tokens_line alpha 1 syms;
                tokens_line alpha 2 syms;
                close_line 1;
                close_line 2;
              ]
          in
          ample_invisible
          && bytes_for 2 pair = bytes_for 2 (solo None)
          && List.exists
               (function
                 | Frame.Err_budget { id = 1; stage; spent; limit } ->
                     stage = "stream" && spent = n && limit = n - 1
                 | _ -> false)
               pair);
    QCheck.Test.make ~count
      ~name:"serve: Frame.decode is total and inverts the frame builders"
      QCheck.(
        triple small_nat (small_list (string_of_size (Gen.int_range 0 6)))
          (string_of_size (Gen.int_range 0 40)))
      (fun (id, names, junk) ->
        let total s =
          match Frame.decode s with Ok _ | Error _ -> true
        in
        let alpha = Alphabet.make [ "p"; "q" ] in
        let w = [ 0; 1; 0 ] in
        total junk
        && total (String.concat "" names)
        && Frame.decode (open_line id) = Ok (Frame.Open { id; fuel = None; deadline_ms = None })
        && Frame.decode (open_line ~fuel:7 id)
           = Ok (Frame.Open { id; fuel = Some 7; deadline_ms = None })
        && Frame.decode (tokens_line alpha id w)
           = Ok (Frame.Tokens { id; syms = [ "p"; "q"; "p" ] })
        && Frame.decode (close_line id) = Ok (Frame.Close { id })
        &&
        (* arbitrary symbol names survive the JSON round trip *)
        match
          Frame.decode
            (line
               Obs.Json.
                 [
                   ("op", Str "tokens");
                   ("id", Int id);
                   ("syms", List (List.map (fun s -> Str s) names));
                 ])
        with
        | Ok (Frame.Tokens { id = i; syms }) -> i = id && syms = names
        | _ -> false);
  ]
