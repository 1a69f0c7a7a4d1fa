type incoming =
  | Open of { id : int; fuel : int option; deadline_ms : int option }
  | Tokens of { id : int; syms : string list }
  | Page of { id : int; html : string }
  | Close of { id : int }

type outgoing =
  | Opened of { id : int }
  | Split of { id : int; pos : int }
  | Closed of { id : int; splits : int; tokens : int }
  | Healed of { generation : int; used : int }
  | Err_decode of { reason : string }
  | Err_proto of { id : int; reason : string }
  | Err_shed of { id : int; retry_after_ms : int }
  | Err_refused of { id : int }
  | Err_budget of { id : int; stage : string; spent : int; limit : int }
  | Err_fault of { id : int; reason : string }

let default_max_bytes = 1 lsl 20

(* Schema layer over the total Obs.Json parser: every violation is a
   plain [Error], so the only control flow a hostile client can reach
   is an error frame. *)

let field_int j name =
  match Obs.Json.member name j with
  | Obs.Json.Int i -> Ok i
  | Obs.Json.Null -> Error (Printf.sprintf "missing %S field" name)
  | _ -> Error (Printf.sprintf "%S must be an integer" name)

let field_str j name =
  match Obs.Json.member name j with
  | Obs.Json.Str s -> Ok s
  | Obs.Json.Null -> Error (Printf.sprintf "missing %S field" name)
  | _ -> Error (Printf.sprintf "%S must be a string" name)

let field_int_opt j name =
  match Obs.Json.member name j with
  | Obs.Json.Int i ->
      if i < 0 then Error (Printf.sprintf "%S must be non-negative" name)
      else Ok (Some i)
  | Obs.Json.Null -> Ok None
  | _ -> Error (Printf.sprintf "%S must be an integer" name)

let session_id j =
  match field_int j "id" with
  | Error _ as e -> e
  | Ok i when i < 0 -> Error "\"id\" must be non-negative"
  | Ok i -> Ok i

let ( let* ) = Result.bind

(* The generic decoder: the reference for the fast path below and the
   only source of error reasons. *)
let decode_generic ?(max_bytes = default_max_bytes) line =
  if String.length line > max_bytes then
    Error
      (Printf.sprintf "oversized frame: %d bytes exceeds the %d-byte cap"
         (String.length line) max_bytes)
  else
    match Obs.Json.of_string line with
    | Error reason -> Error ("bad JSON: " ^ reason)
    | Ok (Obs.Json.Obj _ as j) -> (
        match Obs.Json.member "op" j with
        | Obs.Json.Str "open" ->
            let* id = session_id j in
            let* fuel = field_int_opt j "fuel" in
            let* deadline_ms = field_int_opt j "deadline_ms" in
            Ok (Open { id; fuel; deadline_ms })
        | Obs.Json.Str "tokens" ->
            let* id = session_id j in
            let* syms =
              match Obs.Json.member "syms" j with
              | Obs.Json.List l ->
                  let rec strings acc = function
                    | [] -> Ok (List.rev acc)
                    | Obs.Json.Str s :: rest -> strings (s :: acc) rest
                    | _ -> Error "\"syms\" must be a list of strings"
                  in
                  strings [] l
              | _ -> Error "missing \"syms\" list"
            in
            Ok (Tokens { id; syms })
        | Obs.Json.Str "page" ->
            let* id = session_id j in
            let* html = field_str j "html" in
            Ok (Page { id; html })
        | Obs.Json.Str "close" ->
            let* id = session_id j in
            Ok (Close { id })
        | Obs.Json.Str op -> Error (Printf.sprintf "unknown op %S" op)
        | Obs.Json.Null -> Error "missing \"op\" field"
        | _ -> Error "\"op\" must be a string")
    | Ok _ -> Error "frame must be a JSON object"

(* --- the fast path ---

   One left-to-right pass over the four canonical shapes, keys in the
   documented order and no whitespace:

     {"op":"open","id":N[,"fuel":N][,"deadline_ms":N]}
     {"op":"tokens","id":N,"syms":[S,...]}
     {"op":"page","id":N,"html":S}
     {"op":"close","id":N}

   Every position either matches the shape or raises [Bail], and the
   caller then runs the generic decoder, so the fast path only ever
   produces answers the generic one would: it accepts a subset of the
   frames the generic path accepts, and decodes them the same way. *)

exception Bail

type reader = { s : string; mutable i : int }

let peek c =
  if c.i < String.length c.s then String.unsafe_get c.s c.i else '\000'

(* the literal [l] at the read position *)
let lit c l =
  let k = String.length l in
  if c.i + k > String.length c.s then raise Bail;
  for j = 0 to k - 1 do
    if String.unsafe_get c.s (c.i + j) <> String.unsafe_get l j then raise Bail
  done;
  c.i <- c.i + k

(* A non-negative integer in canonical form: "0", or a non-zero digit
   and at most 17 more — no sign, no leading zero, no overflow. *)
let int c =
  let start = c.i in
  let rec go v =
    match peek c with
    | '0' .. '9' as d ->
        c.i <- c.i + 1;
        go ((v * 10) + Char.code d - 48)
    | _ -> v
  in
  match peek c with
  | '0' -> (
      c.i <- c.i + 1;
      match peek c with '0' .. '9' -> raise Bail | _ -> 0)
  | '1' .. '9' ->
      let v = go 0 in
      if c.i - start > 18 then raise Bail;
      v
  | _ -> raise Bail

let unescaped = function
  | '"' -> '"'
  | '\\' -> '\\'
  | '/' -> '/'
  | 'b' -> '\b'
  | 'f' -> '\012'
  | 'n' -> '\n'
  | 'r' -> '\r'
  | 't' -> '\t'
  | _ -> raise Bail

(* A string literal.  A first scan finds the closing quote and counts
   the escapes, validating each; an escape-free string is then one
   [String.sub], and an escaped one is one exact-size [Bytes] filled by
   blitting the runs between escapes.  [\u] bails: its decoding
   (surrogates, UTF-8) belongs to the generic path. *)
let str c =
  lit c "\"";
  let s = c.s and n = String.length c.s in
  let start = c.i in
  let rec scan j esc =
    if j >= n then raise Bail
    else
      match String.unsafe_get s j with
      | '"' ->
          c.i <- j + 1;
          esc
      | '\\' ->
          if j + 1 >= n then raise Bail;
          ignore (unescaped (String.unsafe_get s (j + 1)));
          scan (j + 2) (esc + 1)
      | _ -> scan (j + 1) esc
  in
  let esc = scan start 0 in
  let stop = c.i - 1 in
  if esc = 0 then String.sub s start (stop - start)
  else begin
    let b = Bytes.create (stop - start - esc) in
    let rec backslash k =
      if k < stop && String.unsafe_get s k <> '\\' then backslash (k + 1)
      else k
    in
    let rec blit src dst =
      let k = backslash src in
      Bytes.blit_string s src b dst (k - src);
      if k < stop then begin
        let dst = dst + (k - src) in
        Bytes.unsafe_set b dst (unescaped (String.unsafe_get s (k + 1)));
        blit (k + 2) (dst + 1)
      end
    in
    blit start 0;
    Bytes.unsafe_to_string b
  end

(* ["S",...]: built in order, no reversal *)
let rec syms c =
  let x = str c in
  match peek c with
  | ',' ->
      c.i <- c.i + 1;
      x :: syms c
  | _ ->
      lit c "]";
      [ x ]

let close c =
  lit c "}";
  if c.i <> String.length c.s then raise Bail

let fast line =
  let c = { s = line; i = 0 } in
  lit c "{\"op\":\"";
  match peek c with
  | 'o' -> (
      lit c "open\",\"id\":";
      let id = int c in
      match peek c with
      | '}' ->
          close c;
          Open { id; fuel = None; deadline_ms = None }
      | _ -> (
          lit c ",\"";
          match peek c with
          | 'f' ->
              lit c "fuel\":";
              let fuel = Some (int c) in
              if peek c = '}' then begin
                close c;
                Open { id; fuel; deadline_ms = None }
              end
              else begin
                lit c ",\"deadline_ms\":";
                let deadline_ms = Some (int c) in
                close c;
                Open { id; fuel; deadline_ms }
              end
          | _ ->
              lit c "deadline_ms\":";
              let deadline_ms = Some (int c) in
              close c;
              Open { id; fuel = None; deadline_ms }))
  | 't' ->
      lit c "tokens\",\"id\":";
      let id = int c in
      lit c ",\"syms\":[";
      let syms =
        if peek c = ']' then begin
          c.i <- c.i + 1;
          []
        end
        else syms c
      in
      close c;
      Tokens { id; syms }
  | 'p' ->
      lit c "page\",\"id\":";
      let id = int c in
      lit c ",\"html\":";
      let html = str c in
      close c;
      Page { id; html }
  | 'c' ->
      lit c "close\",\"id\":";
      let id = int c in
      close c;
      Close { id }
  | _ -> raise Bail

let decode_fast line =
  match fast line with f -> Some f | exception Bail -> None

let decode ?(max_bytes = default_max_bytes) line =
  if String.length line > max_bytes then decode_generic ~max_bytes line
  else
    match fast line with
    | f -> Ok f
    | exception Bail -> decode_generic ~max_bytes line

(* --- encoding: straight into the caller's buffer --- *)

let rec add_digits b n =
  if n >= 10 then add_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (48 + (n mod 10)))

let add_int b n =
  if n >= 0 then add_digits b n
  else if n = min_int then Buffer.add_string b (string_of_int n)
  else begin
    Buffer.add_char b '-';
    add_digits b (-n)
  end

let add_str b s =
  Buffer.add_char b '"';
  Obs.Json.add_escaped b s;
  Buffer.add_char b '"'

let encode_into b out =
  match out with
  | Opened { id } ->
      Buffer.add_string b {|{"ok":"opened","id":|};
      add_int b id;
      Buffer.add_char b '}'
  | Split { id; pos } ->
      Buffer.add_string b {|{"split":|};
      add_int b pos;
      Buffer.add_string b {|,"id":|};
      add_int b id;
      Buffer.add_char b '}'
  | Closed { id; splits; tokens } ->
      Buffer.add_string b {|{"ok":"closed","id":|};
      add_int b id;
      Buffer.add_string b {|,"splits":|};
      add_int b splits;
      Buffer.add_string b {|,"tokens":|};
      add_int b tokens;
      Buffer.add_char b '}'
  | Healed { generation; used } ->
      Buffer.add_string b {|{"ok":"healed","generation":|};
      add_int b generation;
      Buffer.add_string b {|,"used":|};
      add_int b used;
      Buffer.add_char b '}'
  | Err_decode { reason } ->
      Buffer.add_string b {|{"err":"decode","reason":|};
      add_str b reason;
      Buffer.add_char b '}'
  | Err_proto { id; reason } ->
      Buffer.add_string b {|{"err":"proto","id":|};
      add_int b id;
      Buffer.add_string b {|,"reason":|};
      add_str b reason;
      Buffer.add_char b '}'
  | Err_shed { id; retry_after_ms } ->
      Buffer.add_string b {|{"err":"shed","id":|};
      add_int b id;
      Buffer.add_string b {|,"retry_after_ms":|};
      add_int b retry_after_ms;
      Buffer.add_char b '}'
  | Err_refused { id } ->
      Buffer.add_string b {|{"err":"refused","id":|};
      add_int b id;
      Buffer.add_char b '}'
  | Err_budget { id; stage; spent; limit } ->
      Buffer.add_string b {|{"err":"budget","id":|};
      add_int b id;
      Buffer.add_string b {|,"stage":|};
      add_str b stage;
      Buffer.add_string b {|,"spent":|};
      add_int b spent;
      Buffer.add_string b {|,"limit":|};
      add_int b limit;
      Buffer.add_char b '}'
  | Err_fault { id; reason } ->
      Buffer.add_string b {|{"err":"fault","id":|};
      add_int b id;
      Buffer.add_string b {|,"reason":|};
      add_str b reason;
      Buffer.add_char b '}'

let encode out =
  let b = Buffer.create 64 in
  encode_into b out;
  Buffer.contents b

let pp_outgoing ppf out = Format.pp_print_string ppf (encode out)
