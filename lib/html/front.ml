(* Fused lex → intern → match front-end.  One pass over the raw bytes;
   per-tag work is a slice hash probe plus a DFA step.  The scanner
   replicates Html_lexer byte-for-byte and the builder replicates
   Html_tree.of_tokens' structural rules, so the emitted symbol
   sequence (and any Unknown_symbol error) is identical to the tree
   path's — the [front] oracle layer holds the two against each other.

   Allocation contract: once an engine exists, the tag path allocates
   nothing and touches no shared memory.  Scan state (attribute
   capture, the open-element stack, the carry, the raw end-tag name)
   lives in mutable engine fields and engine-owned growable arrays and
   bytes; the helpers are top-level functions, so no closure, option or
   tuple is built per tag; interner hits and misses are counted in the
   engine and published with one fetch_and_add per feed.  What still
   allocates: growing those buffers (amortized, bounded by the deepest
   nesting and longest carried construct), the error path (an
   Unknown_sym name), a refined attribute value containing '&' (decoded
   through Html_lexer), and the results of word, extract and splits.

   Known cost trade-off: a construct that straddles a chunk boundary
   in streaming mode is carried and re-scanned from its '<', so a
   single tag much larger than the chunk size re-scans quadratically.
   Tags are small in practice; text, comments, script bodies and
   doctypes all stream without carry. *)

(* --- production counters (cheap, unconditional, like serve's) --- *)

let pages_total = Atomic.make 0
let bytes_total = Atomic.make 0
let tables_built = Atomic.make 0
let entries_total = Atomic.make 0
let interner = Obs.Counter2.make ()

(* last matcher geometry seen by extract/splits: alphabet width vs
   compressed class count — the compression ratio --stats reports *)
let last_alpha = Atomic.make 0
let last_classes = Atomic.make 0

(* --- character classes (must mirror Html_lexer exactly) --- *)

(* One table load per byte test: bit 0 space, bit 1 name character. *)
let char_class =
  String.init 256 (fun k ->
      let c = Char.chr k in
      let space = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012' in
      let name =
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '-' || c = '_' || c = ':'
      in
      Char.chr ((if space then 1 else 0) lor if name then 2 else 0))

let[@inline] is_space c =
  Char.code (String.unsafe_get char_class (Char.code c)) land 1 <> 0

let[@inline] is_name_char c =
  Char.code (String.unsafe_get char_class (Char.code c)) land 2 <> 0

(* --- implicit-close groups (must mirror Html_tree.closes_implicitly) ---

   An open element belongs to at most one group; an incoming start tag
   carries a bitmask of the groups it closes.  The bit test replaces
   the name comparisons of the tree builder's [imply] loop. *)

let g_p = 0
let g_li = 1
let g_tr = 2
let g_td = 3 (* TD | TH *)
let g_option = 4
let g_dt = 5 (* DT | DD *)

let block_list =
  [
    "P"; "DIV"; "TABLE"; "UL"; "OL"; "LI"; "H1"; "H2"; "H3"; "H4"; "H5";
    "H6"; "FORM"; "HR"; "PRE"; "BLOCKQUOTE"; "SECTION"; "HEADER"; "FOOTER";
  ]

let grp_of = function
  | "P" -> g_p
  | "LI" -> g_li
  | "TR" -> g_tr
  | "TD" | "TH" -> g_td
  | "OPTION" -> g_option
  | "DT" | "DD" -> g_dt
  | _ -> -1

let inflags_of k =
  let f = if List.mem k block_list then 1 lsl g_p else 0 in
  let f = if k = "LI" then f lor (1 lsl g_li) else f in
  let f = if k = "TR" then f lor (1 lsl g_tr) else f in
  let f = if k = "TD" || k = "TH" || k = "TR" then f lor (1 lsl g_td) else f in
  let f = if k = "OPTION" then f lor (1 lsl g_option) else f in
  let f = if k = "DT" || k = "DD" then f lor (1 lsl g_dt) else f in
  f

(* --- the token table --- *)

type entry = {
  e_key : string;  (* folded (uppercase) tag name *)
  e_open : int;  (* plain start symbol, -1 if not in the alphabet *)
  e_close : int;  (* "/KEY" symbol, -1 *)
  e_void : bool;
  e_raw : bool;  (* SCRIPT/STYLE raw-text content model *)
  e_grp : int;  (* implicit-close group when this element is open *)
  e_inflags : int;  (* groups an incoming tag of this name closes *)
  e_attr : string;  (* refining attribute, "" when unrefined *)
  e_vals : string array;  (* refined values (lowercase, entity-decoded) *)
  e_vsyms : int array;  (* symbol of [KEY:attr=vals.(i)] *)
}

let dummy =
  {
    e_key = "";
    e_open = -1;
    e_close = -1;
    e_void = false;
    e_raw = false;
    e_grp = -1;
    e_inflags = 0;
    e_attr = "";
    e_vals = [||];
    e_vsyms = [||];
  }

type table = {
  t_alpha : Alphabet.t;
  t_abs : Abstraction.t;
  t_slots : entry array;  (* open addressing; [dummy] marks empty *)
  t_mask : int;
}

let alphabet t = t.t_alpha
let abstraction t = t.t_abs

(* FNV-1a over upper-folded bytes; table keys are already uppercase so
   hashing a key string and hashing a slice that folds to it agree. *)
let fnv_prime = 0x01000193
let fnv_off = 0x811c9dc5

let[@inline] fnv_step h c =
  (h lxor Char.code (Char.uppercase_ascii c)) * fnv_prime

let fnv_slice s pos len =
  let h = ref fnv_off in
  for k = pos to pos + len - 1 do
    h := fnv_step !h (String.unsafe_get s k)
  done;
  !h land max_int

let[@inline] slice_is_key s pos len key =
  String.length key = len
  &&
  let k = ref 0 in
  while
    !k < len
    && Char.uppercase_ascii (String.unsafe_get s (pos + !k))
       = String.unsafe_get key !k
  do
    incr k
  done;
  !k = len

let[@inline] entry tbl slot =
  if slot < 0 then dummy else Array.unsafe_get tbl.t_slots slot

(* A symbol is reachable as a plain start tag iff it could come out of
   Abstraction.start_symbol for some lexed name: nonempty, name
   characters only, already uppercase. *)
let valid_name nm =
  nm <> ""
  && String.for_all (fun c -> is_name_char c && Char.uppercase_ascii c = c) nm

type proto = {
  mutable p_open : int;
  mutable p_close : int;
  mutable p_vals : (string * int) list;
}

let build ?(abs = Abstraction.Tags) alpha =
  let protos : (string, proto) Hashtbl.t = Hashtbl.create 64 in
  let proto k =
    match Hashtbl.find_opt protos k with
    | Some p -> p
    | None ->
        let p = { p_open = -1; p_close = -1; p_vals = [] } in
        Hashtbl.add protos k p;
        p
  in
  (* Seed every refinable element, even when the alphabet holds none of
     its symbols: the capture of the refining attribute (and the error
     string it shapes) must happen for unknown-but-refined names too. *)
  (match abs with
  | Abstraction.Tags -> ()
  | Abstraction.Tags_with_attrs specs ->
      List.iter
        (fun (el, _) ->
          let k = String.uppercase_ascii el in
          if valid_name k then ignore (proto k))
        specs);
  let size = Alphabet.size alpha in
  for sym = 0 to size - 1 do
    let nm = Alphabet.name alpha sym in
    if String.length nm >= 2 && nm.[0] = '/' then begin
      let rest = String.sub nm 1 (String.length nm - 1) in
      if valid_name rest then (proto rest).p_close <- sym
    end
    else if valid_name nm then (proto nm).p_open <- sym
  done;
  (* refined symbols: for each key with a refining attribute, collect
     every alphabet symbol of the shape KEY:attr=value *)
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) protos [] in
  List.iter
    (fun k ->
      match Abstraction.refinements abs k with
      | None -> ()
      | Some attr ->
          let prefix = k ^ ":" ^ attr ^ "=" in
          let plen = String.length prefix in
          for sym = 0 to size - 1 do
            let nm = Alphabet.name alpha sym in
            if String.length nm >= plen && String.sub nm 0 plen = prefix then
              (proto k).p_vals <-
                (String.sub nm plen (String.length nm - plen), sym)
                :: (proto k).p_vals
          done)
    keys;
  let count = Hashtbl.length protos in
  let cap = ref 8 in
  while !cap < 2 * (count + 1) do
    cap := !cap * 2
  done;
  let slots = Array.make !cap dummy in
  let mask = !cap - 1 in
  Hashtbl.iter
    (fun k p ->
      let vals = List.rev p.p_vals in
      let e =
        {
          e_key = k;
          e_open = p.p_open;
          e_close = p.p_close;
          e_void = List.mem k Html_tree.void_names;
          e_raw = k = "SCRIPT" || k = "STYLE";
          e_grp = grp_of k;
          e_inflags = inflags_of k;
          e_attr =
            (match Abstraction.refinements abs k with
            | Some a -> a
            | None -> "");
          e_vals = Array.of_list (List.map fst vals);
          e_vsyms = Array.of_list (List.map snd vals);
        }
      in
      let idx = ref (fnv_slice k 0 (String.length k) land mask) in
      while slots.(!idx land mask) != dummy do
        incr idx
      done;
      slots.(!idx land mask) <- e)
    protos;
  Atomic.incr tables_built;
  ignore (Atomic.fetch_and_add entries_total count);
  { t_alpha = alpha; t_abs = abs; t_slots = slots; t_mask = mask }

(* --- the engine --- *)

exception Unknown_sym of string

(* The scan cannot decide a construct before the input ends; the carry
   starts at [need_at].  Constant, so raising it allocates nothing. *)
exception Need_more

(* The open-element stack is one int array, four ints per frame: frame
   [k] (0 outermost) holds field [f] at [(k lsl 2) lor f]. *)
let fr_slot = 0 (* table slot of the element's entry *)
let fr_index = 1 (* child index in the parent *)
let fr_node = 2 (* arena node id, -1 when the arena is off *)
let fr_next = 3 (* children added so far *)

type mode = M_text | M_comment | M_doctype | M_raw | M_rawend | M_skipgt

type engine = {
  tbl : table;
  arena : bool;
  mutable on_sym : int -> unit;
  mutable stack : int array;  (* open elements, innermost frame [sp - 1] *)
  mutable sp : int;
  mutable root_next : int;
  mutable mode : mode;
  mutable text_nonspace : bool;  (* current text run survives the filter *)
  mutable dashes : int;  (* M_comment: trailing '-' count *)
  mutable raw_close : string;  (* M_raw: "</script" / "</style" *)
  mutable raw_base : string;  (* "SCRIPT" / "STYLE" *)
  mutable raw_m : int;  (* matched prefix of raw_close *)
  mutable raw_nonspace : bool;
  mutable raw_name : Bytes.t;  (* M_rawend: folded end-tag name so far *)
  mutable raw_len : int;
  (* start-tag scan: the refining attribute's capture (0 none; 1 value
     at cap_vpos/cap_vlen; 2 valueless) *)
  mutable cap_found : int;
  mutable cap_vpos : int;
  mutable cap_vlen : int;
  mutable cur_index : int;  (* valid during on_sym *)
  mutable cur_node : int;  (* valid during on_sym (arena) *)
  mutable n_emitted : int;
  mutable nd_parent : int array;
  mutable nd_index : int array;
  mutable nd_len : int;
  mutable carry : Bytes.t;  (* unscanned tail of the previous feeds *)
  mutable carry_len : int;
  mutable need_at : int;  (* resume point when Need_more is raised *)
  mutable name_hash : int;  (* fnv_slice of the tag name just scanned *)
  mutable hits : int;  (* interner traffic of the current feed *)
  mutable misses : int;
  mutable dead : bool;
}

type stream = engine

let make_engine tbl ~arena =
  {
    tbl;
    arena;
    on_sym = ignore;
    stack = Array.make 32 0;
    sp = 0;
    root_next = 0;
    mode = M_text;
    text_nonspace = false;
    dashes = 0;
    raw_close = "";
    raw_base = "";
    raw_m = 0;
    raw_nonspace = false;
    raw_name = Bytes.empty;
    raw_len = 0;
    cap_found = 0;
    cap_vpos = 0;
    cap_vlen = 0;
    cur_index = -1;
    cur_node = -1;
    n_emitted = 0;
    nd_parent = (if arena then Array.make 64 0 else [||]);
    nd_index = (if arena then Array.make 64 0 else [||]);
    nd_len = 0;
    carry = Bytes.empty;
    carry_len = 0;
    need_at = 0;
    name_hash = 0;
    hits = 0;
    misses = 0;
    dead = false;
  }

let need eng r =
  eng.need_at <- r;
  raise_notrace Need_more

let grow a len =
  let b = Array.make (2 * max 1 (Array.length a)) 0 in
  Array.blit a 0 b 0 len;
  b

(* [b] with room for [need] bytes, its first [len] kept *)
let reserve b len need =
  if need <= Bytes.length b then b
  else begin
    let b' = Bytes.create (max need (2 * Bytes.length b)) in
    Bytes.blit b 0 b' 0 len;
    b'
  end

(* the slot of the entry whose key the slice folds to, -1 on a miss,
   counted as an interner hit or miss; [h] is the slice's [fnv_slice] *)
let[@inline] lookup eng h s pos len =
  let tbl = eng.tbl in
  let mask = tbl.t_mask in
  let idx = ref (h land mask) and slot = ref (-2) in
  while !slot = -2 do
    let e = Array.unsafe_get tbl.t_slots !idx in
    if e == dummy then slot := -1
    else if slice_is_key s pos len e.e_key then slot := !idx
    else idx := (!idx + 1) land mask
  done;
  if !slot < 0 then eng.misses <- eng.misses + 1
  else eng.hits <- eng.hits + 1;
  !slot

let publish_interner eng =
  if eng.hits lor eng.misses <> 0 then begin
    Obs.Counter2.add interner ~hits:eng.hits ~misses:eng.misses;
    eng.hits <- 0;
    eng.misses <- 0
  end

let[@inline] frame eng k f = Array.unsafe_get eng.stack ((k lsl 2) lor f)
let[@inline] set_frame eng k f v =
  Array.unsafe_set eng.stack ((k lsl 2) lor f) v

let[@inline] push eng slot index node =
  let k = eng.sp in
  if k lsl 2 = Array.length eng.stack then
    eng.stack <- grow eng.stack (k lsl 2);
  set_frame eng k fr_slot slot;
  set_frame eng k fr_index index;
  set_frame eng k fr_node node;
  set_frame eng k fr_next 0;
  eng.sp <- k + 1

let[@inline] add_child eng =
  let k = eng.sp - 1 in
  if k >= 0 then begin
    let i = frame eng k fr_next in
    set_frame eng k fr_next (i + 1);
    i
  end
  else begin
    let i = eng.root_next in
    eng.root_next <- i + 1;
    i
  end

let[@inline] parent_node eng =
  if eng.sp > 0 then frame eng (eng.sp - 1) fr_node else -1

(* a parent-pointer node for the element just opened (arena only) *)
let alloc_node eng index =
  if eng.nd_len = Array.length eng.nd_parent then begin
    eng.nd_parent <- grow eng.nd_parent eng.nd_len;
    eng.nd_index <- grow eng.nd_index eng.nd_len
  end;
  let nd = eng.nd_len in
  eng.nd_parent.(nd) <- parent_node eng;
  eng.nd_index.(nd) <- index;
  eng.nd_len <- nd + 1;
  nd

(* path of the node whose symbol is being emitted (on_sym context) *)
let cur_path eng =
  let acc = ref [ eng.cur_index ] in
  for k = eng.sp - 1 downto 0 do
    acc := frame eng k fr_index :: !acc
  done;
  !acc

(* path of an arena node, outermost index first *)
let node_path eng nd =
  let rec up acc nd =
    if nd < 0 then acc else up (eng.nd_index.(nd) :: acc) eng.nd_parent.(nd)
  in
  up [] nd

let[@inline] emit eng sym =
  eng.n_emitted <- eng.n_emitted + 1;
  eng.on_sym sym

let close_top eng =
  let k = eng.sp - 1 in
  if k >= 0 then begin
    eng.sp <- k;
    eng.cur_index <- frame eng k fr_index;
    eng.cur_node <- frame eng k fr_node;
    let e = entry eng.tbl (frame eng k fr_slot) in
    if e.e_close >= 0 then emit eng e.e_close
    else raise (Unknown_sym ("/" ^ e.e_key))
  end

let[@inline] flush_text eng =
  if eng.text_nonspace then ignore (add_child eng);
  eng.text_nonspace <- false

let upper_slice s pos len =
  String.uppercase_ascii (String.sub s pos len)

(* find a captured value slice among an entry's refined values.  The
   tree path compares lowercase(decode(raw value)); without '&' the
   decode is the identity so a fold-compare on the slice suffices. *)
let find_val e s vpos vlen =
  let has_amp = ref false in
  for k = vpos to vpos + vlen - 1 do
    if String.unsafe_get s k = '&' then has_amp := true
  done;
  let n = Array.length e.e_vals in
  if !has_amp then begin
    let v =
      String.lowercase_ascii (Html_lexer.decode_entities (String.sub s vpos vlen))
    in
    let r = ref (-1) in
    for k = 0 to n - 1 do
      if !r < 0 && String.equal e.e_vals.(k) v then r := k
    done;
    !r
  end
  else begin
    let r = ref (-1) in
    for k = 0 to n - 1 do
      if !r < 0 then begin
        let v = e.e_vals.(k) in
        if String.length v = vlen then begin
          let j = ref 0 in
          while
            !j < vlen
            && Char.lowercase_ascii (String.unsafe_get s (vpos + !j))
               = String.unsafe_get v !j
          do
            incr j
          done;
          if !j = vlen then r := k
        end
      end
    done;
    !r
  end

let refined_error e s vpos vlen =
  e.e_key ^ ":" ^ e.e_attr ^ "="
  ^ String.lowercase_ascii (Html_lexer.decode_entities (String.sub s vpos vlen))

(* start-tag resolution: implied closes, then the (possibly refined)
   open symbol, then leaf/push and the raw-text mode switch.  All
   emissions happen in tree-walk order so the first Unknown_sym matches
   Tag_seq.of_doc_indexed on the equivalent tree. *)
let process_start eng s slot npos nlen ~self_closing =
  let e = entry eng.tbl slot in
  let flags =
    if e != dummy then e.e_inflags else inflags_of (upper_slice s npos nlen)
  in
  while
    eng.sp > 0
    &&
    let g = (entry eng.tbl (frame eng (eng.sp - 1) fr_slot)).e_grp in
    g >= 0 && (flags lsr g) land 1 = 1
  do
    close_top eng
  done;
  if e == dummy then
    (* unrefinable unknown name (refinable ones are seeded entries) *)
    raise (Unknown_sym (upper_slice s npos nlen));
  let sym =
    if String.length e.e_attr > 0 && eng.cap_found = 1 then begin
      let k = find_val e s eng.cap_vpos eng.cap_vlen in
      if k >= 0 then e.e_vsyms.(k)
      else raise (Unknown_sym (refined_error e s eng.cap_vpos eng.cap_vlen))
    end
    else if e.e_open >= 0 then e.e_open
    else raise (Unknown_sym e.e_key)
  in
  let index = add_child eng in
  let node = if eng.arena then alloc_node eng index else -1 in
  eng.cur_index <- index;
  eng.cur_node <- node;
  emit eng sym;
  if self_closing || e.e_void then begin
    (* leaf; a self-closing non-void element still emits its close *)
    if not e.e_void then
      if e.e_close >= 0 then emit eng e.e_close
      else raise (Unknown_sym ("/" ^ e.e_key))
  end
  else push eng slot index node;
  if (not self_closing) && e.e_raw then begin
    eng.mode <- M_raw;
    eng.raw_close <- (if e.e_key = "SCRIPT" then "</script" else "</style");
    eng.raw_base <- e.e_key;
    eng.raw_m <- 0;
    eng.raw_nonspace <- false
  end

(* end-tag resolution: void and unknown end tags are dropped; a match
   anywhere in the stack pops (emitting closes) down to it inclusive. *)
let process_end eng slot =
  if slot >= 0 && not (entry eng.tbl slot).e_void then begin
    let k = ref (eng.sp - 1) in
    while !k >= 0 && frame eng !k fr_slot <> slot do
      decr k
    done;
    let k = !k in
    if k >= 0 then
      while eng.sp > k do
        close_top eng
      done
  end

let finish_rawend eng =
  let len = eng.raw_len in
  let name = Bytes.unsafe_to_string eng.raw_name in
  eng.raw_len <- 0;
  process_end eng (lookup eng (fnv_slice name 0 len) name 0 len);
  eng.mode <- M_skipgt

(* '&' while the current run is still all-space: decide whether the
   decoded form is a space without materializing the run.  Mirrors
   decode_entities' window (';' within 10 chars, cut by the run-ending
   construct) — the only decodes that stay spaces are the numeric forms
   of 32. *)
let entity_step eng s n eof amp =
  let limit = amp + 10 in
  let j = ref (amp + 1) and res = ref (-1) in
  while !res < 0 do
    let jj = !j in
    if jj > limit then res := amp + 1
    else if jj >= n then
      if eof then res := amp + 1 else need eng amp
    else
      let c = String.unsafe_get s jj in
      if c = ';' then begin
        let space = Html_lexer.numeric_ref s (amp + 1) (jj - amp - 1) = 32 in
        res := if space then jj + 1 else amp + 1
      end
      else if c = '<' then begin
        (* a construct here ends the run before the ';' *)
        if jj + 1 >= n then
          if eof then j := jj + 1 else need eng amp
        else
          let c1 = String.unsafe_get s (jj + 1) in
          if c1 = '!' || is_name_char c1 then res := amp + 1
          else if c1 = '/' then begin
            if jj + 2 >= n then
              if eof then j := jj + 1 else need eng amp
            else if is_name_char (String.unsafe_get s (jj + 2)) then
              res := amp + 1
            else j := jj + 1
          end
          else j := jj + 1
      end
      else j := jj + 1
  done;
  (* every outcome but a space entity ends the all-space run *)
  if !res = amp + 1 then eng.text_nonspace <- true;
  !res

let[@inline] skip_sp s n k =
  let k = ref k in
  while !k < n && is_space (String.unsafe_get s !k) do
    incr k
  done;
  !k

let attr_is s apos target =
  let alen = String.length target in
  let k = ref 0 in
  while
    !k < alen
    && Char.lowercase_ascii (String.unsafe_get s (apos + !k))
       = String.unsafe_get target !k
  do
    incr k
  done;
  !k = alen

(* attribute [apos, alen) seen with value [vpos, vlen), [vlen < 0] when
   valueless: capture it if it is the first occurrence of [target] *)
let[@inline] record_cap eng s target apos alen vpos vlen =
  if eng.cap_found = 0 && String.length target = alen then
    if attr_is s apos target then
      if vlen < 0 then eng.cap_found <- 2
      else begin
        eng.cap_found <- 1;
        eng.cap_vpos <- vpos;
        eng.cap_vlen <- vlen
      end

(* doctype, or the tail of an end tag: everything through '>' *)
let skipgt_run eng s n i =
  let i = ref i in
  while !i < n && String.unsafe_get s !i <> '>' do
    incr i
  done;
  if !i < n then begin
    eng.mode <- M_text;
    !i + 1
  end
  else n

(* a tag name from [pos]: its end, with its [fnv_slice] hash left in
   [name_hash] — hashed as it is read *)
let scan_name eng s n pos =
  let j = ref pos and h = ref fnv_off in
  while !j < n && is_name_char (String.unsafe_get s !j) do
    h := fnv_step !h (String.unsafe_get s !j);
    incr j
  done;
  eng.name_hash <- !h land max_int;
  !j

(* full start-tag scan: name, then a faithful
   replica of the lexer's scan_attrs (quotes, junk skipping, '/'
   self-close lookahead), with the refining attribute captured as a
   slice on the fly.  Raises Need_more before any emission, so a
   re-scan from the carried '<' is safe. *)
let scan_start eng s n eof cstart =
  let npos = cstart + 1 in
  let j = scan_name eng s n npos in
  if j = n && not eof then need eng cstart;
  let nlen = j - npos in
  let slot = lookup eng eng.name_hash s npos nlen in
  let target = (entry eng.tbl slot).e_attr in
  eng.cap_found <- 0;
  let self_closing = ref false in
  let fin = ref (-1) in
  let i = ref j in
  while !fin < 0 do
    let p = skip_sp s n !i in
    if p >= n then begin
      if not eof then need eng cstart;
      fin := n
    end
    else
      let c = String.unsafe_get s p in
      if c = '>' then fin := p + 1
      else if c = '/' then begin
        let q = skip_sp s n (p + 1) in
        if q >= n && not eof then need eng cstart;
        if q < n && String.unsafe_get s q = '>' then begin
          self_closing := true;
          fin := q + 1
        end
        else i := p + 1
      end
      else begin
        (* scan_attr *)
        let k = ref p in
        while !k < n && is_name_char (String.unsafe_get s !k) do
          incr k
        done;
        if !k = n && not eof then need eng cstart;
        let alen = !k - p in
        if alen = 0 then i := p + 1
        else begin
          let q = skip_sp s n !k in
          if q >= n then begin
            if not eof then need eng cstart;
            record_cap eng s target p alen 0 (-1);
            i := q
          end
          else if String.unsafe_get s q = '=' then begin
            let v = skip_sp s n (q + 1) in
            if v >= n then begin
              if not eof then need eng cstart;
              record_cap eng s target p alen v 0;
              i := v
            end
            else
              let quote = String.unsafe_get s v in
              if quote = '"' || quote = '\'' then begin
                let m = ref (v + 1) in
                while !m < n && String.unsafe_get s !m <> quote do
                  incr m
                done;
                if !m = n then begin
                  if not eof then need eng cstart;
                  record_cap eng s target p alen (v + 1) (n - v - 1);
                  i := n
                end
                else begin
                  record_cap eng s target p alen (v + 1) (!m - v - 1);
                  i := !m + 1
                end
              end
              else begin
                let m = ref v in
                while
                  !m < n
                  &&
                  let c = String.unsafe_get s !m in
                  (not (is_space c)) && c <> '>' && c <> '/'
                do
                  incr m
                done;
                if !m = n && not eof then need eng cstart;
                record_cap eng s target p alen v (!m - v);
                i := !m
              end
          end
          else begin
            record_cap eng s target p alen 0 (-1);
            i := q
          end
        end
      end
  done;
  flush_text eng;
  process_start eng s slot npos nlen ~self_closing:!self_closing;
  !fin

let scan_end eng s n eof cstart =
  let npos = cstart + 2 in
  let j = scan_name eng s n npos in
  if j = n && not eof then need eng cstart;
  flush_text eng;
  process_end eng (lookup eng eng.name_hash s npos (j - npos));
  (* the rest of the end tag, through '>' *)
  eng.mode <- M_skipgt;
  skipgt_run eng s n j

(* a '<' at [st] in text: a comment, doctype, end or start tag, or —
   when none of those can begin here — one more text byte *)
let text_lt eng s n eof st =
  if st + 1 >= n then begin
    if not eof then need eng st;
    (* lone '<' at end of input stays text *)
    eng.text_nonspace <- true;
    st + 1
  end
  else
    let c1 = String.unsafe_get s (st + 1) in
    if c1 = '!' then begin
      (* comment needs "<!--" with the fourth byte in range *)
      if (st + 2 >= n || (s.[st + 2] = '-' && st + 3 >= n)) && not eof then
        need eng st;
      flush_text eng;
      if st + 3 < n && s.[st + 2] = '-' && s.[st + 3] = '-' then begin
        eng.mode <- M_comment;
        eng.dashes <- 0;
        st + 4
      end
      else begin
        eng.mode <- M_doctype;
        st + 2
      end
    end
    else if c1 = '/' then begin
      if st + 2 >= n then begin
        if not eof then need eng st;
        eng.text_nonspace <- true;
        st + 1
      end
      else if is_name_char (String.unsafe_get s (st + 2)) then
        scan_end eng s n eof st
      else begin
        eng.text_nonspace <- true;
        st + 1
      end
    end
    else if is_name_char c1 then scan_start eng s n eof st
    else begin
      eng.text_nonspace <- true;
      st + 1
    end

(* text, from [i < n]: run to the next '<' — or to an '&' while the
   run is still all-space — then handle what stopped the run *)
let text_run eng s n eof i =
  if String.unsafe_get s i = '<' then text_lt eng s n eof i
  else begin
    let i = ref i in
    if not eng.text_nonspace then begin
      while !i < n && is_space (String.unsafe_get s !i) do
        incr i
      done;
      if !i < n then begin
        let c = String.unsafe_get s !i in
        if c <> '<' && c <> '&' then eng.text_nonspace <- true
      end
    end;
    if eng.text_nonspace then
      while !i < n && String.unsafe_get s !i <> '<' do
        incr i
      done;
    if !i >= n then n
    else if String.unsafe_get s !i = '&' then entity_step eng s n eof !i
    else text_lt eng s n eof !i
  end

let comment_run eng s n i =
  let i = ref i and d = ref eng.dashes and closed = ref false in
  while (not !closed) && !i < n do
    let c = String.unsafe_get s !i in
    incr i;
    if c = '-' then incr d
    else if c = '>' && !d >= 2 then closed := true
    else d := 0
  done;
  eng.dashes <- !d;
  if !closed then begin
    ignore (add_child eng);
    (* the comment node *)
    eng.mode <- M_text
  end;
  !i

let raw_run eng s n i =
  let cl = eng.raw_close in
  let cl_len = String.length cl in
  let i = ref i and m = ref eng.raw_m and nonspace = ref eng.raw_nonspace in
  while !m < cl_len && !i < n do
    let c = String.unsafe_get s !i in
    incr i;
    if !m > 0 then begin
      if Char.lowercase_ascii c = String.unsafe_get cl !m then incr m
      else begin
        (* the held "</scri…" prefix chars are body, all non-space *)
        nonspace := true;
        m := if c = '<' then 1 else 0
      end
    end
    else if c = '<' then m := 1
    else if not (is_space c) then nonspace := true
  done;
  if !m = cl_len then begin
    if !nonspace then ignore (add_child eng);
    eng.raw_m <- 0;
    eng.raw_nonspace <- false;
    (* the end tag's name starts as the element's own key *)
    let base = eng.raw_base in
    let blen = String.length base in
    eng.raw_name <- reserve eng.raw_name 0 blen;
    Bytes.blit_string base 0 eng.raw_name 0 blen;
    eng.raw_len <- blen;
    eng.mode <- M_rawend
  end
  else begin
    eng.raw_m <- !m;
    eng.raw_nonspace <- !nonspace
  end;
  !i

let rawend_run eng s n i =
  let i = ref i in
  while !i < n && is_name_char (String.unsafe_get s !i) do
    let len = eng.raw_len in
    if len = Bytes.length eng.raw_name then
      eng.raw_name <- reserve eng.raw_name len (len + 1);
    Bytes.unsafe_set eng.raw_name len
      (Char.uppercase_ascii (String.unsafe_get s !i));
    eng.raw_len <- len + 1;
    incr i
  done;
  if !i < n then finish_rawend eng;
  !i

(* one dispatch per construct; each mode runs its own byte loop *)
let scan eng s n eof =
  let i = ref 0 in
  while !i < n do
    i :=
      match eng.mode with
      | M_text -> text_run eng s n eof !i
      | M_comment -> comment_run eng s n !i
      | M_doctype | M_skipgt -> skipgt_run eng s n !i
      | M_raw -> raw_run eng s n !i
      | M_rawend -> rawend_run eng s n !i
  done

let finalize eng =
  (match eng.mode with
  | M_text -> flush_text eng
  | M_comment -> ignore (add_child eng)
  | M_doctype -> ()
  | M_raw ->
      if eng.raw_m > 0 then eng.raw_nonspace <- true;
      if eng.raw_nonspace then ignore (add_child eng)
  | M_rawend -> finish_rawend eng
  | M_skipgt -> ());
  eng.mode <- M_text;
  while eng.sp > 0 do
    close_top eng
  done

(* Scan the carry followed by [chunk]; whatever cannot be decided yet
   becomes the new carry.  The carry is cleared before scanning, so an
   exception (an unknown symbol, or one raised by on_sym) drops it. *)
let scan_chunk eng chunk eof =
  let clen = String.length chunk in
  if eng.carry_len = 0 then begin
    match scan eng chunk clen eof with
    | () -> ()
    | exception Need_more ->
        let r = eng.need_at in
        eng.carry <- reserve eng.carry 0 (clen - r);
        Bytes.blit_string chunk r eng.carry 0 (clen - r);
        eng.carry_len <- clen - r
  end
  else begin
    let n = eng.carry_len + clen in
    eng.carry <- reserve eng.carry eng.carry_len n;
    Bytes.blit_string chunk 0 eng.carry eng.carry_len clen;
    eng.carry_len <- 0;
    match scan eng (Bytes.unsafe_to_string eng.carry) n eof with
    | () -> ()
    | exception Need_more ->
        let r = eng.need_at in
        Bytes.blit eng.carry r eng.carry 0 (n - r);
        eng.carry_len <- n - r
  end

let feed eng chunk eof =
  match
    scan_chunk eng chunk eof;
    if eof then finalize eng
  with
  | () -> publish_interner eng
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      publish_interner eng;
      Printexc.raise_with_backtrace e bt

(* --- one-shot drivers --- *)

let account_page nbytes =
  Atomic.incr pages_total;
  ignore (Atomic.fetch_and_add bytes_total nbytes)

let word tbl html =
  let sp = Obs.Span.enter Obs.Span.Front in
  match
    let eng = make_engine tbl ~arena:false in
    let buf = ref (Array.make 64 0) and len = ref 0 in
    eng.on_sym <-
      (fun sym ->
        if !len = Array.length !buf then buf := grow !buf !len;
        !buf.(!len) <- sym;
        incr len);
    feed eng html true;
    account_page (String.length html);
    Array.sub !buf 0 !len
  with
  | exception Unknown_sym name ->
      Obs.Span.fail sp;
      raise (Tag_seq.Unknown_symbol name)
  | exception e ->
      Obs.Span.fail sp;
      raise e
  | w ->
      Obs.Span.exit sp;
      w

type error =
  | No_match
  | Ambiguous of int list
  | Unknown_symbol of string

let record_geometry (comp : Extraction.compressed) =
  Atomic.set last_alpha (Array.length comp.Extraction.class_of);
  Atomic.set last_classes comp.Extraction.n_classes

(* online: step the compressed left DFA as ids arrive; a hit is a mark
   whose prefix state is final (the suffix is Σ*, always accepted).
   The first hit's path is captured from the live stack. *)
let run_online tbl (comp : Extraction.compressed) html ~want_path =
  let d = comp.Extraction.c_left in
  let cls = comp.Extraction.class_of in
  let c_mark = comp.Extraction.c_mark in
  let finals = d.Dfa.finals in
  let eng = make_engine tbl ~arena:false in
  let q = ref d.Dfa.start in
  let hits = ref [] and nhits = ref 0 in
  let path = ref [] in
  eng.on_sym <-
    (fun sym ->
      let c = Array.unsafe_get cls sym in
      if c = c_mark && Array.unsafe_get finals !q then begin
        if want_path && !nhits = 0 then path := cur_path eng;
        hits := eng.n_emitted - 1 :: !hits;
        incr nhits
      end;
      q := Dfa.unsafe_step d !q c);
  feed eng html true;
  account_page (String.length html);
  (List.rev !hits, !path)

(* offline: buffer class ids plus the emitting node's arena id, run the
   two-pass class-space matcher, then climb parent pointers. *)
let run_offline tbl m (comp : Extraction.compressed) html =
  let cls = comp.Extraction.class_of in
  let eng = make_engine tbl ~arena:true in
  let buf = ref (Array.make 64 0) and posn = ref (Array.make 64 0) in
  let len = ref 0 in
  eng.on_sym <-
    (fun sym ->
      if !len = Array.length !buf then begin
        buf := grow !buf !len;
        posn := grow !posn !len
      end;
      !buf.(!len) <- Array.unsafe_get cls sym;
      !posn.(!len) <- eng.cur_node;
      incr len);
  feed eng html true;
  account_page (String.length html);
  let w = Array.sub !buf 0 !len in
  (Extraction.matcher_splits_classes m w, eng, !posn)

let extract tbl m html =
  let sp = Obs.Span.enter Obs.Span.Front in
  match
    let comp = Extraction.matcher_compressed m in
    record_geometry comp;
    if Extraction.matcher_online m then begin
      let hits, path = run_online tbl comp html ~want_path:true in
      match hits with
      | [] -> Error No_match
      | [ _ ] -> Ok path
      | l -> Error (Ambiguous l)
    end
    else begin
      let splits, eng, posn = run_offline tbl m comp html in
      match splits with
      | [] -> Error No_match
      | [ i ] -> Ok (node_path eng posn.(i))
      | l -> Error (Ambiguous l)
    end
  with
  | exception Unknown_sym name ->
      Obs.Span.exit sp;
      Error (Unknown_symbol name)
  | exception e ->
      Obs.Span.fail sp;
      raise e
  | r ->
      Obs.Span.exit sp;
      r

let splits tbl m html =
  let sp = Obs.Span.enter Obs.Span.Front in
  match
    let comp = Extraction.matcher_compressed m in
    record_geometry comp;
    if Extraction.matcher_online m then
      fst (run_online tbl comp html ~want_path:false)
    else begin
      let splits, _, _ = run_offline tbl m comp html in
      splits
    end
  with
  | exception Unknown_sym name ->
      Obs.Span.exit sp;
      Error name
  | exception e ->
      Obs.Span.fail sp;
      raise e
  | r ->
      Obs.Span.exit sp;
      Ok r

(* --- incremental streaming --- *)

let stream_make tbl = make_engine tbl ~arena:false

let stream_feed st chunk ~emit =
  if st.dead then Ok ()
  else begin
    ignore (Atomic.fetch_and_add bytes_total (String.length chunk));
    st.on_sym <- emit;
    match feed st chunk false with
    | () -> Ok ()
    | exception Unknown_sym name ->
        st.dead <- true;
        Error name
  end

let stream_finish st ~emit =
  if st.dead then Ok ()
  else begin
    st.on_sym <- emit;
    Atomic.incr pages_total;
    match feed st "" true with
    | () -> Ok ()
    | exception Unknown_sym name ->
        st.dead <- true;
        Error name
  end

(* --- statistics --- *)

type stats = {
  pages : int;
  bytes : int;
  tables : int;
  entries : int;
  interner_hits : int;
  interner_misses : int;
  last_alpha : int;
  last_classes : int;
}

let stats () =
  let hits, misses = Obs.Counter2.read interner in
  {
    pages = Atomic.get pages_total;
    bytes = Atomic.get bytes_total;
    tables = Atomic.get tables_built;
    entries = Atomic.get entries_total;
    interner_hits = hits;
    interner_misses = misses;
    last_alpha = Atomic.get last_alpha;
    last_classes = Atomic.get last_classes;
  }

let pp_stats ppf s =
  Format.fprintf ppf "front stats:@.";
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "pages" s.pages "bytes" s.bytes;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "tables" s.tables "entries"
    s.entries;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "intern-hits" s.interner_hits
    "intern-misses" s.interner_misses;
  Format.fprintf ppf "  %-12s %8d  %-12s %8d@." "alpha" s.last_alpha "classes"
    s.last_classes

(* --- metrics provider --- *)

let () =
  Obs.register_provider "front" (fun () ->
      let open Obs.Json in
      let hits, misses = Obs.Counter2.read interner in
      Obj
        [
          ("pages", Int (Atomic.get pages_total));
          ("bytes", Int (Atomic.get bytes_total));
          ("tables", Int (Atomic.get tables_built));
          ("entries", Int (Atomic.get entries_total));
          ("interner", Obj [ ("hits", Int hits); ("misses", Int misses) ]);
          ("alpha", Int (Atomic.get last_alpha));
          ("classes", Int (Atomic.get last_classes));
        ])
