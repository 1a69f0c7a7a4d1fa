type event =
  | Split of int
  | Budget_exhausted of Guard.reason
  | Bad_symbol of string
  | Faulted of string

type t = {
  sid : int;
  sordinal : int;
  sgeneration : int;
      (* the wrapper generation this session was admitted under; a heal
         swap mid-stream never migrates a live session *)
  alpha : Alphabet.t;
  front : Front.table option;
      (* shared fused-front-end token table (supervisor builds one per
         daemon); [None] falls back to a per-session build on the
         first [page] frame *)
  budget : Guard.Budget.t option;
  capture : Buffer.t option;
      (* bounded raw-page capture for the healing quarantine; [None]
         when healing is off, so the hot path allocates nothing *)
  capture_max : int;
  mutable capture_overflow : bool;
  cursor : Extraction.cursor;
      (* the whole matcher state: a left-DFA state and a position *)
  mutable live : bool;
  mutable failed : bool;
      (* a terminal event (bad symbol / budget / fault) killed the
         session — distinct from a clean finish *)
  mutable tokens : int;
  mutable splits : int;
  mutable f_stream : Front.stream option;
      (* incremental page front-end, created on the first [page] frame
         so token-only sessions never allocate one *)
  mutable pending : event list; (* reversed; drained per feed *)
}

let id t = t.sid
let ordinal t = t.sordinal
let generation t = t.sgeneration
let alive t = t.live
let failed t = t.failed
let tokens_fed t = t.tokens
let splits_emitted t = t.splits

let create ~matcher ~alpha ~id ~ordinal ?front ?fuel ?deadline_ms
    ?(generation = 0) ?capture () =
  let budget =
    match (fuel, deadline_ms) with
    | None, None -> None
    | _ ->
        Some
          (Guard.Budget.make
             ~fuel:(Option.value fuel ~default:max_int)
             ?deadline_ms ())
  in
  {
    sid = id;
    sordinal = ordinal;
    sgeneration = generation;
    alpha;
    front;
    budget;
    capture = Option.map (fun _ -> Buffer.create 1024) capture;
    capture_max = Option.value capture ~default:0;
    capture_overflow = false;
    cursor = Extraction.cursor matcher;
    live = true;
    failed = false;
    tokens = 0;
    splits = 0;
    f_stream = None;
    pending = [];
  }

let drain_pending t =
  let evs = List.rev t.pending in
  t.pending <- [];
  evs

(* Terminal event: the session dies, whatever was already pinned this
   feed is kept (those splits are valid — they precede the failure
   point in the stream). *)
let die t ev =
  t.live <- false;
  t.failed <- true;
  t.pending <- ev :: t.pending

(* Capture happens outside the liveness check (the supervisor records
   every [page] chunk of a heal-observed session, even after it died on
   an earlier chunk): the quarantined page must be the whole document a
   re-synthesis can re-label, not the prefix up to the failure. *)
let capture_chunk t html =
  match t.capture with
  | None -> ()
  | Some buf ->
      if Buffer.length buf + String.length html > t.capture_max then
        t.capture_overflow <- true
      else Buffer.add_string buf html

let captured_page t =
  match t.capture with
  | Some buf when (not t.capture_overflow) && Buffer.length buf > 0 ->
      Some (Buffer.contents buf)
  | Some _ | None -> None

(* One token: count it, charge it, step the cursor.  The charge comes
   before the step, so a token that exhausts the budget pins nothing —
   one fuel unit per token, the serve analogue of the
   one-unit-per-DFA-state discipline of lib/automata. *)
let push t a =
  t.tokens <- t.tokens + 1;
  Guard.charge ~stage:"stream" 1;
  let pos = Extraction.cursor_pos t.cursor in
  if Extraction.cursor_step t.cursor a then begin
    t.splits <- t.splits + 1;
    t.pending <- Split pos :: t.pending
  end

(* Run one frame's work under the session's budget: one scope per
   frame, while the budget's own counters carry fuel and the deadline
   check period across frames, so exhaustion fires at the same token
   as with a scope per token. *)
let budgeted t f x =
  match t.budget with
  | None -> f t x
  | Some b -> Guard.with_budget b (fun () -> f t x)

(* Every failure below becomes a terminal event; [feed], [feed_page]
   and [finish] never raise. *)
let guarded t f x =
  if not t.live then []
  else begin
    (try budgeted t f x with
    | Guard.Exhausted r -> die t (Budget_exhausted r)
    | e -> die t (Faulted (Printexc.to_string e)));
    drain_pending t
  end

let rec push_names t = function
  | [] -> ()
  | name :: rest -> (
      match Alphabet.find_exn t.alpha name with
      | exception Invalid_argument _ -> die t (Bad_symbol name)
      | a ->
          push t a;
          push_names t rest)

(* the injected-fault probe fires on input frames, never on [finish] *)
let probe t = Guard_faults.point_indexed Guard_faults.Session_item t.sordinal

let feed_names t names =
  probe t;
  push_names t names

let feed t names = guarded t feed_names names

(* The session's incremental front-end, created on first use.  Tokens
   emitted by the stream go through the exact [feed] path ([push]), so a
   [page] session is indistinguishable from a [tokens] session to the
   matcher. *)
let stream_of t =
  match t.f_stream with
  | Some st -> st
  | None ->
      let tbl =
        match t.front with Some tbl -> tbl | None -> Front.build t.alpha
      in
      let st = Front.stream_make tbl in
      t.f_stream <- Some st;
      st

let feed_chunk t html =
  probe t;
  match Front.stream_feed (stream_of t) html ~emit:(push t) with
  | Ok () -> ()
  | Error name -> die t (Bad_symbol name)

let feed_page t html = guarded t feed_chunk html

(* Flush the page front-end: carried bytes and still open elements emit
   their final symbols.  End of stream itself needs no step — with a
   Σ*-right expression every split was pinned when its mark was read. *)
let flush t () =
  match t.f_stream with
  | None -> ()
  | Some st -> (
      match Front.stream_finish st ~emit:(push t) with
      | Ok () -> ()
      | Error name -> die t (Bad_symbol name))

let finish t =
  let evs = guarded t flush () in
  t.live <- false;
  evs
