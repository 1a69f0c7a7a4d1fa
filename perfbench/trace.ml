(* In-memory spans for the traced run: name, start, end, parent, session
   id, plus the minor words the calling domain allocated inside.  Stored
   in preallocated arrays so recording a span allocates nothing inside
   the measured interval; written out once, at the end. *)

type t = {
  mutable n : int;
  mutable name : int array;
  mutable parent : int array;
  mutable sid : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable w0 : float array;
  mutable w1 : float array;
  names : (string, int) Hashtbl.t;
  mutable labels : string array;
}

let create () =
  let cap = 1 lsl 16 in
  {
    n = 0;
    name = Array.make cap 0;
    parent = Array.make cap 0;
    sid = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    w0 = Array.make cap 0.0;
    w1 = Array.make cap 0.0;
    names = Hashtbl.create 32;
    labels = [||];
  }

let reset t = t.n <- 0

let intern t label =
  match Hashtbl.find_opt t.names label with
  | Some k -> k
  | None ->
      let k = Array.length t.labels in
      Hashtbl.add t.names label k;
      t.labels <- Array.append t.labels [| label |];
      k

let grow t =
  let cap = 2 * Array.length t.name in
  let g a z = Array.append a (Array.make (cap - Array.length a) z) in
  t.name <- g t.name 0;
  t.parent <- g t.parent 0;
  t.sid <- g t.sid 0;
  t.start <- g t.start 0;
  t.stop <- g t.stop 0;
  t.w0 <- g t.w0 0.0;
  t.w1 <- g t.w1 0.0

(* Open a span; answers its index, the [parent] of spans it causes. *)
let enter t name ~parent ~sid =
  if t.n = Array.length t.name then grow t;
  let k = t.n in
  t.n <- k + 1;
  t.name.(k) <- name;
  t.parent.(k) <- parent;
  t.sid.(k) <- sid;
  t.w0.(k) <- Gc.minor_words ();
  t.start.(k) <- Proc.now_ns ();
  k

let leave t k =
  t.stop.(k) <- Proc.now_ns ();
  t.w1.(k) <- Gc.minor_words ()

let span t name ~parent ~sid f =
  let k = enter t name ~parent ~sid in
  let r = f () in
  leave t k;
  r

let root = -1

(* Per span: duration minus the part its children cover.  Children of
   one span never overlap (the traced run is sequential), so that part
   is the sum of their durations. *)
let self_ns t =
  let self = Array.init t.n (fun k -> t.stop.(k) - t.start.(k)) in
  for k = 0 to t.n - 1 do
    let p = t.parent.(k) in
    if p >= 0 then self.(p) <- self.(p) - (t.stop.(k) - t.start.(k))
  done;
  self

type total = { count : int; total_ns : int; self_ns : int; words : float }

(* Per span name: calls, summed duration, summed self time, summed minor
   words. *)
let totals t =
  let self = self_ns t in
  let acc = Array.make (Array.length t.labels) { count = 0; total_ns = 0; self_ns = 0; words = 0.0 } in
  for k = 0 to t.n - 1 do
    let a = acc.(t.name.(k)) in
    acc.(t.name.(k)) <-
      {
        count = a.count + 1;
        total_ns = a.total_ns + (t.stop.(k) - t.start.(k));
        self_ns = a.self_ns + self.(k);
        words = a.words +. (t.w1.(k) -. t.w0.(k));
      }
  done;
  List.mapi (fun i l -> (l, acc.(i))) (Array.to_list t.labels)

let write t path =
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id,name,start_ns,end_ns,parent,session,minor_words\n";
      for k = 0 to t.n - 1 do
        Printf.fprintf oc "%d,%s,%d,%d,%d,%d,%.0f\n" k t.labels.(t.name.(k)) t.start.(k)
          t.stop.(k) t.parent.(k) t.sid.(k)
          (t.w1.(k) -. t.w0.(k))
      done)
