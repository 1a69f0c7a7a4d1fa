(* Tests for the observability layer (lib/obs): span nesting and
   cross-domain parenting, packed-counter consistency under concurrent
   increments, histogram bucket edges, the zero-allocation disabled
   path, failure propagation through instrumented stages, and the
   consistent-snapshot invariants of the sharded Lang_cache counters
   hammered from four domains. *)

open Helpers

(* Save/restore the global switch so a failing assertion cannot leave
   tracing on for the rest of the binary. *)
let with_tracing f =
  let saved = Obs.enabled () in
  Obs.set_enabled true;
  Obs.reset ();
  Fun.protect
    ~finally:(fun () ->
      Obs.reset ();
      Obs.set_enabled saved)
    f

(* --- spans --- *)

let test_span_nesting () =
  with_tracing @@ fun () ->
  let a = Obs.Span.enter Obs.Span.Verdict in
  let b = Obs.Span.enter Obs.Span.Determinize in
  let c = Obs.Span.enter Obs.Span.Minimize in
  Obs.Span.exit c;
  Obs.Span.exit_n b 42;
  let d = Obs.Span.enter Obs.Span.Product in
  Obs.Span.exit d;
  Obs.Span.exit a;
  let recs = Obs.Span.records () in
  check_int "four closed spans" 4 (List.length recs);
  let by_stage st =
    List.find (fun r -> r.Obs.Span.stage = st) recs
  in
  let ra = by_stage Obs.Span.Verdict in
  let rb = by_stage Obs.Span.Determinize in
  let rc = by_stage Obs.Span.Minimize in
  let rd = by_stage Obs.Span.Product in
  check_int "outer span is a root" (-1) ra.Obs.Span.parent;
  check_int "first child under outer" ra.Obs.Span.id rb.Obs.Span.parent;
  check_int "grandchild under first child" rb.Obs.Span.id rc.Obs.Span.parent;
  check_int "sibling also under outer" ra.Obs.Span.id rd.Obs.Span.parent;
  check_int "exit_n note recorded" 42 rb.Obs.Span.note;
  check_int "exit leaves no note" (-1) rc.Obs.Span.note;
  check_bool "none failed" false
    (List.exists (fun r -> r.Obs.Span.failed) recs);
  check_bool "ids replay open order" true
    (ra.Obs.Span.id < rb.Obs.Span.id
    && rb.Obs.Span.id < rc.Obs.Span.id
    && rc.Obs.Span.id < rd.Obs.Span.id)

let test_span_parenting_across_domains () =
  with_tracing @@ fun () ->
  let root = Obs.Span.enter Obs.Span.Batch_run in
  let doms =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            Obs.Span.set_ambient root;
            let sp = Obs.Span.enter Obs.Span.Determinize in
            Obs.Span.exit sp))
  in
  List.iter Domain.join doms;
  Obs.Span.exit root;
  let recs = Obs.Span.records () in
  let root_rec =
    List.find (fun r -> r.Obs.Span.stage = Obs.Span.Batch_run) recs
  in
  let children =
    List.filter (fun r -> r.Obs.Span.stage = Obs.Span.Determinize) recs
  in
  check_int "both domain spans recorded" 2 (List.length children);
  List.iter
    (fun r ->
      check_int "child parented under the ambient root" root_rec.Obs.Span.id
        r.Obs.Span.parent)
    children;
  check_int "children live on two distinct domains" 2
    (List.length
       (List.sort_uniq compare
          (List.map (fun r -> r.Obs.Span.domain) children)))

let test_span_parenting_through_pool () =
  with_tracing @@ fun () ->
  Pool.run ~participants:4 16 (fun _ ->
      let sp = Obs.Span.enter Obs.Span.Determinize in
      Obs.Span.exit sp);
  let recs = Obs.Span.records () in
  let batch =
    List.find (fun r -> r.Obs.Span.stage = Obs.Span.Batch_run) recs
  in
  let items =
    List.filter (fun r -> r.Obs.Span.stage = Obs.Span.Determinize) recs
  in
  check_int "every item span recorded" 16 (List.length items);
  check_int "batch note carries the item count" 16 batch.Obs.Span.note;
  List.iter
    (fun r ->
      check_int "item span parented under Batch_run" batch.Obs.Span.id
        r.Obs.Span.parent)
    items

let test_exhaustion_closes_spans_failed () =
  with_tracing @@ fun () ->
  Runtime.set_enabled false;
  Fun.protect ~finally:(fun () -> Runtime.set_enabled true) @@ fun () ->
  let e = Extraction.parse ab_pq "(q p)* <p> (p | q)*" in
  (match Guard.run ~fuel:8 (fun () -> Maximality.check e) with
  | Guard.Unknown _ -> ()
  | Guard.Decided _ -> Alcotest.fail "fuel 8 unexpectedly sufficed");
  let recs = Obs.Span.records () in
  check_bool "exhaustion recorded at least one failed span" true
    (List.exists (fun r -> r.Obs.Span.failed) recs);
  check_bool "every span was closed (none left open)" true
    (List.for_all (fun r -> r.Obs.Span.dur_ns >= 0) recs)

let test_injected_fault_closes_build_span_failed () =
  with_tracing @@ fun () ->
  Runtime.reset ();
  Guard_faults.arm Guard_faults.Determinize ~at:[ 1 ];
  Fun.protect ~finally:Guard_faults.disarm @@ fun () ->
  (match Lang.parse ab_pq "(p q)* p" with
  | _ -> Alcotest.fail "armed Determinize fault did not fire"
  | exception Guard_faults.Injected _ -> ());
  let recs = Obs.Span.records () in
  check_bool "the injected fault closed a failed span" true
    (List.exists (fun r -> r.Obs.Span.failed) recs)

(* --- packed counters --- *)

let test_counter2_concurrent_consistency () =
  let c = Obs.Counter2.make () in
  let per_domain = 20_000 in
  let stop = Atomic.make false in
  (* three domains count one event at a time; the fourth publishes the
     same totals in batches, as the fused front-end does once per feed *)
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            if d = 3 then
              for _ = 1 to per_domain / 100 do
                Obs.Counter2.add c ~hits:50 ~misses:50
              done
            else
              for i = 1 to per_domain do
                if i land 1 = 0 then Obs.Counter2.hit c
                else Obs.Counter2.miss c
              done))
  in
  (* reader: every pair read mid-traffic must be internally consistent
     — components non-negative, sum within bounds and nondecreasing *)
  let reader =
    Domain.spawn (fun () ->
        let prev = ref 0 in
        let ok = ref true in
        while not (Atomic.get stop) do
          let h, m = Obs.Counter2.read c in
          let s = h + m in
          if h < 0 || m < 0 || s < !prev || s > 4 * per_domain then
            ok := false;
          prev := s
        done;
        !ok)
  in
  List.iter Domain.join doms;
  Atomic.set stop true;
  check_bool "mid-traffic reads stayed consistent" true (Domain.join reader);
  let h, m = Obs.Counter2.read c in
  check_int "hits exact at join" (4 * (per_domain / 2)) h;
  check_int "misses exact at join" (4 * (per_domain / 2)) m

(* --- histogram --- *)

let test_histogram_bucket_edges () =
  List.iter
    (fun (ns, bucket) ->
      check_int (Printf.sprintf "bucket_of_ns %d" ns) bucket
        (Obs.Histogram.bucket_of_ns ns))
    [
      (0, 0);
      (999, 0);
      (1_999, 0);
      (2_000, 1);
      (3_999, 1);
      (4_000, 2);
      (7_999, 2);
      (8_000, 3);
      (1_000_000, 9);
      (* 2^15 µs and anything above land in the open-ended last bucket *)
      ((1 lsl 15) * 1000, 15);
      (max_int / 2, 15);
    ]

let test_histogram_observe () =
  let h = Obs.Histogram.make () in
  Obs.Histogram.observe h 1_000;
  Obs.Histogram.observe h 5_000;
  Obs.Histogram.observe h 5_000;
  Obs.Histogram.observe h (-7) (* clock stepped back: clamps to 0 *);
  let s = Obs.Histogram.snapshot h in
  check_int "count" 4 s.Obs.Histogram.count;
  check_int "total_ns" 11_000 s.Obs.Histogram.total_ns;
  check_int "max_ns" 5_000 s.Obs.Histogram.max_ns;
  check_int "bucket 0" 2 s.Obs.Histogram.buckets.(0);
  check_int "bucket 2" 2 s.Obs.Histogram.buckets.(2);
  check_int "bucket sum = count" s.Obs.Histogram.count
    (Array.fold_left ( + ) 0 s.Obs.Histogram.buckets);
  (* mid-rank percentiles answer the covering bucket's upper edge;
     a rank landing on the final observation (q = 1.0 in particular)
     answers the exactly-tracked maximum instead *)
  check_int "p50 = covering bucket edge" 2_000
    (Obs.Histogram.percentile_ns s 0.5);
  check_int "p99 rank = count: exact max" 5_000
    (Obs.Histogram.percentile_ns s 0.99);
  check_int "p100 = max_ns" 5_000 (Obs.Histogram.percentile_ns s 1.0)

(* --- disabled path --- *)

let test_null_sink_allocations () =
  let saved = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) @@ fun () ->
  let iters = 100_000 in
  (* warm-up so the measured loop sees no one-time setup *)
  for _ = 1 to 1_000 do
    Obs.Span.exit (Obs.Span.enter Obs.Span.Verdict)
  done;
  let w0 = Gc.minor_words () in
  for _ = 1 to iters do
    let sp = Obs.Span.enter Obs.Span.Verdict in
    Obs.Metric.charge ~stage:"determinize" ~budgeted:false 1;
    Obs.Span.exit sp;
    (* the fused front-end's span must ride the same free path *)
    Obs.Span.exit (Obs.Span.enter Obs.Span.Front)
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int iters in
  check_bool
    (Printf.sprintf "≈0 minor words per disabled call (got %.4f)" per_call)
    true (per_call < 0.5)

let test_disabled_span_is_none () =
  let saved = Obs.enabled () in
  Obs.set_enabled false;
  Fun.protect ~finally:(fun () -> Obs.set_enabled saved) @@ fun () ->
  check_bool "enter returns the none token when disabled" true
    (Obs.Span.enter Obs.Span.Determinize = Obs.Span.none)

(* --- Lang_cache snapshot invariants under concurrent traffic --- *)

let test_cache_snapshot_under_hammer () =
  Runtime.reset ();
  let per_domain = 4_000 in
  let dfa = Dfa.trivial ~alpha_size:1 true in
  let stages =
    [|
      Lang_cache.Determinize; Lang_cache.Minimize; Lang_cache.Quotient;
      Lang_cache.Determinize;
    |]
  in
  let stop = Atomic.make false in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              (* 64 distinct keys per domain: mostly hits, some misses *)
              let key =
                Lang_cache.K_unop
                  (Printf.sprintf "obs-hammer-%d-%d" d (i land 63), dfa)
              in
              ignore (Lang_cache.cached stages.(d) key (fun () -> dfa))
            done))
  in
  (* Reader discipline: shards first, stages second.  Every lookup
     bumps its stage pair before its shard pair, so a shard event seen
     at T1 has its stage event visible by T2 > T1 — the stage total
     must dominate the shard total, and both pairs stay internally
     consistent (single-load packed reads). *)
  let reader =
    Domain.spawn (fun () ->
        let ok = ref true in
        let prev = ref 0 in
        while not (Atomic.get stop) do
          let shard_sum =
            Array.fold_left
              (fun acc (h, m) ->
                if h < 0 || m < 0 then ok := false;
                acc + h + m)
              0 (Lang_cache.shard_counts ())
          in
          let stage_sum =
            List.fold_left
              (fun acc st ->
                let h, m = Lang_cache.counts st in
                if h < 0 || m < 0 then ok := false;
                acc + h + m)
              0
              [
                Lang_cache.Compile; Lang_cache.Determinize;
                Lang_cache.Minimize; Lang_cache.Quotient;
              ]
          in
          if stage_sum < shard_sum then ok := false;
          if shard_sum < !prev then ok := false;
          if stage_sum > 4 * per_domain then ok := false;
          prev := shard_sum
        done;
        !ok)
  in
  List.iter Domain.join doms;
  Atomic.set stop true;
  check_bool "snapshot invariants held under 4-domain hammer" true
    (Domain.join reader);
  (* quiesced: stage totals, shard totals and traffic agree exactly *)
  let stage_sum =
    List.fold_left
      (fun acc st ->
        let h, m = Lang_cache.counts st in
        acc + h + m)
      0
      [
        Lang_cache.Compile; Lang_cache.Determinize; Lang_cache.Minimize;
        Lang_cache.Quotient;
      ]
  in
  let shard_sum =
    Array.fold_left (fun acc (h, m) -> acc + h + m) 0
      (Lang_cache.shard_counts ())
  in
  check_int "stage totals = lookups at join" (4 * per_domain) stage_sum;
  check_int "shard totals = lookups at join" (4 * per_domain) shard_sum

(* --- metrics snapshot --- *)

let test_metrics_json_schema () =
  with_tracing @@ fun () ->
  Runtime.reset ();
  ignore (Runtime.is_ambiguous (Extraction.parse ab_pq "(q p)* <p> .*"));
  let j = Obs.metrics_json () in
  check_bool "schema pinned" true
    (Obs.Json.member "schema" j = Obs.Json.Str "rexdex-obs/1");
  check_bool "traced flag reflects the switch" true
    (Obs.Json.get_bool (Obs.Json.member "traced" j));
  check_bool "some states were counted" true
    (Obs.Json.get_int
       (Obs.Json.path [ "counters"; "states_built"; "determinize" ] j)
    > 0);
  (* a fresh decision is a miss: the cache provider must agree *)
  check_int "decision miss visible through the provider" 1
    (Obs.Json.get_int (Obs.Json.path [ "cache"; "decision"; "misses" ] j));
  match Obs.Json.member "spans" j with
  | Obs.Json.List rows ->
      check_int "one row per span stage" 9 (List.length rows);
      check_bool "verdict spans were recorded" true
        (List.exists
           (fun r ->
             Obs.Json.member "stage" r = Obs.Json.Str "verdict"
             && Obs.Json.get_int (Obs.Json.member "count" r) > 0)
           rows)
  | _ -> Alcotest.fail "spans is not a list"

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and notes" `Quick test_span_nesting;
          Alcotest.test_case "parenting across domains" `Quick
            test_span_parenting_across_domains;
          Alcotest.test_case "parenting through the pool" `Quick
            test_span_parenting_through_pool;
          Alcotest.test_case "exhaustion closes spans failed" `Quick
            test_exhaustion_closes_spans_failed;
          Alcotest.test_case "injected fault closes spans failed" `Quick
            test_injected_fault_closes_build_span_failed;
        ] );
      ( "counters",
        [
          Alcotest.test_case "packed pairs under 4-domain traffic" `Quick
            test_counter2_concurrent_consistency;
        ] );
      ( "histogram",
        [
          Alcotest.test_case "bucket edges" `Quick test_histogram_bucket_edges;
          Alcotest.test_case "observe/snapshot" `Quick test_histogram_observe;
        ] );
      ( "disabled-path",
        [
          Alcotest.test_case "no allocation per call" `Quick
            test_null_sink_allocations;
          Alcotest.test_case "enter yields none" `Quick
            test_disabled_span_is_none;
        ] );
      ( "cache-snapshot",
        [
          Alcotest.test_case "invariants under 4-domain hammer" `Quick
            test_cache_snapshot_under_hammer;
        ] );
      ( "metrics-json",
        [
          Alcotest.test_case "stable schema" `Quick test_metrics_json_schema;
        ] );
      ("oracle", of_oracle ~count:40 Oracle_obs.tests);
    ]
