(* Unit and property tests for Thc_util: rng, heap, stats, table, codec. *)

let qcheck = QCheck_alcotest.to_alcotest

(* --- rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Thc_util.Rng.create 42L in
  let b = Thc_util.Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64)
      "same seed, same stream" (Thc_util.Rng.next_int64 a)
      (Thc_util.Rng.next_int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Thc_util.Rng.create 1L in
  let b = Thc_util.Rng.create 2L in
  Alcotest.(check bool)
    "different seeds diverge" true
    (Thc_util.Rng.next_int64 a <> Thc_util.Rng.next_int64 b)

let test_rng_split_independent () =
  let parent = Thc_util.Rng.create 7L in
  let child = Thc_util.Rng.split parent in
  let child_head = Thc_util.Rng.next_int64 child in
  (* Re-derive: same split point yields the same child stream. *)
  let parent' = Thc_util.Rng.create 7L in
  let child' = Thc_util.Rng.split parent' in
  Alcotest.(check int64) "split is deterministic" child_head
    (Thc_util.Rng.next_int64 child')

let test_rng_int_bounds () =
  let g = Thc_util.Rng.create 3L in
  for _ = 1 to 1000 do
    let x = Thc_util.Rng.int g 17 in
    if x < 0 || x >= 17 then Alcotest.fail "Rng.int out of bounds"
  done

let test_rng_int_in_bounds () =
  let g = Thc_util.Rng.create 4L in
  for _ = 1 to 1000 do
    let x = Thc_util.Rng.int_in g (-5) 5 in
    if x < -5 || x > 5 then Alcotest.fail "Rng.int_in out of bounds"
  done

let test_rng_int_rejects_bad_bound () =
  let g = Thc_util.Rng.create 5L in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Thc_util.Rng.int g 0))

let test_rng_float_bounds () =
  let g = Thc_util.Rng.create 6L in
  for _ = 1 to 1000 do
    let x = Thc_util.Rng.float g 2.5 in
    if x < 0.0 || x >= 2.5 then Alcotest.fail "Rng.float out of bounds"
  done

let test_rng_exponential_positive () =
  let g = Thc_util.Rng.create 8L in
  for _ = 1 to 1000 do
    if Thc_util.Rng.exponential g ~mean:100.0 < 0.0 then
      Alcotest.fail "negative exponential draw"
  done

let test_rng_exponential_mean () =
  let g = Thc_util.Rng.create 9L in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Thc_util.Rng.exponential g ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  if mean < 45.0 || mean > 55.0 then
    Alcotest.failf "exponential mean off: %.2f" mean

let test_rng_shuffle_permutation () =
  let g = Thc_util.Rng.create 10L in
  let a = Array.init 50 (fun i -> i) in
  Thc_util.Rng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle permutes" (Array.init 50 (fun i -> i)) sorted

let test_rng_pick_member () =
  let g = Thc_util.Rng.create 11L in
  let a = [| "x"; "y"; "z" |] in
  for _ = 1 to 100 do
    let p = Thc_util.Rng.pick g a in
    if not (Array.exists (String.equal p) a) then Alcotest.fail "pick outside"
  done

let test_rng_pick_empty () =
  let g = Thc_util.Rng.create 12L in
  Alcotest.check_raises "empty pick" (Invalid_argument "Rng.pick: empty array")
    (fun () -> ignore (Thc_util.Rng.pick g [||]))

let prop_rng_bool_balanced =
  QCheck.Test.make ~name:"rng bool roughly balanced" ~count:20
    QCheck.(int64)
    (fun seed ->
      let g = Thc_util.Rng.create seed in
      let trues = ref 0 in
      for _ = 1 to 1000 do
        if Thc_util.Rng.bool g then incr trues
      done;
      !trues > 350 && !trues < 650)

(* --- heap ------------------------------------------------------------------ *)

let test_heap_basic () =
  let h = Thc_util.Heap.create ~compare in
  Alcotest.(check bool) "starts empty" true (Thc_util.Heap.is_empty h);
  Thc_util.Heap.push h 3 "c";
  Thc_util.Heap.push h 1 "a";
  Thc_util.Heap.push h 2 "b";
  Alcotest.(check int) "length" 3 (Thc_util.Heap.length h);
  Alcotest.(check (option (pair int string))) "peek" (Some (1, "a"))
    (Thc_util.Heap.peek h);
  Alcotest.(check (option (pair int string))) "pop 1" (Some (1, "a"))
    (Thc_util.Heap.pop h);
  Alcotest.(check (option (pair int string))) "pop 2" (Some (2, "b"))
    (Thc_util.Heap.pop h);
  Alcotest.(check (option (pair int string))) "pop 3" (Some (3, "c"))
    (Thc_util.Heap.pop h);
  Alcotest.(check (option (pair int string))) "pop empty" None
    (Thc_util.Heap.pop h)

let test_heap_duplicate_keys () =
  let h = Thc_util.Heap.create ~compare in
  Thc_util.Heap.push h 1 "first";
  Thc_util.Heap.push h 1 "second";
  Alcotest.(check int) "two entries" 2 (Thc_util.Heap.length h);
  ignore (Thc_util.Heap.pop h);
  ignore (Thc_util.Heap.pop h);
  Alcotest.(check bool) "drained" true (Thc_util.Heap.is_empty h)

let test_heap_clear () =
  let h = Thc_util.Heap.create ~compare in
  for i = 1 to 10 do
    Thc_util.Heap.push h i i
  done;
  Thc_util.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Thc_util.Heap.is_empty h)

let test_heap_to_sorted_list_nondestructive () =
  let h = Thc_util.Heap.create ~compare in
  List.iter (fun k -> Thc_util.Heap.push h k ()) [ 5; 2; 9; 1 ];
  let keys = List.map fst (Thc_util.Heap.to_sorted_list h) in
  Alcotest.(check (list int)) "sorted listing" [ 1; 2; 5; 9 ] keys;
  Alcotest.(check int) "heap untouched" 4 (Thc_util.Heap.length h)

let prop_heap_drains_sorted =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list int)
    (fun keys ->
      let h = Thc_util.Heap.create ~compare in
      List.iter (fun k -> Thc_util.Heap.push h k k) keys;
      let rec drain acc =
        match Thc_util.Heap.pop h with
        | None -> List.rev acc
        | Some (k, _) -> drain (k :: acc)
      in
      drain [] = List.sort compare keys)

(* --- calendar queue --------------------------------------------------------- *)

module Cq = Thc_util.Calendar_queue

let drain_cq q =
  let rec go acc =
    match Cq.pop q with None -> List.rev acc | Some e -> go (e :: acc)
  in
  go []

let test_cq_tie_break () =
  (* Equal virtual times pop in insertion (tie) order, interleaved with
     later times across bucket and overflow boundaries. *)
  let q = Cq.create ~nbuckets:4 ~width:8 ~null:"" () in
  Cq.push q ~time:50 ~tie:1 "a";
  Cq.push q ~time:50 ~tie:2 "b";
  Cq.push q ~time:7 ~tie:3 "c";
  Cq.push q ~time:50 ~tie:4 "d";
  Cq.push q ~time:1_000_000 ~tie:5 "e";
  Alcotest.(check (list string))
    "ascending (time, tie)"
    [ "c"; "a"; "b"; "d"; "e" ]
    (List.map (fun (_, _, v) -> v) (drain_cq q))

let test_cq_past_time_push () =
  (* After the cursor has advanced, an earlier-time push still pops
     before everything later (it lands in the cursor bucket). *)
  let q = Cq.create ~nbuckets:8 ~width:16 ~null:0 () in
  Cq.push q ~time:1000 ~tie:1 1;
  Cq.push q ~time:2000 ~tie:2 2;
  Alcotest.(check (option (triple int int int)))
    "first pop" (Some (1000, 1, 1)) (Cq.pop q);
  Cq.push q ~time:5 ~tie:3 3;
  Alcotest.(check (option (triple int int int)))
    "past-time entry pops next" (Some (5, 3, 3)) (Cq.pop q);
  Alcotest.(check (option (triple int int int)))
    "then the later one" (Some (2000, 2, 2)) (Cq.pop q)

let test_cq_overflow_re_anchor () =
  (* Events far past the year go to the overflow heap; draining the
     calendar re-anchors the year there and keeps global order. *)
  let q = Cq.create ~nbuckets:4 ~width:4 ~null:0 () in
  let year = 4 * 4 in
  Cq.push q ~time:(year * 1000) ~tie:1 1;
  Cq.push q ~time:3 ~tie:2 2;
  Cq.push q ~time:(year * 1000 + 1) ~tie:3 3;
  Cq.push q ~time:((year * 2000) + 5) ~tie:4 4;
  Alcotest.(check (list int))
    "order across re-anchors" [ 2; 1; 3; 4 ]
    (List.map (fun (_, _, v) -> v) (drain_cq q));
  (* Pushes after the re-anchor land relative to the new year. *)
  Cq.push q ~time:((year * 2000) + 6) ~tie:5 5;
  Alcotest.(check (option (triple int int int)))
    "post-re-anchor push" (Some ((year * 2000) + 6, 5, 5)) (Cq.pop q)

let test_cq_cancel () =
  let q = Cq.create ~null:0 () in
  Cq.push q ~time:10 ~tie:1 1;
  Cq.push q ~time:20 ~tie:2 2;
  Cq.push q ~time:1_000_000_000 ~tie:3 3;
  Cq.cancel q ~tie:1;
  Cq.cancel q ~tie:3;
  Alcotest.(check int) "length sees cancellations" 1 (Cq.length q);
  Alcotest.(check (list int))
    "cancelled entries never pop" [ 2 ]
    (List.map (fun (_, _, v) -> v) (drain_cq q));
  Alcotest.(check bool) "empty after drain" true (Cq.is_empty q)

let test_cq_degenerate_geometry () =
  (* nbuckets = 1, width = 1: everything funnels through one slice and
     the overflow heap; ordering must survive. *)
  let q = Cq.create ~nbuckets:1 ~width:1 ~null:0 () in
  List.iteri
    (fun i time -> Cq.push q ~time ~tie:i time)
    [ 9; 2; 2; 77; 0; 1_000_000 ];
  Alcotest.(check (list int))
    "sorted drain" [ 0; 2; 2; 9; 77; 1_000_000 ]
    (List.map (fun (t, _, _) -> t) (drain_cq q))

(* Random push/pop/cancel/peek interleavings, cross-checked against the
   binary heap (plus a cancelled-tie set) as the reference model.  Times
   are drawn from a mixture of same-timestamp, near-future and far-future
   offsets from the last popped time, so bucket rotation, cursor
   clamping and overflow re-anchoring all get exercised.  [q] is an empty
   queue of any geometry. *)
let run_cq_scenario q seed steps =
  let rng = Thc_util.Rng.create seed in
  let model = Thc_util.Heap.create ~compare in
  let model_cancelled = Hashtbl.create 16 in
  let live_ties = ref [] in
  let tie = ref 0 in
  let clock = ref 0 in
  let model_pop () =
    let rec go () =
      match Thc_util.Heap.pop model with
      | None -> None
      | Some ((time, k), v) ->
        if Hashtbl.mem model_cancelled k then begin
          Hashtbl.remove model_cancelled k;
          go ()
        end
        else Some (time, k, v)
    in
    go ()
  in
  for step = 1 to steps do
    match Thc_util.Rng.int rng 10 with
    | 0 | 1 | 2 | 3 ->
      (* push *)
      let offset =
        match Thc_util.Rng.int rng 4 with
        | 0 -> 0 (* same timestamp: tie-break path *)
        | 1 -> Thc_util.Rng.int rng 100 (* same/nearby bucket *)
        | 2 -> Thc_util.Rng.int rng 5_000 (* bucket rotation *)
        | _ -> 1_000_000 + Thc_util.Rng.int rng 1_000_000 (* overflow *)
      in
      incr tie;
      let time = !clock + offset in
      Cq.push q ~time ~tie:!tie !tie;
      Thc_util.Heap.push model (time, !tie) !tie;
      live_ties := !tie :: !live_ties
    | 4 | 5 | 6 | 7 ->
      (* pop, compare against the model *)
      let got = Cq.pop q in
      let expect = model_pop () in
      (match (got, expect) with
      | None, None -> ()
      | Some (t, k, v), Some (t', k', v') when t = t' && k = k' && v = v' ->
        clock := t;
        live_ties := List.filter (fun x -> x <> k) !live_ties
      | _ ->
        QCheck.Test.fail_reportf "step %d: pop mismatch (seed %Ld)" step seed)
    | 8 -> (
      (* cancel a random live entry in both *)
      match !live_ties with
      | [] -> ()
      | ties ->
        let victim = List.nth ties (Thc_util.Rng.int rng (List.length ties)) in
        Cq.cancel q ~tie:victim;
        Hashtbl.replace model_cancelled victim ();
        live_ties := List.filter (fun x -> x <> victim) !live_ties)
    | _ ->
      (* peek agrees with length-preserving model minimum *)
      let len_before = Cq.length q in
      (match (Cq.peek q, model_pop ()) with
      | None, None -> ()
      | Some (t, k, v), Some (t', k', v') when t = t' && k = k' && v = v' ->
        (* put the model entry back; peek must not consume *)
        Thc_util.Heap.push model (t', k') v'
      | _ ->
        QCheck.Test.fail_reportf "step %d: peek mismatch (seed %Ld)" step seed);
      if Cq.length q <> len_before then
        QCheck.Test.fail_reportf "step %d: peek changed length" step
  done;
  (* Drain both to the end: every remaining entry must agree. *)
  let rec drain () =
    match (Cq.pop q, model_pop ()) with
    | None, None -> ()
    | Some (t, k, v), Some (t', k', v') when t = t' && k = k' && v = v' ->
      drain ()
    | _ -> QCheck.Test.fail_reportf "drain mismatch (seed %Ld)" seed
  in
  drain ();
  true

let prop_cq_matches_heap_model =
  QCheck.Test.make ~name:"calendar queue matches heap model" ~count:60
    QCheck.(int64)
    (fun seed ->
      run_cq_scenario (Cq.create ~nbuckets:16 ~width:8 ~null:(-1) ()) seed 800)

(* The same scenario at the default geometry, the one the engine uses. *)
let prop_cq_default_geometry =
  QCheck.Test.make ~name:"default geometry matches model" ~count:60
    QCheck.(int64)
    (fun seed -> run_cq_scenario (Cq.create ~null:(-1) ()) seed 800)

(* --- stats ------------------------------------------------------------------ *)

let test_stats_known () =
  let s = Thc_util.Stats.summarize [ 1.0; 2.0; 3.0; 4.0 ] in
  Alcotest.(check int) "count" 4 s.count;
  Alcotest.(check (float 1e-9)) "mean" 2.5 s.mean;
  Alcotest.(check (float 1e-9)) "min" 1.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 4.0 s.max;
  Alcotest.(check (float 1e-9)) "p50" 2.0 s.p50

let test_stats_empty () =
  let s = Thc_util.Stats.summarize [] in
  Alcotest.(check int) "count" 0 s.count;
  Alcotest.(check (float 1e-9)) "mean" 0.0 s.mean

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "constant sample" 0.0
    (Thc_util.Stats.stddev [ 5.0; 5.0; 5.0 ]);
  Alcotest.(check (float 1e-6)) "known stddev" 2.0
    (Thc_util.Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_stats_percentile_singleton () =
  Alcotest.(check (float 1e-9)) "p99 of singleton" 7.0
    (Thc_util.Stats.percentile [| 7.0 |] 0.99)

let test_stats_percentile_empty () =
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.percentile: empty sample") (fun () ->
      ignore (Thc_util.Stats.percentile [||] 0.5))

let prop_stats_bounds =
  QCheck.Test.make ~name:"percentiles lie within min..max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.0))
    (fun xs ->
      let s = Thc_util.Stats.summarize xs in
      s.p50 >= s.min && s.p50 <= s.max && s.p99 >= s.min && s.p99 <= s.max)

(* --- table ------------------------------------------------------------------ *)

let test_table_render () =
  let t = Thc_util.Table.create [ "a"; "long-header" ] in
  Thc_util.Table.add_row t [ "1"; "2" ];
  Thc_util.Table.add_row t [ "333" ];
  let rendered = Thc_util.Table.render t in
  Alcotest.(check bool) "contains header" true
    (String.length rendered > 0
    && String.index_opt rendered 'l' <> None);
  let lines = String.split_on_char '\n' rendered in
  Alcotest.(check int) "header + rule + 2 rows + trailing" 5 (List.length lines)

let test_table_too_many_cells () =
  let t = Thc_util.Table.create [ "only" ] in
  Alcotest.check_raises "overflow row"
    (Invalid_argument "Table.add_row: too many cells") (fun () ->
      Thc_util.Table.add_row t [ "a"; "b" ])

(* --- codec ------------------------------------------------------------------ *)

let test_codec_roundtrip () =
  let v = (1, "two", [ 3L; 4L ], Some 5.0) in
  Alcotest.(check bool) "roundtrips" true
    (Thc_util.Codec.decode (Thc_util.Codec.encode v) = v)

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec roundtrips arbitrary data" ~count:200
    QCheck.(pair (list (pair int string)) (option string))
    (fun v -> Thc_util.Codec.decode (Thc_util.Codec.encode v) = v)

let test_codec_canonical () =
  (* Equal values encode equally — the property Obs comparisons rely on. *)
  let a = Thc_util.Codec.encode (1, "x") in
  let b = Thc_util.Codec.encode (1, "x") in
  Alcotest.(check string) "canonical encoding" a b

(* --- sexp ----------------------------------------------------------------- *)

let test_sexp_print_parse () =
  let s =
    Thc_util.Sexp.(
      list
        [
          atom "repro"; list [ atom "seed"; int64_atom 42L ];
          list [ atom "events"; list [ int_atom 3; atom "heal" ] ];
        ])
  in
  let text = Thc_util.Sexp.to_string s in
  Alcotest.(check string)
    "canonical rendering" "(repro (seed 42) (events (3 heal)))" text;
  Alcotest.(check bool)
    "parses back" true
    (Thc_util.Sexp.of_string_exn text = s)

let test_sexp_quoting () =
  let s = Thc_util.Sexp.atom "has space (and parens) \"quote\"" in
  let text = Thc_util.Sexp.to_string s in
  Alcotest.(check bool) "round-trips" true (Thc_util.Sexp.of_string_exn text = s)

let test_sexp_comments_and_whitespace () =
  let text = "; a comment\n (a ; inline\n  b)\n" in
  Alcotest.(check bool)
    "comments ignored" true
    (Thc_util.Sexp.of_string_exn text
    = Thc_util.Sexp.(list [ atom "a"; atom "b" ]))

let test_sexp_rejects_trailing () =
  match Thc_util.Sexp.of_string "(a) (b)" with
  | Ok _ -> Alcotest.fail "accepted two top-level sexps"
  | Error _ -> ()

let test_sexp_hum_parses_back () =
  let s =
    Thc_util.Sexp.(
      list
        [
          atom "adversary";
          list [ atom "horizon"; int64_atom 100_000L ];
          list
            (atom "events"
            :: List.init 8 (fun i ->
                   list [ int_atom (i * 1000); list [ atom "crash"; int_atom i ] ]));
        ])
  in
  Alcotest.(check bool)
    "human rendering parses to same value" true
    (Thc_util.Sexp.of_string_exn (Thc_util.Sexp.to_string_hum s) = s)

let sexp_gen =
  let open QCheck.Gen in
  let atom_gen =
    oneof
      [
        map Thc_util.Sexp.atom (string_size ~gen:printable (int_range 0 12));
        map Thc_util.Sexp.int_atom int;
      ]
  in
  sized
  @@ fix (fun self size ->
         if size <= 0 then atom_gen
         else
           frequency
             [
               (1, atom_gen);
               ( 2,
                 map Thc_util.Sexp.list
                   (list_size (int_range 0 4) (self (size / 2))) );
             ])

let prop_sexp_roundtrip =
  QCheck.Test.make ~name:"sexp print/parse round-trips" ~count:200
    (QCheck.make sexp_gen)
    (fun s ->
      Thc_util.Sexp.of_string_exn (Thc_util.Sexp.to_string s) = s
      && Thc_util.Sexp.of_string_exn (Thc_util.Sexp.to_string_hum s) = s)

let () =
  Alcotest.run "thc_util"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split deterministic" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int_in bounds" `Quick test_rng_int_in_bounds;
          Alcotest.test_case "int bad bound" `Quick test_rng_int_rejects_bad_bound;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "exponential positive" `Quick test_rng_exponential_positive;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "shuffle permutes" `Quick test_rng_shuffle_permutation;
          Alcotest.test_case "pick member" `Quick test_rng_pick_member;
          Alcotest.test_case "pick empty" `Quick test_rng_pick_empty;
          qcheck prop_rng_bool_balanced;
        ] );
      ( "heap",
        [
          Alcotest.test_case "basic order" `Quick test_heap_basic;
          Alcotest.test_case "duplicate keys" `Quick test_heap_duplicate_keys;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "sorted listing" `Quick test_heap_to_sorted_list_nondestructive;
          qcheck prop_heap_drains_sorted;
        ] );
      ( "calendar-queue",
        [
          Alcotest.test_case "tie-break at equal times" `Quick test_cq_tie_break;
          Alcotest.test_case "past-time push" `Quick test_cq_past_time_push;
          Alcotest.test_case "overflow re-anchor" `Quick
            test_cq_overflow_re_anchor;
          Alcotest.test_case "cancel" `Quick test_cq_cancel;
          Alcotest.test_case "degenerate geometry" `Quick
            test_cq_degenerate_geometry;
          qcheck prop_cq_matches_heap_model;
          qcheck prop_cq_default_geometry;
        ] );
      ( "stats",
        [
          Alcotest.test_case "known values" `Quick test_stats_known;
          Alcotest.test_case "empty" `Quick test_stats_empty;
          Alcotest.test_case "stddev" `Quick test_stats_stddev;
          Alcotest.test_case "percentile singleton" `Quick test_stats_percentile_singleton;
          Alcotest.test_case "percentile empty" `Quick test_stats_percentile_empty;
          qcheck prop_stats_bounds;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "overflow" `Quick test_table_too_many_cells;
        ] );
      ( "codec",
        [
          Alcotest.test_case "roundtrip" `Quick test_codec_roundtrip;
          Alcotest.test_case "canonical" `Quick test_codec_canonical;
          qcheck prop_codec_roundtrip;
        ] );
      ( "sexp",
        [
          Alcotest.test_case "print/parse" `Quick test_sexp_print_parse;
          Alcotest.test_case "quoting" `Quick test_sexp_quoting;
          Alcotest.test_case "comments" `Quick test_sexp_comments_and_whitespace;
          Alcotest.test_case "rejects trailing" `Quick test_sexp_rejects_trailing;
          Alcotest.test_case "hum parses back" `Quick test_sexp_hum_parses_back;
          qcheck prop_sexp_roundtrip;
        ] );
    ]
