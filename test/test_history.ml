open Tm_safety
open Helpers
open Event

let ill_formed name events =
  test name (fun () ->
      match History.of_events events with
      | Ok _ -> Alcotest.failf "%s: expected ill-formed" name
      | Error _ -> ())

let well_formed name events =
  test name (fun () ->
      match History.of_events events with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %a" name History.pp_error e)

let formation_tests =
  [
    well_formed "empty" [];
    well_formed "lone invocation" [ Inv (1, Read 0) ];
    well_formed "complete read" [ Inv (1, Read 0); Res (1, Read_ok 0) ];
    well_formed "interleaved transactions"
      [
        Inv (1, Read 0);
        Inv (2, Write (0, 1));
        Res (2, Write_ok);
        Res (1, Read_ok 0);
      ];
    ill_formed "transaction id 0 is reserved" [ Inv (0, Read 0) ];
    ill_formed "negative transaction id" [ Inv (-1, Read 0) ];
    ill_formed "response without invocation" [ Res (1, Read_ok 0) ];
    ill_formed "response for unknown transaction"
      [ Inv (1, Read 0); Res (2, Read_ok 0) ];
    ill_formed "double invocation while pending"
      [ Inv (1, Read 0); Inv (1, Read 1) ];
    ill_formed "mismatched response kind"
      [ Inv (1, Read 0); Res (1, Write_ok) ];
    ill_formed "committed response to a read"
      [ Inv (1, Read 0); Res (1, Committed) ];
    ill_formed "event after commit"
      [ Inv (1, Try_commit); Res (1, Committed); Inv (1, Read 0) ];
    ill_formed "event after abort"
      [ Inv (1, Try_abort); Res (1, Aborted); Inv (1, Read 0) ];
    ill_formed "double response"
      [ Inv (1, Read 0); Res (1, Read_ok 0); Res (1, Read_ok 0) ];
    well_formed "abort response to anything"
      [ Inv (1, Write (0, 3)); Res (1, Aborted) ];
  ]

(* A reference history used by most accessor tests:
   T1: R(X)->0 W(Y,1)->ok tryC->C       (committed)
   T2:      R(Y)->0 ................    (live, complete)
   T3:                      R(X) ...    (live, pending read)
   T4 after T1:  W(X,7)->ok tryC        (commit-pending)  *)
let h =
  History.of_events_exn
    [
      Inv (1, Read 0);
      Res (1, Read_ok 0);
      Inv (2, Read 1);
      Res (2, Read_ok 0);
      Inv (1, Write (1, 1));
      Res (1, Write_ok);
      Inv (1, Try_commit);
      Res (1, Committed);
      Inv (3, Read 0);
      Inv (4, Write (0, 7));
      Res (4, Write_ok);
      Inv (4, Try_commit);
    ]

let test_accessors () =
  Alcotest.(check int) "length" 12 (History.length h);
  Alcotest.(check (list int)) "txns" [ 1; 2; 3; 4 ] (History.txns h);
  Alcotest.(check (list int)) "committed" [ 1 ] (History.committed h);
  Alcotest.(check (list int)) "aborted" [] (History.aborted h);
  Alcotest.(check (list int)) "commit-pending" [ 4 ] (History.commit_pending h);
  Alcotest.(check bool) "not complete" false (History.is_complete h);
  Alcotest.(check bool) "not t-complete" false (History.is_t_complete h);
  Alcotest.(check event) "get" (Inv (3, Read 0)) (History.get h 8)

let test_txn_info () =
  let t1 = History.info h 1 in
  Alcotest.(check bool) "t1 t-complete" true (Txn.is_t_complete t1);
  Alcotest.(check int) "t1 first" 0 t1.Txn.first_index;
  Alcotest.(check int) "t1 last" 7 t1.Txn.last_index;
  Alcotest.(check (list int)) "t1 rset" [ 0 ] (Txn.read_set t1);
  Alcotest.(check (list int)) "t1 wset" [ 1 ] (Txn.write_set t1);
  let t2 = History.info h 2 in
  Alcotest.(check bool) "t2 complete" true (Txn.is_complete t2);
  Alcotest.(check bool) "t2 not t-complete" false (Txn.is_t_complete t2);
  let t3 = History.info h 3 in
  Alcotest.(check bool) "t3 not complete" false (Txn.is_complete t3);
  let t4 = History.info h 4 in
  Alcotest.(check bool) "t4 commit-pending" true
    (t4.Txn.status = Txn.Commit_pending);
  Alcotest.(check (option int)) "t4 tryC inv" (Some 11) (Txn.tryc_inv_index t4);
  Alcotest.(check (list bool)) "t4 choices" [ true; false ]
    (Txn.commit_choices t4);
  Alcotest.(check bool) "unknown txn" true
    (match History.info h 9 with
    | exception Not_found -> true
    | _ -> false)

let test_reads_classification () =
  let reads = Txn.reads (History.info h 1) in
  Alcotest.(check int) "t1 one read" 1 (List.length reads);
  let r = List.hd reads in
  Alcotest.(check bool) "external" true (r.Txn.kind = `External);
  Alcotest.(check int) "value" 0 r.Txn.value;
  Alcotest.(check int) "res index" 1 r.Txn.res_index;
  (* internal read *)
  let h' =
    History.of_events_exn
      [
        Inv (1, Write (0, 5));
        Res (1, Write_ok);
        Inv (1, Read 0);
        Res (1, Read_ok 5);
      ]
  in
  match Txn.reads (History.info h' 1) with
  | [ r ] -> Alcotest.(check bool) "internal of 5" true (r.Txn.kind = `Internal 5)
  | _ -> Alcotest.fail "expected one read"

let test_final_writes () =
  let h' =
    History.of_events_exn
      [
        Inv (1, Write (0, 1));
        Res (1, Write_ok);
        Inv (1, Write (0, 2));
        Res (1, Write_ok);
        Inv (1, Write (1, 9));
        Res (1, Write_ok);
        Inv (1, Write (2, 3));
        Res (1, Aborted);
      ]
  in
  let t = History.info h' 1 in
  Alcotest.(check (list (pair int int))) "final writes (aborted write ignored)"
    [ (0, 2); (1, 9) ]
    (Txn.final_writes t);
  Alcotest.(check (list (pair int int))) "all writes"
    [ (0, 1); (0, 2); (1, 9) ]
    (Txn.writes t)

let test_real_time () =
  Alcotest.(check bool) "T1 < T4" true (History.rt_precedes h 1 4);
  Alcotest.(check bool) "not T4 < T1" false (History.rt_precedes h 4 1);
  Alcotest.(check bool) "T1 / T2 overlap" true (History.overlap h 1 2);
  (* T2 is not t-complete, so it precedes nothing even though its last event
     is early. *)
  Alcotest.(check bool) "live precedes nothing" false (History.rt_precedes h 2 4);
  Alcotest.(check bool) "overlap t2 t4" true (History.overlap h 2 4)

let test_live_sets () =
  Alcotest.(check (list int)) "Lset(T1)" [ 1; 2 ] (History.live_set h 1);
  (* T3's only event (index 8) precedes T4's first (index 9): disjoint. *)
  Alcotest.(check (list int)) "Lset(T3)" [ 3 ] (History.live_set h 3);
  (* T2's span is events 2..3, inside T1's span. *)
  Alcotest.(check (list int)) "Lset(T2)" [ 1; 2 ] (History.live_set h 2);
  Alcotest.(check bool) "T2 ≺LS T3" true (History.ls_precedes h 2 3);
  Alcotest.(check bool) "not T1 ≺LS T2" false (History.ls_precedes h 1 2)

let test_prefix () =
  let p = History.prefix h 8 in
  Alcotest.(check int) "length" 8 (History.length p);
  Alcotest.(check (list int)) "txns" [ 1; 2 ] (History.txns p);
  Alcotest.(check bool) "T1 committed in prefix" true
    (List.mem 1 (History.committed p));
  let p0 = History.prefix h 0 in
  Alcotest.(check int) "empty prefix" 0 (History.length p0);
  Alcotest.(check bool) "full prefix is same" true
    (History.equivalent h (History.prefix h (History.length h)))

let test_extend () =
  let h0 = History.empty in
  let h1 =
    match History.extend h0 (Inv (1, Read 0)) with
    | Ok h -> h
    | Error e -> Alcotest.failf "extend: %a" History.pp_error e
  in
  let h2 =
    match History.extend h1 (Res (1, Read_ok 0)) with
    | Ok h -> h
    | Error e -> Alcotest.failf "extend: %a" History.pp_error e
  in
  Alcotest.(check int) "length" 2 (History.length h2);
  (* Extending the same snapshot twice must not corrupt the first result. *)
  let h2' =
    match History.extend h1 (Res (1, Read_ok 42)) with
    | Ok h -> h
    | Error e -> Alcotest.failf "extend: %a" History.pp_error e
  in
  Alcotest.(check event) "first branch intact" (Res (1, Read_ok 0))
    (History.get h2 1);
  Alcotest.(check event) "second branch intact" (Res (1, Read_ok 42))
    (History.get h2' 1);
  match History.extend h2 (Inv (1, Read 0)) with
  | Ok h3 -> Alcotest.(check int) "extended again" 3 (History.length h3)
  | Error e -> Alcotest.failf "extend: %a" History.pp_error e

let test_extend_rejects () =
  match History.extend History.empty (Res (1, Read_ok 0)) with
  | Ok _ -> Alcotest.fail "expected rejection"
  | Error _ -> ()

let test_project () =
  let p = History.project h ~keep:(fun k -> k = 1) in
  Alcotest.(check (list int)) "txns" [ 1 ] (History.txns p);
  Alcotest.(check int) "length" 6 (History.length p)

let test_equivalent () =
  (* Same per-transaction sequences, different interleaving. *)
  let a =
    History.of_events_exn
      [ Inv (1, Read 0); Inv (2, Read 1); Res (1, Read_ok 0); Res (2, Read_ok 0) ]
  in
  let b =
    History.of_events_exn
      [ Inv (1, Read 0); Res (1, Read_ok 0); Inv (2, Read 1); Res (2, Read_ok 0) ]
  in
  Alcotest.(check bool) "equivalent" true (History.equivalent a b);
  let c =
    History.of_events_exn
      [ Inv (1, Read 0); Res (1, Read_ok 1); Inv (2, Read 1); Res (2, Read_ok 0) ]
  in
  Alcotest.(check bool) "different value" false (History.equivalent a c);
  let d = History.of_events_exn [ Inv (1, Read 0); Res (1, Read_ok 0) ] in
  Alcotest.(check bool) "different txns" false (History.equivalent a d)

let test_sequential_predicates () =
  let seq = Dsl.(seq [ (fun k -> [ r k x 0; c k ]); (fun k -> [ r k x 0; c k ]) ]) in
  Alcotest.(check bool) "t-sequential" true (History.is_t_sequential seq);
  Alcotest.(check bool) "sequential" true (History.is_sequential seq);
  Alcotest.(check bool) "h not t-sequential" false (History.is_t_sequential h);
  (* fig5 is sequential (invocations immediately answered) but transactions
     overlap, so it is not t-sequential. *)
  Alcotest.(check bool) "fig5 sequential" true (History.is_sequential Figures.fig5);
  Alcotest.(check bool) "fig5 not t-sequential" false
    (History.is_t_sequential Figures.fig5)

let test_response_indices () =
  let idx = History.response_indices h in
  Alcotest.(check (list int)) "indices" [ 2; 4; 6; 8; 11 ] idx

(* of_events_prefix: the longest well-formed prefix plus the torn tail —
   what Parallel.run uses to salvage a log cut mid-operation. *)
let test_of_events_prefix () =
  let events =
    History.to_list (Parse.of_string_exn "W1(X,1)->ok C1->C R2(X)->1 C2->C")
  in
  let full, tail = History.of_events_prefix events in
  Alcotest.(check (list event)) "full prefix" events (History.to_list full);
  Alcotest.(check (list event)) "empty tail" [] tail;
  (* a response with no pending invocation tears the log *)
  let orphan = Res (9, Committed) in
  let cut, tail = History.of_events_prefix (events @ [ orphan ]) in
  Alcotest.(check (list event)) "longest prefix" events (History.to_list cut);
  Alcotest.(check (list event)) "torn tail" [ orphan ] tail;
  (* everything from the first offence on is dropped, even events that
     would be well-formed on their own *)
  let suffix = [ orphan; Inv (3, Read 0); Res (3, Read_ok 1) ] in
  let cut, tail = History.of_events_prefix (events @ suffix) in
  Alcotest.(check (list event)) "prefix stops at offence" events
    (History.to_list cut);
  Alcotest.(check (list event)) "whole torn suffix" suffix tail;
  let empty, tail = History.of_events_prefix [ orphan ] in
  Alcotest.(check int) "empty prefix" 0 (History.length empty);
  Alcotest.(check (list event)) "all torn" [ orphan ] tail

let test_unique_writes () =
  Alcotest.(check bool) "distinct values" true
    (History.unique_writes
       Dsl.(history [ w 1 x 1; c 1; r 2 x 1; w 3 x 2; c 3; r 2 y 0 ]));
  Alcotest.(check bool) "fig1 duplicates" false
    (History.unique_writes Figures.fig1);
  Alcotest.(check bool) "fig4 duplicates" false
    (History.unique_writes Figures.fig4)

let suite =
  [
    ("history: well-formedness", formation_tests);
    ( "history: accessors",
      [
        test "basic accessors" test_accessors;
        test "transaction summaries" test_txn_info;
        test "read classification" test_reads_classification;
        test "final writes" test_final_writes;
        test "real-time order" test_real_time;
        test "live sets" test_live_sets;
        test "prefix" test_prefix;
        test "extend" test_extend;
        test "extend rejects ill-formed" test_extend_rejects;
        test "project" test_project;
        test "equivalence" test_equivalent;
        test "sequential predicates" test_sequential_predicates;
        test "response indices" test_response_indices;
        test "unique_writes predicate" test_unique_writes;
        test "of_events_prefix salvages torn logs" test_of_events_prefix;
      ] );
  ]
