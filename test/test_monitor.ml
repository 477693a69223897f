open Tm_safety
open Helpers

let outcome =
  Alcotest.of_pp (fun ppf (o : Monitor.outcome) ->
      match o with
      | `Ok -> Fmt.string ppf "ok"
      | `Violation w -> Fmt.pf ppf "violation(%s)" w
      | `Budget w -> Fmt.pf ppf "budget(%s)" w)

let feed events =
  let m = Monitor.create () in
  let outcome = Monitor.push_all m events in
  (m, outcome)

let test_ok_stream () =
  let m, outcome = feed (History.to_list Figures.fig1) in
  (match outcome with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "unexpected violation: %s" why
  | `Budget why -> Alcotest.failf "unexpected budget: %s" why);
  Alcotest.(check int) "events seen" (History.length Figures.fig1)
    (Monitor.events_seen m);
  Alcotest.(check bool) "has certificate" true
    (Monitor.certificate m <> None);
  Alcotest.(check (option int)) "no violation" None (Monitor.violation_index m)

let test_violation_detected_at_first_bad_prefix () =
  (* fig3: the prefix of length 4 (read_2(X) -> 1 from the non-committing
     T1) is the first non-du-opaque prefix. *)
  let events = History.to_list Figures.fig3 in
  let m = Monitor.create () in
  let outcomes = List.map (Monitor.push m) events in
  let first_violation =
    List.mapi (fun i o -> (i, o)) outcomes
    |> List.find_map (fun (i, o) ->
           match o with `Violation _ -> Some i | `Ok | `Budget _ -> None)
  in
  Alcotest.(check (option int)) "violation at event index 3 (prefix 4)"
    (Some 3) first_violation;
  Alcotest.(check (option int)) "violation index" (Some 4)
    (Monitor.violation_index m)

let test_sticky () =
  let events = History.to_list Figures.fig3 in
  let m = Monitor.create () in
  let _ = Monitor.push_all m events in
  (* Still violated, and pushing more keeps reporting it. *)
  (match Monitor.push m (Event.Inv (9, Event.Read 0)) with
  | `Violation _ -> ()
  | `Ok | `Budget _ -> Alcotest.fail "violation must be sticky");
  Alcotest.(check (option int)) "index unchanged" (Some 4)
    (Monitor.violation_index m)

let test_ill_formed_stream () =
  let m = Monitor.create () in
  match Monitor.push m (Event.Res (1, Event.Read_ok 0)) with
  | `Violation _ -> ()
  | `Ok | `Budget _ -> Alcotest.fail "ill-formed event must be a violation"

let test_matches_offline () =
  (* The monitor's final verdict must agree with the offline checker on
     every prefix family we care about. *)
  let agree name h =
    let _, outcome = feed (History.to_list h) in
    let offline = Verdict.is_sat (Du_opacity.check h) in
    match outcome, offline with
    | `Ok, true -> ()
    | `Violation _, false -> ()
    | `Ok, false -> Alcotest.failf "%s: monitor Ok, offline Unsat" name
    | `Violation why, true ->
        Alcotest.failf "%s: monitor violation (%s), offline Sat" name why
    | `Budget why, _ -> Alcotest.failf "%s: budget: %s" name why
  in
  List.iter
    (fun (e : Figures.expectation) -> agree e.Figures.name e.Figures.history)
    Figures.catalog

let test_budget () =
  (* The revalidation fast path absorbs everything it can and the graph
     backend decides anything with forced edges only, so the budget needs
     a response that reaches the backtracking search: a duplicate written
     value (two live writers of [X=1]) makes the graph decline as
     Ambiguous, and the read from a commit-pending writer defeats
     revalidation — the 1-node search budget then trips. *)
  let h = Dsl.(history [ w 1 x 1; c_inv 1; w 2 x 1; r 3 x 1 ]) in
  let m = Monitor.create ~max_nodes:1 () in
  match Monitor.push_all m (History.to_list h) with
  | `Budget _ -> ()
  | `Ok -> Alcotest.fail "expected budget exhaustion"
  | `Violation why -> Alcotest.failf "budget must not report violation: %s" why

let test_commit_pending_stream () =
  (* A stream that ends with a permanently pending tryC — a stalled commit
     or crashed thread — must be accepted as-is: Ok verdict, certificate
     intact, and the pending transaction tracked without corrupting state. *)
  let events = History.to_list Dsl.(history [ w 1 x 1; c_inv 1 ]) in
  let m, outcome = feed events in
  (match outcome with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "unexpected violation: %s" why
  | `Budget why -> Alcotest.failf "unexpected budget: %s" why);
  Alcotest.(check bool) "certificate survives" true
    (Monitor.certificate m <> None);
  Alcotest.(check int) "one transaction pending" 1 (Monitor.pending_txns m);
  (* The stream lives on: later transactions push fine around the zombie. *)
  (match
     Monitor.push_all m
       (History.to_list Dsl.(history [ r 2 y 0; c 2 ]) )
   with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "push after zombie: %s" why
  | `Budget why -> Alcotest.failf "budget after zombie: %s" why);
  Alcotest.(check int) "zombie still pending" 1 (Monitor.pending_txns m)

let test_incremental_efficiency () =
  (* With certificate reuse, a long du-opaque stream should cost roughly a
     constant number of nodes per response: each search succeeds straight
     down the hinted order.  Generous bound to stay robust. *)
  let h = Figures.fig2 ~readers:12 in
  let m = Monitor.create () in
  (match Monitor.push_all m (History.to_list h) with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "violation: %s" why
  | `Budget why -> Alcotest.failf "budget: %s" why);
  let searches = Monitor.searches_run m in
  let nodes = Monitor.nodes_total m in
  let txns = List.length (History.txns h) in
  Alcotest.(check bool)
    (Fmt.str "nodes per search bounded (%d nodes / %d searches, %d txns)"
       nodes searches txns)
    true
    (nodes <= searches * (txns + 2))

let test_long_stream_fastpath () =
  (* On a recorded TL2 stream of >= 2000 events the certificate-revalidation
     fast path must absorb at least 90% of response events, keeping total
     search work and wall time bounded (the pre-fast-path monitor ran one
     full search per response — Θ(events) searches, unbounded here). *)
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 90;
      ops_per_txn = 3;
      n_vars = 6;
    }
  in
  let h = (Sim.Runner.run ~stm:"tl2" ~params ~seed:42 ()).Sim.Runner.history in
  let events = History.to_list h in
  let n = List.length events in
  Alcotest.(check bool)
    (Fmt.str "stream long enough (%d events)" n)
    true (n >= 2000);
  let t0 = Stm.Clock.now () in
  let m = Monitor.create () in
  (match Monitor.push_all m events with
  | `Ok -> ()
  | `Violation why -> Alcotest.failf "violation: %s" why
  | `Budget why -> Alcotest.failf "budget: %s" why);
  let elapsed = Stm.Clock.now () -. t0 in
  let responses = Monitor.responses_seen m in
  let hits = Monitor.fastpath_hits m in
  let rate = float_of_int hits /. float_of_int (max 1 responses) in
  Alcotest.(check bool)
    (Fmt.str "fast-path hit rate >= 0.9 (%d/%d = %.3f)" hits responses rate)
    true (rate >= 0.9);
  Alcotest.(check bool)
    (Fmt.str "nodes bounded (%d nodes over %d events)" (Monitor.nodes_total m)
       n)
    true
    (Monitor.nodes_total m <= 50 * n);
  Alcotest.(check bool)
    (Fmt.str "wall time bounded (%.3fs)" elapsed)
    true (elapsed < 10.)

(* --- serializable checkpoints (persist / of_persisted) ------------------- *)

(* The durable-session contract: persisting a monitor mid-stream and
   resuming from the capsule is invisible — the resumed monitor reaches
   the same verdict, at the same index, with the same counters (so even
   fast-path hit rates are checkpoint-transparent), on every stream
   source we have, fault-injected STM recordings included. *)
let test_persist_roundtrip () =
  let sources =
    [ `Gen; `Stm "tl2"; `Stm "norec"; `Faults "tl2"; `Faults "mvcc" ]
  in
  List.iter
    (fun source ->
      List.iter
        (fun seed ->
          let name =
            Fmt.str "%s seed %d" (Oracle.source_tag source) seed
          in
          let events = History.to_list (Oracle.produce source ~seed) in
          let n = List.length events in
          let cut = n / 2 in
          let prefix = List.filteri (fun i _ -> i < cut) events in
          let rest = List.filteri (fun i _ -> i >= cut) events in
          let straight = Monitor.create () in
          let resumed =
            let m = Monitor.create () in
            ignore (Monitor.push_all m prefix);
            match Monitor.of_persisted (Monitor.persist m) with
            | Ok m' -> m'
            | Error why -> Alcotest.failf "%s: of_persisted: %s" name why
          in
          ignore (Monitor.push_all straight events);
          ignore (Monitor.push_all resumed rest);
          Alcotest.check outcome (name ^ ": verdict") (Monitor.status straight)
            (Monitor.status resumed);
          Alcotest.(check (option int))
            (name ^ ": violation index")
            (Monitor.violation_index straight)
            (Monitor.violation_index resumed);
          let s1 = Monitor.snapshot straight
          and s2 = Monitor.snapshot resumed in
          Alcotest.(check int) (name ^ ": events") s1.Monitor.events
            s2.Monitor.events;
          Alcotest.(check int) (name ^ ": responses") s1.Monitor.responses
            s2.Monitor.responses;
          Alcotest.(check int)
            (name ^ ": fast-path hits (hit rate identical)")
            s1.Monitor.fastpath_hits s2.Monitor.fastpath_hits;
          Alcotest.(check int) (name ^ ": searches") s1.Monitor.searches
            s2.Monitor.searches)
        [ 1; 2; 3 ])
    sources

let test_persist_rejects_corrupt () =
  (* A capsule claiming `Ok over a violating history must be refused. *)
  let m = Monitor.create () in
  ignore (Monitor.push_all m (History.to_list Figures.fig1));
  let p = Monitor.persist m in
  let bad =
    { p with Monitor.p_events = History.to_list Figures.fig3 }
  in
  match Monitor.of_persisted bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupt capsule (ok-over-violation) accepted"

(* A duplicate-value TL2 recording (916 events) on which the conflict graph
   is poisoned for good and the monitor runs two searches: the stream a
   sharded session escalates with.  Resuming from a capsule taken at any
   cut must be invisible, response by response. *)
let test_persist_roundtrip_dup () =
  let events = History.to_list (dup_history ~stm:"tl2" ~txns:90 1) in
  let straight = Monitor.create () in
  let outcomes = List.map (Monitor.push straight) events in
  Alcotest.(check bool) "the stream searches" true
    (Monitor.searches_run straight > 0);
  List.iter
    (fun cut ->
      let name = Fmt.str "cut %d" cut in
      let m = Monitor.create () in
      List.iteri (fun i ev -> if i < cut then ignore (Monitor.push m ev)) events;
      let resumed =
        match Monitor.of_persisted (Monitor.persist m) with
        | Ok m' -> m'
        | Error why -> Alcotest.failf "%s: of_persisted: %s" name why
      in
      List.iteri
        (fun i ev ->
          if i >= cut then
            Alcotest.check outcome
              (Fmt.str "%s: outcome after event %d" name i)
              (List.nth outcomes i) (Monitor.push resumed ev))
        events;
      Alcotest.(check (option int))
        (name ^ ": violation index")
        (Monitor.violation_index straight)
        (Monitor.violation_index resumed);
      Alcotest.(check bool)
        (name ^ ": counters")
        true
        (Monitor.snapshot straight = Monitor.snapshot resumed);
      Alcotest.(check (option string))
        (name ^ ": certificate")
        (Option.map (Fmt.str "%a" Serialization.pp)
           (Monitor.certificate straight))
        (Option.map (Fmt.str "%a" Serialization.pp)
           (Monitor.certificate resumed));
      Alcotest.(check (list event))
        (name ^ ": history")
        (History.to_list (Monitor.history straight))
        (History.to_list (Monitor.history resumed)))
    [ 1; List.length events / 3; List.length events / 2 ]

(* Two monitors started at once on two domains both extend [History.empty]
   first.  Each must end with exactly the verdict and the history of a
   sequential run: a zero-length history never lends its storage, so the
   first extensions cannot write into one shared array.  (The first-claim
   race itself cannot be replayed here — the test binary has extended
   [History.empty] long before — so this guards the outcome, not the
   interleaving.) *)
let test_two_domains_from_empty () =
  let streams =
    [|
      History.to_list (dup_history ~stm:"tl2" ~txns:60 4);
      History.to_list (dup_history ~stm:"norec" ~txns:60 5);
    |]
  in
  let run events =
    let m = Monitor.create () in
    let o = Monitor.push_all m events in
    (o, Monitor.violation_index m, History.to_list (Monitor.history m))
  in
  let sequential = Array.map run streams in
  let ready = Atomic.make 0 in
  let parallel =
    Array.map
      (fun events ->
        Domain.spawn (fun () ->
            Atomic.incr ready;
            while Atomic.get ready < Array.length streams do
              Domain.cpu_relax ()
            done;
            run events))
      streams
    |> Array.map Domain.join
  in
  Array.iteri
    (fun i (o, vi, evs) ->
      let o', vi', evs' = parallel.(i) in
      Alcotest.check outcome (Fmt.str "stream %d: verdict" i) o o';
      Alcotest.(check (option int))
        (Fmt.str "stream %d: violation index" i)
        vi vi';
      Alcotest.(check (list event)) (Fmt.str "stream %d: history" i) evs evs')
    sequential

(* [Conflict_graph.Inc.ambiguous_forever] is what lets the monitor stop
   feeding its graph: once true it must stay true, and every later
   verdict must be Ambiguous — checked after every event, with a verdict
   asked after every event too (a verdict can itself poison the state). *)
let prop_ambiguous_forever =
  let stream =
    QCheck2.Gen.frequency
      [
        (4, arb_dup_history ~txns:24);
        ( 1,
          arb_history
            ~params:
              {
                Gen.default with
                n_txns = 6;
                n_threads = 3;
                max_ops = 3;
                mode = `Random_values;
                value_range = 2;
              }
            () );
      ]
  in
  qtest ~count:300 "graph: ambiguous_forever is sticky and final" stream
    (fun h ->
      let g = Conflict_graph.Inc.create () in
      let was = ref false in
      List.for_all
        (fun ev ->
          Conflict_graph.Inc.push g ev;
          let before = Conflict_graph.Inc.ambiguous_forever g in
          let verdict_ok =
            match Conflict_graph.Inc.verdict g with
            | Conflict_graph.Ambiguous _ -> true
            | Conflict_graph.Sat _ | Conflict_graph.Unsat _ -> not before
          in
          let after = Conflict_graph.Inc.ambiguous_forever g in
          let sticky = (not !was || before) && ((not before) || after) in
          was := after;
          verdict_ok && sticky)
        (History.to_list h))

let test_ambiguous_forever_fires () =
  (* Two writers of X=1: reads-from is undetermined, so the graph is
     poisoned at the second write and never decides again. *)
  let events =
    History.to_list Dsl.(history [ w 1 x 1; c_inv 1; w 2 x 1; r 3 x 1 ])
  in
  let g = Conflict_graph.Inc.create () in
  let flags =
    List.map
      (fun ev ->
        Conflict_graph.Inc.push g ev;
        Conflict_graph.Inc.ambiguous_forever g)
      events
  in
  Alcotest.(check bool) "false before the duplicate" false (List.hd flags);
  Alcotest.(check bool) "true at the end" true (List.hd (List.rev flags))

let suite =
  [
    ( "monitor",
      [
        test "accepts a du-opaque stream" test_ok_stream;
        test "detects first bad prefix" test_violation_detected_at_first_bad_prefix;
        test "violations are sticky" test_sticky;
        test "rejects ill-formed events" test_ill_formed_stream;
        test "agrees with offline checker" test_matches_offline;
        test "budget surfaces as Budget" test_budget;
        test "accepts a permanently commit-pending stream"
          test_commit_pending_stream;
        test "incremental efficiency" test_incremental_efficiency;
        test "long TL2 stream rides the fast path" test_long_stream_fastpath;
        slow "persist/resume is verdict- and hit-rate-transparent"
          test_persist_roundtrip;
        test "corrupt capsules rejected" test_persist_rejects_corrupt;
        test "persist/resume on a duplicate-value stream that searches"
          test_persist_roundtrip_dup;
        test "two domains start from History.empty at once"
          test_two_domains_from_empty;
        test "ambiguous_forever fires on a duplicate write"
          test_ambiguous_forever_fires;
        prop_ambiguous_forever;
      ] );
  ]
