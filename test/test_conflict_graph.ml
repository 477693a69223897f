(* The conflict-graph du-opacity backend against the search: agreement on
   every soak source (including fault-injected streams), figure-catalog
   parity, the Finding-3 duplicate-writes fallback, incremental prefix
   verdicts, and the monitor's graph fast path. *)

open Tm_safety
open Helpers

let max_nodes = 500_000

(* --- QCheck equivalence over the soak sources ---------------------------- *)

let soak_sources : Oracle.source list =
  [
    `Gen; `Stm "tl2"; `Stm "norec"; `Stm "pessimistic"; `Faults "tl2";
    `Faults "norec";
  ]

let gen_soak_history =
  QCheck2.Gen.map
    (fun (i, seed) ->
      Oracle.produce (List.nth soak_sources (i mod List.length soak_sources))
        ~seed)
    QCheck2.Gen.(pair (int_range 0 5) (int_range 0 100_000))

let validated name h = function
  | Conflict_graph.Sat c -> (
      match Serialization.validate ~claim:Serialization.Du_opaque h c with
      | Ok () -> true
      | Error why ->
          QCheck2.Test.fail_reportf "%s: certificate rejected: %s" name why)
  | Conflict_graph.Unsat _ | Conflict_graph.Ambiguous _ -> true

(* Theorem 11's domain: small generated histories with unique writes. *)
let gen_unique_history =
  arb_history
    ~params:
      {
        Gen.default with
        n_txns = 6;
        n_threads = 3;
        max_ops = 3;
        unique_writes = true;
      }
    ()

(* The raw backend must agree with the search whenever it decides, and the
   fallback-complete entry point must agree whenever both decide. *)
let prop_graph_agrees =
  qtest ~count:1000 "Conflict_graph ≡ Du_opacity over soak sources"
    gen_soak_history
    (fun h ->
      let raw = Conflict_graph.check h in
      let v = Du_opacity.check ~max_nodes h in
      ignore (validated "raw" h raw);
      let raw_ok =
        match raw, v with
        | Conflict_graph.Sat _, Verdict.Sat _
        | Conflict_graph.Unsat _, Verdict.Unsat _
        | Conflict_graph.Ambiguous _, _
        | _, Verdict.Unknown _ ->
            true
        | _ -> false
      in
      let fb_ok =
        match Conflict_graph.check_or_fallback ~max_nodes h, v with
        | Verdict.Sat _, Verdict.Sat _ | Verdict.Unsat _, Verdict.Unsat _ ->
            true
        | Verdict.Unknown _, _ | _, Verdict.Unknown _ -> true
        | _ -> false
      in
      raw_ok && fb_ok)

(* Under unique writes reads-from is determined, so the graph decides all
   but the initial-value-writer case; whatever it decides must match the
   search, and every Sat must carry a valid certificate. *)
let prop_unique_agrees =
  qtest ~count:300 "conflict graph = search under unique writes"
    gen_unique_history
    (fun h ->
      QCheck2.assume (History.unique_writes h);
      match Conflict_graph.check h, Du_opacity.check ~max_nodes h with
      | _, Verdict.Unknown _ -> QCheck2.assume_fail ()
      | (Conflict_graph.Sat _ as raw), Verdict.Sat _ -> validated "unique" h raw
      | Conflict_graph.Unsat _, Verdict.Unsat _ -> true
      | Conflict_graph.Ambiguous _, _ -> true
      | _ -> false)

(* --- figure-catalog parity ------------------------------------------------ *)

let test_catalog () =
  List.iter
    (fun (e : Figures.expectation) ->
      (match Conflict_graph.check e.Figures.history with
      | Conflict_graph.Sat _ when not e.Figures.du_opaque ->
          Alcotest.failf "%s: graph says Sat, paper says not du-opaque"
            e.Figures.name
      | Conflict_graph.Unsat why when e.Figures.du_opaque ->
          Alcotest.failf "%s: graph says Unsat (%s), paper says du-opaque"
            e.Figures.name why
      | _ -> ());
      check_verdict
        (e.Figures.name ^ " (graph+fallback)")
        e.Figures.du_opaque
        (Conflict_graph.check_or_fallback ~max_nodes e.Figures.history))
    Figures.catalog

(* --- hand-written unique-writes fixtures ---------------------------------- *)

let check_unique name h =
  Alcotest.(check bool) (name ^ ": unique writes") true (History.unique_writes h)

(* The graph must answer [Sat] with a certificate the validator accepts. *)
let certified name h =
  match Conflict_graph.check h with
  | Conflict_graph.Sat s -> (
      match Serialization.validate ~claim:Serialization.Du_opaque h s with
      | Ok () -> s
      | Error why -> Alcotest.failf "%s: certificate rejected: %s" name why)
  | Conflict_graph.Unsat why -> Alcotest.failf "%s: expected Sat, got Unsat: %s" name why
  | Conflict_graph.Ambiguous why ->
      Alcotest.failf "%s: expected Sat, got Ambiguous: %s" name why

let refused name h =
  match Conflict_graph.check h with
  | Conflict_graph.Unsat why -> why
  | Conflict_graph.Sat s ->
      Alcotest.failf "%s: expected Unsat, got Sat (%a)" name Serialization.pp s
  | Conflict_graph.Ambiguous why ->
      Alcotest.failf "%s: expected Unsat, got Ambiguous: %s" name why

let undecided name h =
  match Conflict_graph.check h with
  | Conflict_graph.Ambiguous _ -> ()
  | Conflict_graph.Sat _ | Conflict_graph.Unsat _ ->
      Alcotest.failf "%s: the graph must fall back, not decide" name

let test_sat () =
  let h = Dsl.(history [ w 1 x 1; c 1; r 2 x 1; w 3 x 2; c 3; r 2 y 0 ]) in
  check_unique "sat" h;
  ignore (certified "sat" h)

let test_unsat_dirty () =
  (* Read from a live transaction. *)
  let h = Dsl.(history [ w_inv 1 x 1; w_ok 1; r 2 x 1; c 2 ]) in
  check_unique "dirty read" h;
  ignore (refused "dirty read" h)

let test_unsat_cycle () =
  (* Unique-writes write skew. *)
  let h =
    Dsl.(
      history
        [ r_inv 1 x; ret 1 0; r_inv 2 y; ret 2 0; w 1 y 1; w 2 x 2; c_inv 1;
          c_inv 2; committed 1; committed 2 ])
  in
  check_unique "write skew" h;
  ignore (refused "write skew" h)

let test_declines_duplicates () =
  (* T1 and T2 both write 1 to X: T3's read has two candidate writers, so
     reads-from is not determined and only the search may decide. *)
  let h = Dsl.(history [ w 1 x 1; c 1; w 2 x 1; c 2; r 3 x 1; c 3 ]) in
  Alcotest.(check bool) "duplicate writes" false (History.unique_writes h);
  undecided "duplicate writes" h;
  check_sat "duplicate writes (fallback)"
    (Conflict_graph.check_or_fallback ~max_nodes h)

let test_initial_value_writer_ambiguity () =
  (* The read of 0 could be of the initial state or of T1. *)
  let h = Dsl.(history [ w 1 x 0; c 1; r 2 x 0; c 2 ]) in
  check_unique "initial-value writer" h;
  undecided "initial-value writer" h;
  check_sat "initial-value writer (fallback)"
    (Conflict_graph.check_or_fallback ~max_nodes h)

let test_forced_commit_of_pending () =
  (* T1's tryC is pending; T2 reads its value: the certificate must commit
     T1. *)
  let h = Dsl.(history [ w 1 x 1; c_inv 1; r 2 x 1; c 2 ]) in
  check_unique "pending writer" h;
  let s = certified "pending writer" h in
  Alcotest.(check bool) "T1 committed" true (Serialization.commits s 1)

let test_du_precondition () =
  (* Unique-writes version of fig4: T2 reads from T3, a future committer. *)
  let h =
    Dsl.(history [ w 1 x 1; c_inv 1; r 2 x 2; w 3 x 2; c 3; aborted 1 ])
  in
  check_unique "unique-writes fig4" h;
  ignore (refused "unique-writes fig4" h);
  (* Theorem 11: under unique writes opacity agrees with du-opacity. *)
  check_unsat "unique-writes fig4: opacity agrees" (Opacity.check h)

(* --- Finding 3: duplicate written values route to the fallback ------------ *)

let test_corollary2_gap_fallback () =
  let h, prefix_len = Tm_figures.Findings.corollary2_gap in
  (match Conflict_graph.check h with
  | Conflict_graph.Ambiguous _ -> ()
  | Conflict_graph.Sat _ | Conflict_graph.Unsat _ ->
      Alcotest.fail
        "duplicate-writes history must be Ambiguous for the raw backend");
  check_sat "full corollary2_gap history (fallback)"
    (Conflict_graph.check_or_fallback ~max_nodes h);
  check_unsat "corollary2_gap prefix (fallback)"
    (Conflict_graph.check_or_fallback ~max_nodes (History.prefix h prefix_len))

(* --- incremental prefix verdicts ------------------------------------------ *)

let test_inc_prefix_verdicts () =
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 4;
      ops_per_txn = 3;
      n_vars = 4;
      values = `Unique;
    }
  in
  let h = (Sim.Runner.run ~stm:"tl2" ~params ~seed:11 ()).Sim.Runner.history in
  let g = Conflict_graph.Inc.create () in
  let decided = ref 0 in
  List.iteri
    (fun i ev ->
      Conflict_graph.Inc.push g ev;
      if Event.is_res ev then begin
        let hp = History.prefix h (i + 1) in
        match Conflict_graph.Inc.verdict g, Du_opacity.check ~max_nodes hp with
        | Conflict_graph.Sat _, Verdict.Sat _
        | Conflict_graph.Unsat _, Verdict.Unsat _ ->
            incr decided
        | Conflict_graph.Ambiguous _, _ | _, Verdict.Unknown _ -> ()
        | Conflict_graph.Sat _, Verdict.Unsat _ ->
            Alcotest.failf "prefix %d: graph Sat, search Unsat" (i + 1)
        | Conflict_graph.Unsat _, Verdict.Sat _ ->
            Alcotest.failf "prefix %d: graph Unsat, search Sat" (i + 1)
      end)
    (History.to_list h);
  if !decided = 0 then
    Alcotest.fail "graph decided no prefix of a recorded TL2 stream"

(* --- monitor graph fast path ---------------------------------------------- *)

let test_monitor_graph_hits () =
  (* A recorded unique-writes TL2 stream: every response must be absorbed
     by revalidation or decided by the graph — a backtracking search
     running here is the fast-path regression this test guards. *)
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 6;
      ops_per_txn = 3;
      n_vars = 4;
      values = `Unique;
    }
  in
  let h = (Sim.Runner.run ~stm:"tl2" ~params ~seed:5 ()).Sim.Runner.history in
  let m = Monitor.create ~max_nodes () in
  List.iter (fun ev -> ignore (Monitor.push m ev)) (History.to_list h);
  (match Monitor.status m with
  | `Ok -> ()
  | `Violation why | `Budget why ->
      Alcotest.failf "recorded TL2 stream rejected: %s" why);
  Alcotest.(check int) "every response accounted to exactly one path"
    (Monitor.responses_seen m)
    (Monitor.fastpath_hits m + Monitor.graph_hits m + Monitor.searches_run m);
  Alcotest.(check int) "no backtracking search ran" 0 (Monitor.searches_run m)

let test_monitor_graph_unsat () =
  (* A read served before the writer is even commit-pending: the graph
     decides Unsat without a search, and the monitor reports the sticky
     violation at the right prefix. *)
  let h = Parse.of_string_exn "W1(X,1)->ok R2(X)->1 C2->C C1->C" in
  check_unsat "search agrees the stream violates" (Du_opacity.check h);
  (match Conflict_graph.check h with
  | Conflict_graph.Unsat _ -> ()
  | Conflict_graph.Sat _ -> Alcotest.fail "graph accepted a du violation"
  | Conflict_graph.Ambiguous why ->
      Alcotest.failf "graph must decide this unique-writes stream: %s" why);
  let m = Monitor.create ~max_nodes () in
  let outcome = Monitor.push_all m (History.to_list h) in
  (match outcome with
  | `Violation _ -> ()
  | `Ok -> Alcotest.fail "monitor accepted a du violation"
  | `Budget why -> Alcotest.failf "budget on a 8-event history: %s" why);
  Alcotest.(check int) "violating prefix" 4
    (Option.value ~default:(-1) (Monitor.violation_index m));
  Alcotest.(check int) "the graph decided it" 0 (Monitor.searches_run m)

(* --- offline check smoke at a non-toy size -------------------------------- *)

let test_offline_medium () =
  let params =
    {
      Stm.Workload.default with
      n_threads = 4;
      txns_per_thread = 250;
      ops_per_txn = 4;
      n_vars = 16;
      values = `Unique;
    }
  in
  let h = (Sim.Runner.run ~stm:"tl2" ~params ~seed:3 ()).Sim.Runner.history in
  let r, stats = Conflict_graph.check_stats h in
  (match r with
  | Conflict_graph.Sat c -> (
      match Serialization.validate ~claim:Serialization.Du_opaque h c with
      | Ok () -> ()
      | Error why -> Alcotest.failf "certificate rejected: %s" why)
  | Conflict_graph.Unsat why -> Alcotest.failf "recorded TL2 unsat: %s" why
  | Conflict_graph.Ambiguous why ->
      Alcotest.failf "unique-writes stream ambiguous: %s" why);
  if stats.Conflict_graph.nodes < 500 then
    Alcotest.failf "expected a non-toy run, interned %d nodes"
      stats.Conflict_graph.nodes

let suite =
  [
    ( "conflict graph",
      [
        test "figure catalog parity" test_catalog;
        test "sat + certificate" test_sat;
        test "unsat: read from live" test_unsat_dirty;
        test "unsat: write skew" test_unsat_cycle;
        test "declines duplicates" test_declines_duplicates;
        test "initial-value writer ambiguity"
          test_initial_value_writer_ambiguity;
        test "forces commit of pending writer" test_forced_commit_of_pending;
        test "du precondition (Thm 11 shape)" test_du_precondition;
        test "Finding 3 routes to fallback" test_corollary2_gap_fallback;
        test "incremental prefix verdicts" test_inc_prefix_verdicts;
        test "monitor graph fast path" test_monitor_graph_hits;
        test "monitor graph Unsat path" test_monitor_graph_unsat;
        slow "offline check, ~10k events" test_offline_medium;
        prop_graph_agrees;
        prop_unique_agrees;
      ] );
  ]
