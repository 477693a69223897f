(* Last-use opacity: the early-release criterion and its lattice position.

   The separating fixtures are the subsystem's reason to exist: histories
   that du-opacity refuses but last-use opacity accepts (a reader observed
   a closed-but-uncommitted write), plus the cascading-abort history that
   both refuse.  The containment property pins the theorem the oracle and
   verify engine gate on: du-opaque ⇒ last-use-opaque, on every history
   from every soak source. *)

open Tm_safety
open Helpers

let of_text = Parse.of_string_exn

let lu h = Last_use_opacity.to_verdict (Last_use_opacity.check h)
let du h = Du_opacity.check h

let check_lu_certified name h v =
  check_certified ~claim:Serialization.Last_use name h v

(* --- Separating fixtures ------------------------------------------------- *)

(* T1's write to X is its closing write (its last), so once it has responded
   T2 may read the value under last-use opacity — but T1 has not invoked
   tryC, so du-opacity refuses, whatever the outcomes. *)
let test_separating_committed () =
  let h = of_text "W1(X,1)->ok R2(X)->1 C1->C C2->C" in
  check_unsat "committed pair: not du-opaque" (du h);
  check_sat "committed pair: last-use-opaque" (lu h);
  check_lu_certified "committed pair certificate" h (lu h)

let test_separating_aborted () =
  let h = of_text "W1(X,1)->ok R2(X)->1 C1->A C2->A" in
  check_unsat "aborted pair: not du-opaque" (du h);
  check_sat "aborted pair: last-use-opaque" (lu h);
  check_lu_certified "aborted pair certificate" h (lu h)

(* The cascading abort gone wrong: the writer aborts but its reader commits
   anyway, keeping a value that was never committed.  Committed readers get
   no closed-writer leniency — neither criterion accepts. *)
let test_cascading_abort_neither () =
  let h = of_text "W1(X,1)->ok R2(X)->1 C1->A C2->C" in
  check_unsat "committed dirty reader: not du-opaque" (du h);
  check_unsat "committed dirty reader: not last-use-opaque" (lu h)

(* The cascade done right: the reader never sees the aborted value at all. *)
let test_clean_abort_both () =
  let h = of_text "W1(X,1)->ok C1->A R2(X)->0 C2->A" in
  check_sat "clean abort: du-opaque" (du h);
  check_sat "clean abort: last-use-opaque" (lu h)

(* Reciprocal release visibility: T1 released Y and T2 released X, then
   each read the other's value.  Whatever the order, someone precedes its
   own supplier — no serialization, under either criterion.  This is the
   cycle an unrestricted early-release STM actually produced (seed 2 of
   the separation sweep below) before the single-releaser token ruled it
   out; it must stay refused. *)
let test_reciprocal_release_refused () =
  let h = of_text "W1(Y,1)->ok W2(X,2)->ok R1(X)->2 R2(Y)->1 C1->A C2->A" in
  check_unsat "reciprocal release: not du-opaque" (du h);
  check_unsat "reciprocal release: not last-use-opaque" (lu h)

(* A non-closing write gives no leniency: T1 writes X twice, the reader
   snatches the FIRST value — that write was not T1's last to X, so even
   last-use opacity refuses. *)
let test_non_closing_write_refused () =
  let h = of_text "W1(X,1)->ok R2(X)->1 W1(X,2)->ok C1->C C2->C" in
  check_unsat "intermediate value: not du-opaque" (du h);
  check_unsat "intermediate value: not last-use-opaque" (lu h)

(* --- check_fast: the graph's Sat transfers, its Unsat does not ----------- *)

let test_check_fast_graph_leg () =
  (* du-opaque with unique writes: the conflict graph decides, and its
     certificate must stand as a last-use one. *)
  let h = of_text "W1(X,1)->ok C1->C R2(X)->1 W3(X,2)->ok C3->C C2->C" in
  (match Conflict_graph.check h with
  | Conflict_graph.Sat _ -> ()
  | Conflict_graph.Unsat why | Conflict_graph.Ambiguous why ->
      Alcotest.failf "graph should decide Sat: %s" why);
  let fast h = Last_use_opacity.to_verdict (Last_use_opacity.check_fast h) in
  check_lu_certified "graph certificate as last-use" h (fast h);
  check_sat "du-opaque: last-use via check_fast" (fast h);
  (* The separating fixture: the graph refuses du-opacity, yet check_fast
     must still accept, since a du violation says nothing about last-use
     opacity. *)
  let sep = of_text "W1(X,1)->ok R2(X)->1 C1->C C2->C" in
  (match Conflict_graph.check sep with
  | Conflict_graph.Sat _ -> Alcotest.fail "graph accepted a dirty read"
  | Conflict_graph.Unsat _ | Conflict_graph.Ambiguous _ -> ());
  check_sat "separating pair: check_fast" (fast sep);
  check_lu_certified "separating pair certificate" sep (fast sep)

(* --- Decoration ---------------------------------------------------------- *)

let test_decoration () =
  let h = of_text "W1(X,1)->ok W1(X,2)->ok W1(Y,3)->ok C1->C R2(X)->2 C2->C" in
  match Last_use_opacity.decoration h with
  | [ (t1, closes1); (t2, closes2) ] ->
      Alcotest.(check int) "T1" 1 t1;
      Alcotest.(check int) "T2" 2 t2;
      (* X's closing write is the second (response index 3), not the
         first; Y closes at index 5. *)
      Alcotest.(check (list (pair int int)))
        "T1 closes X at its last write, Y after"
        [ (0, 3); (1, 5) ]
        (List.sort compare closes1);
      Alcotest.(check (list (pair int int))) "T2 closes nothing" [] closes2
  | d -> Alcotest.failf "expected two decorated transactions, got %d" (List.length d)

(* --- Incremental = batch per prefix -------------------------------------- *)

(* Last-use opacity is not prefix-closed; check_inc must judge every prefix
   standalone, matching check on that prefix — including a Sat verdict at a
   boundary after an Unsat one. *)
let test_incremental_matches_batch () =
  List.iter
    (fun text ->
      let h = of_text text in
      let ctx = Last_use_opacity.incremental () in
      List.iter
        (fun i ->
          let p = History.prefix h i in
          let inc, _ = Last_use_opacity.check_inc ctx p in
          let batch = Last_use_opacity.check p in
          Alcotest.(check bool)
            (Fmt.str "prefix %d of %s agrees" i text)
            (Last_use_opacity.is_sat batch)
            (Last_use_opacity.is_sat inc))
        (Oracle.boundaries h))
    [
      "W1(X,1)->ok R2(X)->1 C1->C C2->C";
      "W1(X,1)->ok R2(X)->1 C1->A C2->C";
      "W1(X,1)->ok R2(X)->1 C1->A C2->A";
      "W1(X,1)->ok W1(X,2)->ok C1->C R2(X)->2 C2->C";
    ]

(* --- The two STMs -------------------------------------------------------- *)

let contended =
  {
    Stm.Workload.default with
    n_threads = 3;
    txns_per_thread = 3;
    ops_per_txn = 3;
    n_vars = 2;
    read_ratio = 0.5;
  }

(* Early release must populate the separation class — some recorded history
   du-refused but last-use-accepted — and never the forbidden one. *)
let test_early_release_separates () =
  let separated = ref 0 in
  for seed = 1 to 6 do
    let h =
      (Sim.Runner.run ~stm:"early-release" ~params:contended ~seed ())
        .Sim.Runner.history
    in
    match (du h, lu h) with
    | Verdict.Unsat _, Verdict.Sat _ -> incr separated
    | Verdict.Sat _, Verdict.Unsat _ ->
        Alcotest.failf "containment violated at seed %d: %a" seed
          History.pp_inline h
    | Verdict.Unsat _, Verdict.Unsat _ ->
        Alcotest.failf
          "early release produced a last-use violation (seed %d): %a" seed
          History.pp_inline h
    | _ -> ()
  done;
  Alcotest.(check bool)
    (Fmt.str "some seed separates the criteria (%d/6 did)" !separated)
    true (!separated > 0)

(* Early release publishes through the sequence lock, so the happens-before
   analyzer must NOT flag its uncommitted-value reads as dirty: all the
   transitions are synchronised. *)
let test_early_release_race_free () =
  for seed = 1 to 4 do
    let r =
      Sim.Runner.run ~trace:true ~stm:"early-release" ~params:contended ~seed
        ()
    in
    match r.Sim.Runner.trace with
    | None -> Alcotest.fail "trace requested"
    | Some t ->
        Alcotest.(check bool)
          (Fmt.str "seed %d race-free" seed)
          false
          (Analysis.Race.racy (Analysis.Race.analyze t))
  done

(* Partial abort repairs instead of releasing: still a du-safe algorithm. *)
let test_partial_abort_du_safe () =
  for seed = 1 to 6 do
    let h =
      (Sim.Runner.run ~stm:"partial-abort" ~params:contended ~seed ())
        .Sim.Runner.history
    in
    check_sat (Fmt.str "partial-abort seed %d du-opaque" seed) (du h);
    check_sat (Fmt.str "partial-abort seed %d last-use-opaque" seed) (lu h)
  done

(* --- Containment property ------------------------------------------------ *)

(* du-opaque ⇒ last-use-opaque, over every soak source.  Optional
   closed-writer visibility makes every du witness verbatim a last-use
   witness, so a single counterexample convicts a checker core. *)
let prop_containment =
  let sources = Oracle.default_sources in
  qtest ~count:1000 "du-opaque => last-use-opaque (all soak sources)"
    (QCheck2.Gen.map
       (fun seed ->
         let i = abs seed mod List.length sources in
         Oracle.produce (List.nth sources i) ~seed:(abs seed mod 100_000))
       QCheck2.Gen.int)
    (fun h ->
      match Conflict_graph.check_or_fallback ~max_nodes:500_000 h with
      | Verdict.Sat _ -> (
          match Last_use_opacity.check_fast ~max_nodes:500_000 h with
          | Last_use_opacity.Sat _ -> true
          | Last_use_opacity.Unsat _ -> false
          | Last_use_opacity.Ambiguous _ -> QCheck2.assume_fail ())
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* --- Conflict-graph counterexample cycles (satellite) --------------------- *)

let test_counterexample_cycle () =
  (* Classic two-transaction cycle: each reads the other's overwritten
     variable. *)
  let h =
    of_text
      "R1(X)->0 R2(Y)->0 W1(Y,1)->ok W2(X,1)->ok C1->C C2->C R3(X)->1 \
       R3(Y)->1 C3->C"
  in
  match Conflict_graph.counterexample_cycle h with
  | None -> Alcotest.fail "expected a counterexample cycle"
  | Some cycle ->
      Alcotest.(check bool)
        (Fmt.str "cycle has >= 2 transactions (got %d)" (List.length cycle))
        true
        (List.length cycle >= 2);
      let dot = Dot.of_history ~cycle h in
      Alcotest.(check bool) "dot marks the cycle in red" true
        (let contains s sub =
           let n = String.length s and m = String.length sub in
           let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
           go 0
         in
         contains dot "red")

let test_no_cycle_on_accepted () =
  let h = of_text "W1(X,1)->ok C1->C R2(X)->1 C2->C" in
  Alcotest.(check bool) "accepted history has no counterexample cycle" true
    (Conflict_graph.counterexample_cycle h = None)

let suite =
  [
    ( "last-use opacity",
      [
        test "separating: committed pair" test_separating_committed;
        test "separating: aborted pair" test_separating_aborted;
        test "cascading abort refused by both" test_cascading_abort_neither;
        test "check_fast: graph Sat transfers, Unsat does not"
          test_check_fast_graph_leg;
        test "clean abort accepted by both" test_clean_abort_both;
        test "reciprocal release refused" test_reciprocal_release_refused;
        test "non-closing write refused" test_non_closing_write_refused;
        test "closing-write decoration" test_decoration;
        test "incremental matches batch per prefix"
          test_incremental_matches_batch;
        test "early release separates the criteria"
          test_early_release_separates;
        test "early release is race-free" test_early_release_race_free;
        test "partial abort stays du-safe" test_partial_abort_du_safe;
        prop_containment;
        test "counterexample cycle extraction" test_counterexample_cycle;
        test "no cycle on accepted history" test_no_cycle_on_accepted;
      ] );
  ]
