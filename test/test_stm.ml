open Tm_safety
open Helpers

(* The paper's Section 5, as experiments: deferred-update and strict STMs
   export only du-opaque histories; the pessimistic/dirty/eager controls
   are caught by the checkers. *)

let params =
  {
    Stm.Workload.default with
    n_threads = 3;
    txns_per_thread = 5;
    ops_per_txn = 3;
    n_vars = 4;
    read_ratio = 0.5;
  }

let check_du h = Conflict_graph.check_or_fallback ~max_nodes:1_000_000 h

let seeds = List.init 20 (fun i -> i + 1)

let test_safe_stm stm () =
  List.iter
    (fun seed ->
      let r = Sim.Runner.run ~stm ~params ~seed () in
      let h = r.Sim.Runner.history in
      (match check_du h with
      | Verdict.Sat _ -> ()
      | Verdict.Unsat why ->
          Alcotest.failf "%s seed %d: NOT du-opaque: %s@.%s" stm seed why
            (Pretty.timeline h)
      | Verdict.Unknown why -> Alcotest.failf "%s seed %d: %s" stm seed why);
      (* And therefore opaque (Theorem 10); verify directly on a sample. *)
      if seed <= 3 then
        check_sat (Fmt.str "%s seed %d opaque" stm seed)
          (Opacity.check ~max_nodes:1_000_000 h))
    seeds

let test_control_stm stm () =
  let violations = ref 0 in
  List.iter
    (fun seed ->
      let r = Sim.Runner.run ~stm ~params ~seed () in
      match check_du r.Sim.Runner.history with
      | Verdict.Sat _ -> ()
      | Verdict.Unsat _ -> incr violations
      | Verdict.Unknown why -> Alcotest.failf "%s seed %d: %s" stm seed why)
    seeds;
  if !violations = 0 then
    Alcotest.failf "%s: no violation found over %d seeds — control is useless"
      stm (List.length seeds)

let test_stats_sane () =
  let r = Sim.Runner.run ~stm:"tl2" ~params ~seed:7 () in
  let s = r.Sim.Runner.stats in
  Alcotest.(check bool) "some commits" true (s.Stm.Harness.commits > 0);
  Alcotest.(check bool) "commits bounded by programs" true
    (s.Stm.Harness.commits <= params.Stm.Workload.n_threads * params.Stm.Workload.txns_per_thread);
  (* Every committed program appears in the history as a committed txn. *)
  let committed_in_history = List.length (History.committed r.Sim.Runner.history) in
  Alcotest.(check int) "history agrees with stats" s.Stm.Harness.commits
    committed_in_history

let test_determinism () =
  let r1 = Sim.Runner.run ~stm:"norec" ~params ~seed:11 () in
  let r2 = Sim.Runner.run ~stm:"norec" ~params ~seed:11 () in
  Alcotest.(check (list event)) "same history"
    (History.to_list r1.Sim.Runner.history)
    (History.to_list r2.Sim.Runner.history);
  let r3 = Sim.Runner.run ~stm:"norec" ~params ~seed:12 () in
  Alcotest.(check bool) "different seed differs" true
    (History.to_list r1.Sim.Runner.history
    <> History.to_list r3.Sim.Runner.history)

(* Exhaustive schedule exploration on a small configuration: EVERY
   interleaving yields a du-opaque history. *)
let test_explore_exhaustive stm () =
  let tiny =
    {
      Stm.Workload.default with
      n_threads = 2;
      txns_per_thread = 1;
      ops_per_txn = 2;
      n_vars = 2;
      read_ratio = 0.5;
    }
  in
  let histories = ref 0 in
  let outcome =
    Sim.Explore.explore_stm ~max_runs:3000 ~stm ~params:tiny ~seed:3
      ~on_history:(fun h ->
        incr histories;
        match check_du h with
        | Verdict.Sat _ -> ()
        | Verdict.Unsat why ->
            Alcotest.failf "%s schedule %d: %s@.%s" stm !histories why
              (Pretty.timeline h)
        | Verdict.Unknown why -> Alcotest.failf "%s: %s" stm why)
      ()
  in
  Alcotest.(check bool)
    (Fmt.str "explored some schedules (%d)" outcome.Sim.Explore.runs)
    true
    (outcome.Sim.Explore.runs > 10)

let test_explore_finds_control_violation () =
  (* The eager control must be caught by *some* schedule of a tiny
     read/write crossing. *)
  let tiny =
    {
      Stm.Workload.default with
      n_threads = 2;
      txns_per_thread = 1;
      ops_per_txn = 2;
      n_vars = 1;
      read_ratio = 0.5;
    }
  in
  let found = ref false in
  let _ =
    Sim.Explore.explore_stm ~max_runs:3000 ~stm:"eager" ~params:tiny ~seed:1
      ~on_history:(fun h ->
        match check_du h with
        | Verdict.Unsat _ -> found := true
        | Verdict.Sat _ | Verdict.Unknown _ -> ())
      ()
  in
  Alcotest.(check bool) "eager caught by exploration" true !found

(* Parallel (real domains, Atomic memory): recorded histories are
   well-formed by construction and du-opaque for safe STMs. *)
let test_parallel_recorded stm () =
  let params =
    { params with Stm.Workload.n_threads = 4; txns_per_thread = 10 }
  in
  let r =
    Stm.Parallel.run ~record:true
      ~algorithm:(Stm.Registry.find_exn stm)
      ~params ~seed:5 ()
  in
  match r.Stm.Parallel.history with
  | None -> Alcotest.fail "recording was on"
  | Some h -> (
      Alcotest.(check bool) "nonempty" true (History.length h > 0);
      match check_du h with
      | Verdict.Sat _ -> ()
      | Verdict.Unsat why ->
          Alcotest.failf "%s (domains): NOT du-opaque: %s" stm why
      | Verdict.Unknown why -> Alcotest.failf "%s (domains): %s" stm why)

let test_registry () =
  Alcotest.(check int) "11 algorithms" 11 (List.length Stm.Registry.algorithms);
  List.iter
    (fun name ->
      match Stm.Registry.find name with
      | Some _ -> ()
      | None -> Alcotest.failf "missing %s" name)
    (Stm.Registry.safe @ Stm.Registry.lastuse_safe @ Stm.Registry.controls);
  Alcotest.(check bool) "unknown" true (Stm.Registry.find "nope" = None)

let test_unique_workload_graph () =
  (* Unique-writes workloads let the conflict graph decide STM histories
     on its own: no fallback to the search. *)
  let params = { params with Stm.Workload.values = `Unique } in
  List.iter
    (fun seed ->
      (* A retried program replays its write values under a fresh
         transaction id, which would break the per-transaction uniqueness
         premise — so give every program a single attempt. *)
      let r = Sim.Runner.run ~max_retries:1 ~stm:"tl2" ~params ~seed () in
      let h = r.Sim.Runner.history in
      Alcotest.(check bool)
        (Fmt.str "seed %d: unique writes" seed)
        true (History.unique_writes h);
      match Conflict_graph.check h with
      | Conflict_graph.Sat _ -> ()
      | Conflict_graph.Unsat why -> Alcotest.failf "seed %d: %s" seed why
      | Conflict_graph.Ambiguous why ->
          Alcotest.failf "seed %d: graph undecided: %s" seed why)
    (List.init 10 (fun i -> i + 100))

(* The recorded log survives being cut by an omission plan: Parallel.run
   keeps the longest well-formed prefix and accounts for the torn tail. *)
let test_parallel_torn_accounting () =
  let params =
    { params with Stm.Workload.n_threads = 3; txns_per_thread = 5 }
  in
  let run faults =
    Stm.Parallel.run ~record:true ~faults
      ~algorithm:(Stm.Registry.find_exn "tl2")
      ~params ~seed:7 ()
  in
  let clean = run Stm.Faults.none in
  Alcotest.(check int) "fault-free runs are never torn" 0
    clean.Stm.Parallel.torn_tail;
  (* The log is far longer than any cut below, so the cut is exact: the
     salvaged history plus the torn tail is the whole truncated log. *)
  List.iter
    (fun cut ->
      let r =
        run { Stm.Faults.none with Stm.Faults.omission = Some cut }
      in
      match r.Stm.Parallel.history with
      | None -> Alcotest.fail "recording was on"
      | Some h ->
          Alcotest.(check int)
            (Fmt.str "cut %d fully accounted" cut)
            cut
            (History.length h + r.Stm.Parallel.torn_tail))
    [ 1; 3; 7; 17; 23 ]

let suite =
  [
    ( "stm: safe algorithms (sim)",
      List.map
        (fun stm -> slow (stm ^ " du-opaque on 20 seeds") (test_safe_stm stm))
        Stm.Registry.safe );
    ( "stm: negative controls (sim)",
      List.map
        (fun stm -> slow (stm ^ " caught") (test_control_stm stm))
        Stm.Registry.controls );
    ( "stm: infrastructure",
      [
        test "stats vs history" test_stats_sane;
        test "determinism" test_determinism;
        test "registry" test_registry;
        slow "explore: tl2 exhaustively du-opaque" (test_explore_exhaustive "tl2");
        slow "explore: norec exhaustively du-opaque"
          (test_explore_exhaustive "norec");
        slow "explore: eager violation found" test_explore_finds_control_violation;
        slow "parallel tl2 (domains) du-opaque" (test_parallel_recorded "tl2");
        slow "parallel norec (domains) du-opaque" (test_parallel_recorded "norec");
        slow "parallel torn-tail accounting" test_parallel_torn_accounting;
        slow "unique workload via conflict graph" test_unique_workload_graph;
      ] );
  ]
