open Tm_safety
open Helpers

let test_satisfying_returns_none () =
  Alcotest.(check bool) "fig1" true (Shrink.minimal_violation Figures.fig1 = None)

let test_shrinks_fig4_to_itself_or_smaller () =
  match Shrink.minimal_violation Figures.fig4 with
  | None -> Alcotest.fail "fig4 violates du-opacity"
  | Some core ->
      Alcotest.(check bool) "still violating" true
        (Verdict.is_unsat (Du_opacity.check core));
      Alcotest.(check bool) "no bigger" true
        (History.length core <= History.length Figures.fig4)

let test_shrinks_control_runs () =
  (* Violations from the broken STMs shrink to small readable cores. *)
  let du h = Conflict_graph.check_or_fallback ~max_nodes:1_000_000 h in
  List.iter
    (fun stm ->
      let params =
        {
          Stm.Workload.default with
          n_threads = 3;
          txns_per_thread = 5;
          ops_per_txn = 3;
          n_vars = 3;
        }
      in
      let rec hunt seed =
        if seed > 20 then None
        else
          let h = (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history in
          if Verdict.is_unsat (du h) then Some h else hunt (seed + 1)
      in
      match hunt 1 with
      | None -> Alcotest.failf "%s: no violation to shrink" stm
      | Some h -> (
          match Shrink.minimal_violation ~max_nodes:1_000_000 h with
          | None -> Alcotest.failf "%s: shrink lost the violation" stm
          | Some core ->
              Alcotest.(check bool)
                (Fmt.str "%s core is small (%d events from %d)" stm
                   (History.length core) (History.length h))
                true
                (History.length core < History.length h
                && History.length core <= 24);
              Alcotest.(check bool) "core still violating" true
                (Verdict.is_unsat (du core));
              (* Local minimality: no single transaction is removable. *)
              List.iter
                (fun k ->
                  let without =
                    History.project core ~keep:(fun k' -> k' <> k)
                  in
                  Alcotest.(check bool)
                    (Fmt.str "%s: dropping T%d loses the violation" stm k)
                    true
                    (Verdict.is_sat (du without)))
                (History.txns core)))
    [ "pessimistic"; "dirty-read"; "eager" ]

let test_custom_property () =
  (* Shrinking against opacity instead of du-opacity. *)
  match
    Shrink.minimal_violation
      ~check:(fun h -> Opacity.check ~max_nodes:500_000 h)
      Figures.fig3
  with
  | None -> Alcotest.fail "fig3 is not opaque"
  | Some core ->
      Alcotest.(check bool) "still not opaque" true
        (Verdict.is_unsat (Opacity.check core));
      (* Dropping T1 entirely leaves R2(X)->1 — a read of a value nobody
         wrote, still a violation and the true minimal core: 2 events. *)
      Alcotest.(check int) "2-event core" 2 (History.length core)

let suite =
  [
    ( "shrink",
      [
        test "satisfying history" test_satisfying_returns_none;
        test "fig4" test_shrinks_fig4_to_itself_or_smaller;
        slow "control-run violations shrink small" test_shrinks_control_runs;
        test "custom property (opacity, fig3)" test_custom_property;
      ] );
  ]
