open Tm_safety
open Helpers

(* Finding 1: a machine-checked counterexample to the paper's Lemma 1 under
   duplicate writes (see Tm_figures.Findings and EXPERIMENTS.md). *)

let h, (order, committed), prefix_len = Tm_figures.Findings.lemma1_gap

let test_full_history_du_opaque () =
  (* The specific serialization S = T1,T3,T6,T5 named by the finding is a
     valid du-opaque serialization of the full history. *)
  let s = Serialization.make ~order ~committed in
  (match Serialization.validate ~claim:Serialization.Du_opaque h s with
  | Ok () -> ()
  | Error why -> Alcotest.failf "S rejected: %s" why);
  check_sat "full history" (Du_opacity.check h)

let test_prefix_is_du_opaque () =
  (* On THIS example the prefix stays du-opaque — it has a serialization,
     just not one inheriting S's order.  (Corollary 2's statement fails in
     general: see Finding 3 below.) *)
  let p = History.prefix h prefix_len in
  check_sat "prefix" (Du_opacity.check p);
  let s =
    Serialization.make ~order:Tm_figures.Findings.lemma1_gap_working_order
      ~committed:[ 1; 3 ]
  in
  match Serialization.validate ~claim:Serialization.Du_opaque p s with
  | Ok () -> ()
  | Error why -> Alcotest.failf "working order rejected: %s" why

let test_projection_fails () =
  (* Lemma 1's construction (same relative order, inherited decisions)
     does NOT yield a serialization of the prefix... *)
  let p = History.prefix h prefix_len in
  let s = Serialization.make ~order ~committed in
  let si = Lemmas.project_prefix h s prefix_len in
  (match Serialization.validate ~claim:Serialization.Du_opaque p si with
  | Ok () -> Alcotest.fail "expected the paper's construction to fail here"
  | Error _ -> ());
  (* ... and no decision vector can repair it: the order T1,T3,T5 is the
     only subsequence of seq(S) over the prefix's transactions, T1 and T3
     are committed in the prefix (decisions forced), and T5 aborts either
     way, so its read of 1 always sits above T3's committed 3. *)
  List.iter
    (fun committed ->
      let cand =
        Serialization.make ~order:Tm_figures.Findings.lemma1_gap_projected_order
          ~committed
      in
      match Serialization.validate ~claim:Serialization.Du_opaque p cand with
      | Ok () ->
          Alcotest.failf "unexpected repair with committed=%a"
            Fmt.(Dump.list int)
            committed
      | Error _ -> ())
    [ [ 1; 3 ]; [ 1; 3; 5 ] ]

let test_unique_writes_is_safe () =
  (* Under unique writes the proof step is valid; the construction must
     never fail.  (Also covered statistically by the property suite.) *)
  let params =
    { Gen.default with n_txns = 6; n_threads = 3; max_ops = 3; unique_writes = true }
  in
  for seed = 1 to 200 do
    let h = Gen.run_seed params seed in
    match Du_opacity.check ~max_nodes:500_000 h with
    | Verdict.Sat s ->
        List.iter
          (fun i ->
            let si = Lemmas.project_prefix h s i in
            match
              Serialization.validate ~claim:Serialization.Du_opaque
                (History.prefix h i) si
            with
            | Ok () -> ()
            | Error why ->
                Alcotest.failf "seed %d prefix %d: construction failed under \
                                unique writes: %s"
                  seed i why)
          (History.response_indices h)
    | Verdict.Unsat _ | Verdict.Unknown _ -> ()
  done

let test_duplicate_writes_premise () =
  (* The counterexample indeed features duplicate writes (T1 and T6 both
     write 1 to Z) — outside Theorem 11's setting, as required. *)
  Alcotest.(check bool) "duplicate writes" false (History.unique_writes h)

(* Finding 3: Corollary 2's statement itself fails under duplicate writes —
   a du-opaque history (tm soak's shrunk discovery) whose prefix is not. *)

let g_h, g_prefix_len = Tm_figures.Findings.corollary2_gap

let test_cor2_full_du_opaque () =
  let order, committed = Tm_figures.Findings.corollary2_gap_witness in
  let s = Serialization.make ~order ~committed in
  (match Serialization.validate ~claim:Serialization.Du_opaque g_h s with
  | Ok () -> ()
  | Error why -> Alcotest.failf "witness rejected: %s" why);
  check_sat "full history" (Du_opacity.check g_h)

let test_cor2_prefix_not_du_opaque () =
  check_unsat "prefix without T7's tryC"
    (Du_opacity.check (History.prefix g_h g_prefix_len))

let test_cor2_duplicate_writes_premise () =
  (* T2 and T7 both write 1 to Y — outside Theorem 11's setting.  Under
     unique writes Corollary 2 holds and this counterexample is impossible. *)
  Alcotest.(check bool) "duplicate writes" false (History.unique_writes g_h)

let test_cor2_oracle_reports_closure_gap () =
  (* The lockstep oracle must classify the sticky-vs-batch disagreement on
     this history as a benign closure gap, not a discrepancy. *)
  let r = Oracle.lockstep g_h in
  (match r.Oracle.findings with
  | [] -> ()
  | fs ->
      Alcotest.failf "unexpected findings: %s"
        (String.concat "; " (List.map (Fmt.str "%a" Oracle.pp_finding) fs)));
  Alcotest.(check bool) "closure gap flagged" true r.Oracle.closure_gap

let test_cor2_unique_writes_no_gap () =
  (* Where Corollary 2 applies, the oracle must never see a closure gap —
     and any disagreement at all would be a finding. *)
  let params =
    {
      Gen.default with
      n_txns = 6;
      n_threads = 3;
      max_ops = 3;
      unique_writes = true;
    }
  in
  for seed = 1 to 60 do
    let h = Gen.run_seed params seed in
    let r = Oracle.lockstep ~max_nodes:500_000 h in
    (match r.Oracle.findings with
    | [] -> ()
    | fs ->
        Alcotest.failf "seed %d: findings on a unique-writes history: %s" seed
          (String.concat "; " (List.map (Fmt.str "%a" Oracle.pp_finding) fs)));
    if r.Oracle.closure_gap then
      Alcotest.failf "seed %d: closure gap on a unique-writes history" seed
  done

(* Finding 2: the paper's informal §4.2 rendering of TMS2 admits fig4,
   which is not du-opaque — so the rendering is weaker than the TMS2 the
   conjecture "TMS2 ⊆ du-opacity" is about. *)
let test_tms2_rendering_gap () =
  check_sat "fig4 satisfies the TMS2 rendering" (Tms2.check Figures.fig4);
  check_unsat "fig4 is not du-opaque" (Du_opacity.check Figures.fig4);
  Alcotest.(check (list (pair int int))) "no TMS2 edges fire on fig4" []
    (Tms2.edges Figures.fig4)

let suite =
  [
    ( "findings: TMS2 rendering",
      [ test "fig4 separates the rendering from du-opacity" test_tms2_rendering_gap ] );
    ( "findings: Lemma 1 gap",
      [
        test "the full history and its serialization S" test_full_history_du_opaque;
        test "the prefix is du-opaque (Cor 2 statement survives)" test_prefix_is_du_opaque;
        test "the paper's projection fails, unrepairably" test_projection_fails;
        test "under unique writes the construction is safe" test_unique_writes_is_safe;
        test "counterexample uses duplicate writes" test_duplicate_writes_premise;
      ] );
    ( "findings: Corollary 2 gap",
      [
        test "the full history is du-opaque (witness validates)"
          test_cor2_full_du_opaque;
        test "its prefix is not du-opaque" test_cor2_prefix_not_du_opaque;
        test "counterexample uses duplicate writes"
          test_cor2_duplicate_writes_premise;
        test "the oracle calls it a closure gap, not a discrepancy"
          test_cor2_oracle_reports_closure_gap;
        test "under unique writes no gap ever appears"
          test_cor2_unique_writes_no_gap;
      ] );
  ]
