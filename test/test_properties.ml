open Tm_safety
open Helpers

(* The paper's theorems as property campaigns over randomly generated
   histories.  Budgets make pathological instances Unknown rather than
   slow; Unknowns are discarded (QCheck2.assume) so they can never mask a
   counterexample. *)

let budget = Some 300_000

let sat _name v =
  match v with
  | Verdict.Sat _ -> true
  | Verdict.Unsat _ -> false
  | Verdict.Unknown _ -> QCheck2.assume_fail ()

let du h = Du_opacity.check ?max_nodes:budget h
let opaque h = Opacity.check ?max_nodes:budget h
let final_state h = Final_state.check ?max_nodes:budget h

(* Generator flavours *)
let small = { Gen.default with n_txns = 6; n_threads = 3; max_ops = 3 }

let t_complete_params =
  { small with pending_ratio = 0.0 (* every transaction reaches tryC/tryA *) }

let unique_params = { small with unique_writes = true }

let mixed =
  (* A blend of snapshot-valued (mostly correct) and random-valued (mostly
     broken) histories, so properties see both verdicts. *)
  QCheck2.Gen.bind QCheck2.Gen.bool (fun snapshot ->
      arb_history
        ~params:
          (if snapshot then small
           else { small with mode = `Random_values; value_range = 2 })
        ())

(* --- Theorem 10: DU-Opacity ⊆ Opacity ⊆ Final-state opacity --- *)

let prop_du_implies_opaque =
  qtest ~count:300 "du-opaque => opaque" mixed (fun h ->
      (not (sat "du" (du h))) || sat "opaque" (opaque h))

let prop_opaque_implies_fs =
  qtest ~count:300 "opaque => final-state opaque" mixed (fun h ->
      (not (sat "op" (opaque h))) || sat "fs" (final_state h))

(* --- Corollary 2: prefix closure --- *)

let prop_du_prefix_closed =
  qtest ~count:150 "du-opacity is prefix-closed" mixed (fun h ->
      (not (sat "du" (du h)))
      || List.for_all
           (fun i -> sat "prefix" (du (History.prefix h i)))
           (History.response_indices h))

let prop_opacity_prefix_closed =
  qtest ~count:60 "opacity is prefix-closed" mixed (fun h ->
      (not (sat "op" (opaque h)))
      || List.for_all
           (fun i -> sat "prefix" (opaque (History.prefix h i)))
           (History.response_indices h))

(* Extending by a lone invocation cannot lose final-state opacity (this
   justifies checking response-prefixes only in the opacity checker) and
   cannot change the du verdict at all: Sat is preserved by monotonicity,
   and Unsat by prefix-closure.  Final-state opacity CAN flip Unsat -> Sat
   (a lone tryC invocation unlocks a commit decision), so only the
   monotone direction is claimed for it. *)
let prop_invocation_extension =
  qtest ~count:150 "invocation extension: du stable, fs monotone" mixed
    (fun h ->
      let invocation_prefixes =
        List.init (History.length h) (fun i -> i + 1)
        |> List.filter (fun i -> Event.is_inv (History.get h (i - 1)))
      in
      List.for_all
        (fun i ->
          let before = History.prefix h (i - 1) in
          let after = History.prefix h i in
          sat "du before" (du before) = sat "du after" (du after)
          && ((not (sat "fs before" (final_state before)))
             || sat "fs after" (final_state after)))
        invocation_prefixes)

(* --- Inclusion chain on t-complete histories --- *)

let prop_chain_t_complete =
  qtest ~count:300 "du => opaque => fs => strict-ser => ser (t-complete)"
    (QCheck2.Gen.bind QCheck2.Gen.bool (fun snapshot ->
         arb_history
           ~params:
             (if snapshot then t_complete_params
              else
                { t_complete_params with mode = `Random_values; value_range = 2 })
           ()))
    (fun h ->
      QCheck2.assume (History.is_t_complete h);
      let imp a b = (not a) || b in
      let v_du = sat "du" (du h) in
      let v_op = sat "op" (opaque h) in
      let v_fs = sat "fs" (final_state h) in
      let v_ss = sat "ss" (Serializable.check_strict ?max_nodes:budget h) in
      let v_s = sat "s" (Serializable.check ?max_nodes:budget h) in
      imp v_du v_op && imp v_op v_fs && imp v_fs v_ss && imp v_ss v_s)

(* --- Theorem 11: unique writes ⇒ du-opacity = opacity --- *)

let prop_unique_writes_equiv =
  qtest ~count:300 "unique writes: du-opaque <=> opaque"
    (arb_history ~params:unique_params ())
    (fun h ->
      QCheck2.assume (History.unique_writes h);
      sat "du" (du h) = sat "op" (opaque h))

(* --- The graph-then-search entry point decides exactly as the search --- *)

(* The graph alone never contradicts the search: on snapshot and
   random-valued histories alike, whatever it decides the search decides
   the same way. *)
let prop_graph_sound =
  qtest ~count:300 "conflict graph never contradicts the search" mixed
    (fun h ->
      match Conflict_graph.check h with
      | Conflict_graph.Sat _ -> sat "du" (du h)
      | Conflict_graph.Unsat _ -> not (sat "du" (du h))
      | Conflict_graph.Ambiguous _ -> true)

let prop_check_or_fallback_agrees =
  qtest ~count:200 "check_or_fallback = check" mixed (fun h ->
      sat "graph" (Conflict_graph.check_or_fallback ?max_nodes:budget h)
      = sat "du" (du h))

(* --- GHS'08 (read-commit order) is stronger than du-opacity --- *)

let prop_rco_implies_du =
  qtest ~count:300 "rco-opaque => du-opaque" mixed (fun h ->
      (not (sat "rco" (Rco.check ?max_nodes:budget h))) || sat "du" (du h))

(* --- Certificates always validate --- *)

let prop_certificates_validate =
  qtest ~count:300 "search certificates pass the definitional validator"
    mixed (fun h ->
      (match du h with
      | Verdict.Sat s ->
          Serialization.validate ~claim:Serialization.Du_opaque h s = Ok ()
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())
      &&
      match final_state h with
      | Verdict.Sat s ->
          Serialization.validate ~claim:Serialization.Final_state h s = Ok ()
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* --- Lemma 1: certificates project to prefixes ---

   Only claimed under unique writes: with duplicate writes the paper's
   construction (and indeed the lemma's statement) fails — see
   Tm_figures.Findings.lemma1_gap and the "findings" test suite. *)

let prop_lemma1_unique_writes =
  qtest ~count:150 "Lemma 1 projection (unique writes)"
    (arb_history ~params:unique_params ())
    (fun h ->
      match du h with
      | Verdict.Sat s ->
          List.for_all
            (fun i ->
              let si = Lemmas.project_prefix h s i in
              Serialization.validate ~claim:Serialization.Du_opaque
                (History.prefix h i) si
              = Ok ())
            (History.response_indices h)
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* Corollary 2's *statement*, independent of the broken construction: the
   prefix always has SOME serialization (already prop_du_prefix_closed);
   moreover when the paper's projection does fail, a full re-search still
   succeeds. *)
let prop_lemma1_fallback =
  qtest ~count:150 "Lemma 1 fallback: failed projections re-search fine" mixed
    (fun h ->
      match du h with
      | Verdict.Sat s ->
          List.for_all
            (fun i ->
              let si = Lemmas.project_prefix h s i in
              let p = History.prefix h i in
              match
                Serialization.validate ~claim:Serialization.Du_opaque p si
              with
              | Ok () -> true
              | Error _ -> sat "prefix re-search" (du p))
            (History.response_indices h)
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* --- Lemma 4: live-set normalisation --- *)

let prop_lemma4 =
  qtest ~count:150 "Lemma 4: live-set-respecting serialization" mixed
    (fun h ->
      match du h with
      | Verdict.Sat s ->
          let s' = Lemmas.normalize_live_sets h s in
          Lemmas.respects_live_sets h s'
          && Serialization.validate ~claim:Serialization.Du_opaque h s' = Ok ()
      | Verdict.Unsat _ -> true
      | Verdict.Unknown _ -> QCheck2.assume_fail ())

(* --- Completions --- *)

let prop_completions =
  qtest ~count:150 "enumerated completions are completions" mixed (fun h ->
      let completions = Completion.enumerate ~limit:8 h in
      List.for_all
        (fun c ->
          History.is_t_complete c && Completion.is_completion c ~of_:h)
        completions)

(* --- Monitor agrees with the offline checker --- *)

let prop_monitor_offline =
  qtest ~count:100 "monitor = offline prefix scan" mixed (fun h ->
      let m = Monitor.create () in
      let outcome = Monitor.push_all m (History.to_list h) in
      let offline_first_bad =
        let lens = History.response_indices h in
        List.find_opt
          (fun i -> not (sat "p" (du (History.prefix h i))))
          lens
      in
      match outcome, offline_first_bad with
      | `Ok, None -> true
      | `Violation _, Some i -> Monitor.violation_index m = Some i
      | `Ok, Some _ | `Violation _, None -> false
      | `Budget _, _ -> QCheck2.assume_fail ())

(* The same agreement, hammered harder: 1500 iterations over a blend of
   random histories, fault-injected simulator runs (crashes, stalls,
   spurious aborts, omission) and duplicate-value recordings (TL2, MVCC and
   NOrec at [`Range 100] over 8 variables, and fault-injected TL2), so the
   revalidation fast path and its per-transaction table are exercised
   against genuinely incomplete streams — commit-pending zombies and
   invocations pending forever — and against streams where the conflict
   graph answers Ambiguous.  The outcome is compared after every event:
   [`Ok] exactly while no response prefix so far is non-du-opaque, with a
   running certificate the validator accepts, then the violation at that
   prefix's length.  Duplicate-value prefixes are judged
   by [Conflict_graph.check_or_fallback], the others by the bare search. *)

let prop_monitor_equiv_offline =
  let fault_params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = 3;
      ops_per_txn = 2;
      n_vars = 3;
    }
  in
  let faulted =
    QCheck2.Gen.map
      (fun seed ->
        let spec =
          Sim.Faults.sample
            ~n_threads:fault_params.Stm.Workload.n_threads
            ~horizon:(Sim.Faults.horizon fault_params)
            ~seed ()
        in
        (Sim.Faults.run_one ~check:false ~stm:"tl2" ~params:fault_params
           ~spec ~seed ())
          .Sim.Faults.history)
      QCheck2.Gen.(0 -- 1_000_000)
  in
  let graph_then_search h =
    Conflict_graph.check_or_fallback ?max_nodes:budget h
  in
  qtest ~count:1500
    "monitor = offline (random + fault-injected + duplicate values, 1500x)"
    QCheck2.Gen.(
      frequency
        [
          (1, map (fun h -> (h, du)) mixed);
          (1, map (fun h -> (h, du)) faulted);
          (1, map (fun h -> (h, graph_then_search)) (arb_dup_history ~txns:24));
        ])
    (fun (h, offline) ->
      let first_bad =
        List.find_opt
          (fun i -> not (sat "p" (offline (History.prefix h i))))
          (History.response_indices h)
      in
      let m = Monitor.create ?max_nodes:budget () in
      List.for_all
        (fun ev ->
          let outcome = Monitor.push m ev in
          let bad =
            match first_bad with
            | Some i -> Monitor.events_seen m >= i
            | None -> false
          in
          match (outcome, bad) with
          | `Ok, false -> (
              (* the running certificate stays a witness of the prefix *)
              (not (Event.is_res ev))
              ||
              match Monitor.certificate m with
              | Some c ->
                  Serialization.validate (Monitor.history m) c = Ok ()
              | None -> false)
          | `Violation _, true -> Monitor.violation_index m = first_bad
          | `Ok, true | `Violation _, false -> false
          | `Budget _, _ -> QCheck2.assume_fail ())
        (History.to_list h))

(* --- The linear checks agree with their pairwise definitions --- *)

(* The quadratic definitions that [History.is_t_sequential] and the
   real-time clause of [Serialization.validate] used to run, kept as
   oracles. *)
let t_sequential_pairwise h =
  let ts = History.txns h in
  List.for_all
    (fun k ->
      List.for_all
        (fun m -> k = m || History.rt_precedes h k m || History.rt_precedes h m k)
        ts)
    ts

let real_time_pairwise h order =
  let rec go = function
    | [] -> Ok ()
    | k :: rest -> (
        match List.find_opt (fun m -> History.rt_precedes h m k) rest with
        | Some m ->
            Error
              (Fmt.str
                 "real-time order violated: T%d precedes T%d in the history \
                  but follows it in the serialization"
                 m k)
        | None -> go rest)
  in
  go order

(* A certificate with decisions every completion allows (committed
   transactions commit, commit-pending ones either way, the rest abort)
   over [order]. *)
let certificate rng h order =
  let committed =
    List.filter
      (fun k ->
        match Txn.commit_choices (History.info h k) with
        | [ d ] -> d
        | _ -> Random.State.bool rng)
      order
  in
  Serialization.make ~order ~committed

let shuffle rng l =
  List.map (fun x -> (Random.State.bits rng, x)) l
  |> List.sort compare |> List.map snd

(* One adjacent pair swapped, or the whole order shuffled. *)
let perturbed rng order =
  if Random.State.bool rng then shuffle rng order
  else
    let n = List.length order in
    if n < 2 then order
    else
      let i = Random.State.int rng (n - 1) in
      let a = Array.of_list order in
      let x = a.(i) in
      a.(i) <- a.(i + 1);
      a.(i + 1) <- x;
      Array.to_list a

let with_rng = QCheck2.Gen.(pair mixed (0 -- 1_000_000))

let prop_t_sequential_linear =
  qtest ~count:500 "is_t_sequential = pairwise rt_precedes" with_rng
    (fun (h, seed) ->
      let rng = Random.State.make [| seed |] in
      let s =
        Serialization.to_history h
          (certificate rng h (shuffle rng (History.txns h)))
      in
      (* a prefix of a t-sequential history may end inside a transaction *)
      let cut = History.prefix s (Random.State.int rng (History.length s + 1)) in
      List.for_all
        (fun h -> History.is_t_sequential h = t_sequential_pairwise h)
        [ h; s; cut ]
      && History.is_t_sequential s)

let prop_real_time_linear =
  qtest ~count:500 "validate's real-time clause = pairwise definition"
    with_rng (fun (h, seed) ->
      let rng = Random.State.make [| seed |] in
      let c = certificate rng h (perturbed rng (History.txns h)) in
      List.for_all
        (fun claim ->
          match real_time_pairwise h c.Serialization.order with
          | Error _ as e -> Serialization.validate ~claim h c = e
          | Ok () ->
              Serialization.validate ~claim h c
              = Serialization.validate ~claim ~respect_rt:false h c)
        [ Serialization.Du_opaque; Serialization.Final_state ])

(* --- Structural properties of the generator and the text format --- *)

let prop_roundtrip =
  qtest ~count:1000 "text roundtrip is exact (1000x)" mixed (fun h ->
      match Parse.of_string (Parse.to_text h) with
      | Ok h' -> History.to_list h = History.to_list h'
      | Error _ -> false)

let prop_unique_writes_generator =
  qtest ~count:300 "generator honours unique_writes"
    (arb_history ~params:unique_params ())
    History.unique_writes

let prop_prefix_structure =
  qtest ~count:200 "prefixes compose" mixed (fun h ->
      let n = History.length h in
      let i = n / 2 and j = n / 3 in
      History.to_list (History.prefix (History.prefix h i) j)
      = History.to_list (History.prefix h j))

let prop_single_threaded_du_opaque =
  (* With one thread the snapshot-valued generator produces t-sequential
     read-committed executions: always du-opaque.  (With concurrency it is
     read-committed, which famously admits write skew — NOT serializable in
     general, so no such claim is made there.) *)
  qtest ~count:200 "single-threaded snapshot histories are du-opaque"
    (arb_history ~params:{ small with n_threads = 1 } ())
    (fun h -> sat "du" (du h))

let suite =
  [
    ( "properties",
      [
        prop_du_implies_opaque;
        prop_opaque_implies_fs;
        prop_du_prefix_closed;
        prop_opacity_prefix_closed;
        prop_invocation_extension;
        prop_chain_t_complete;
        prop_unique_writes_equiv;
        prop_graph_sound;
        prop_check_or_fallback_agrees;
        prop_rco_implies_du;
        prop_certificates_validate;
        prop_lemma1_unique_writes;
        prop_lemma1_fallback;
        prop_lemma4;
        prop_completions;
        prop_monitor_offline;
        prop_monitor_equiv_offline;
        prop_t_sequential_linear;
        prop_real_time_linear;
        prop_roundtrip;
        prop_unique_writes_generator;
        prop_prefix_structure;
        prop_single_threaded_du_opaque;
      ] );
  ]
