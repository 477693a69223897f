(* Shared assertions and Alcotest testables. *)

open Tm_safety

let history = Alcotest.testable History.pp_inline History.equivalent

let event = Alcotest.testable Event.pp Event.equal

let check_sat name verdict =
  match verdict with
  | Verdict.Sat _ -> ()
  | Verdict.Unsat why -> Alcotest.failf "%s: expected Sat, got Unsat (%s)" name why
  | Verdict.Unknown why ->
      Alcotest.failf "%s: expected Sat, got Unknown (%s)" name why

let check_unsat name verdict =
  match verdict with
  | Verdict.Unsat _ -> ()
  | Verdict.Sat s ->
      Alcotest.failf "%s: expected Unsat, got Sat (%a)" name Serialization.pp s
  | Verdict.Unknown why ->
      Alcotest.failf "%s: expected Unsat, got Unknown (%s)" name why

let check_verdict name expected verdict =
  if expected then check_sat name verdict else check_unsat name verdict

(* Every Sat must carry a certificate the independent validator accepts. *)
let check_certified ~claim name h verdict =
  match verdict with
  | Verdict.Sat s -> (
      match Serialization.validate ~claim h s with
      | Ok () -> ()
      | Error why ->
          Alcotest.failf "%s: certificate rejected by validator: %s" name why)
  | Verdict.Unsat _ | Verdict.Unknown _ -> ()

let test name f = Alcotest.test_case name `Quick f

let slow name f = Alcotest.test_case name `Slow f

(* QCheck bridge: a history generator driven by Gen.params. *)
let arb_history ?(params = Gen.default) () =
  QCheck2.Gen.map (fun seed -> Gen.run_seed params seed) QCheck2.Gen.int

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* A duplicate-value recording: STM retries rewrite the same value
   ([`Range 100] over 8 variables), so the conflict graph answers
   [Ambiguous] and the monitor's revalidation and search do the work.
   [faults] injects crashes, stalls and spurious aborts. *)
let dup_history ?(faults = false) ~stm ~txns seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = (txns + 2) / 3;
      ops_per_txn = 3;
      n_vars = 8;
      values = `Range 100;
    }
  in
  if faults then
    let spec =
      Sim.Faults.sample ~n_threads:3 ~horizon:(Sim.Faults.horizon params) ~seed
        ()
    in
    (Sim.Faults.run_one ~check:false ~stm ~params ~spec ~seed ())
      .Sim.Faults.history
  else (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history

(* The duplicate-value sources: TL2, MVCC and NOrec recordings, and
   fault-injected TL2, of [txns] transactions each. *)
let arb_dup_history ~txns =
  QCheck2.Gen.map2
    (fun kind seed ->
      match kind with
      | 0 -> dup_history ~stm:"tl2" ~txns seed
      | 1 -> dup_history ~stm:"mvcc" ~txns seed
      | 2 -> dup_history ~stm:"norec" ~txns seed
      | _ -> dup_history ~faults:true ~stm:"tl2" ~txns seed)
    QCheck2.Gen.(0 -- 3)
    QCheck2.Gen.(0 -- 1_000_000)
