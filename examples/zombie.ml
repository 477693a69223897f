(* The paper's Section 1 motivation, live: a "zombie" transaction observes
   an inconsistent intermediate state and the application logic blows up —
   unless the TM is (du-)opaque.

   Two accounts hold 100 in total; transfer transactions preserve the
   invariant.  An auditor transaction reads both accounts and computes
   1000 / (total - 99): under an opaque TM total is always 100 and the
   division is safe; under the simplified pessimistic STM (writers update
   in place, readers unvalidated — the paper's Section 5 example) the
   auditor can read total = 99 mid-transfer and divide by zero.

     dune exec examples/zombie.exe *)

open Tm_safety

let n_vars = 2
let acc_a = 0
let acc_b = 1

let run_with stm_name =
  let (module A : Stm.Intf.ALGORITHM) = Stm.Registry.find_exn stm_name in
  let module T = A (Sim.Mem) in
  let instance = Stm.Intf.instantiate (module T) ~n_vars in
  let (module I : Stm.Intf.INSTANCE) = instance in
  let log = ref [] in
  let emit ev = log := ev :: !log in
  let ids = ref 1 in
  let next_id () =
    let id = !ids in
    incr ids;
    id
  in
  let crashes = ref 0 in
  let audits = ref 0 in
  (* Run [body] as one transaction, with recording; retries on abort. *)
  let rec transaction body =
    let id = next_id () in
    let txn = I.begin_txn () in
    let read x =
      emit (Event.Inv (id, Event.Read x));
      match I.read txn x with
      | v ->
          emit (Event.Res (id, Event.Read_ok v));
          v
      | exception Stm.Intf.Abort ->
          emit (Event.Res (id, Event.Aborted));
          raise Stm.Intf.Abort
    in
    let write x v =
      emit (Event.Inv (id, Event.Write (x, v)));
      match I.write txn x v with
      | () -> emit (Event.Res (id, Event.Write_ok))
      | exception Stm.Intf.Abort ->
          emit (Event.Res (id, Event.Aborted));
          raise Stm.Intf.Abort
    in
    match body ~read ~write with
    | result ->
        emit (Event.Inv (id, Event.Try_commit));
        if I.commit txn then begin
          emit (Event.Res (id, Event.Committed));
          result
        end
        else begin
          emit (Event.Res (id, Event.Aborted));
          transaction body
        end
    | exception Stm.Intf.Abort -> transaction body
  in
  (* Initialise: 100 = 60 + 40. *)
  let init () =
    transaction (fun ~read:_ ~write ->
        write acc_a 60;
        write acc_b 40)
  in
  let transfer amount () =
    transaction (fun ~read ~write ->
        let a = read acc_a in
        let b = read acc_b in
        write acc_a (a - amount);
        write acc_b (b + amount))
  in
  let audit () =
    transaction (fun ~read ~write:_ ->
        incr audits;
        let total = read acc_a + read acc_b in
        (* The fatal application step: safe iff the snapshot is consistent
           (total = 100 after init).  1000 / (total - 99) divides by zero
           exactly on the torn snapshot total = 99. *)
        match 1000 / (total - 99) with
        | _ -> ()
        | exception Division_by_zero -> incr crashes)
  in
  let fibers =
    [
      (fun () ->
        init ();
        for _ = 1 to 30 do
          transfer 1 ()
        done);
      (fun () ->
        for _ = 1 to 30 do
          audit ()
        done);
    ]
  in
  Sim.Sched.run_seeded ~seed:2024 fibers;
  let history = History.of_events_exn (List.rev !log) in
  (stm_name, !audits, !crashes, history)

let report (name, audits, crashes, history) =
  let du = Conflict_graph.check_or_fallback ~max_nodes:2_000_000 history in
  Fmt.pr "%-12s audits: %3d   zombie crashes: %2d   du-opaque: %s@." name
    audits crashes
    (match du with
    | Verdict.Sat _ -> "yes"
    | Verdict.Unsat why -> "NO — " ^ why
    | Verdict.Unknown why -> "? " ^ why)

let () =
  Fmt.pr
    "Auditor computes 1000/(A+B-99); transfers keep A+B = 100 invariant.@.@.";
  report (run_with "tl2");
  report (run_with "norec");
  report (run_with "2pl");
  report (run_with "pessimistic");
  Fmt.pr
    "@.The pessimistic STM (writers in place, readers unvalidated) lets \
     the auditor observe A already debited but B not yet credited: the \
     division faults, and the recorded history fails du-opacity — the \
     checker and the crash point at the same anomaly.@."
