(* End-to-end bank audit, two ways.

   1. Under the deterministic simulator (genuine fine-grained interleaving,
      fully reproducible): record each STM's history, check du-opacity, and
      replay the certificate to the final committed state.
   2. On real OCaml 5 domains over Atomic memory: throughput statistics.
      (On a single-core machine domains interleave only at OS preemption
      granularity, so the safety-relevant overlap lives in part 1.)

     dune exec examples/bank_audit.exe *)

open Tm_safety

let n_accounts = 8

let params =
  {
    Stm.Workload.default with
    n_threads = 4;
    txns_per_thread = 30;
    ops_per_txn = 4;
    n_vars = n_accounts;
    read_ratio = 0.5;
    zipf_theta = 0.6;
  }

(* Maximum number of simultaneously live transactions in the history. *)
let max_overlap h =
  let live = Hashtbl.create 16 in
  let best = ref 0 in
  List.iteri
    (fun i ev ->
      let k = Event.tx_of ev in
      let txn = History.info h k in
      if i = txn.Txn.first_index then Hashtbl.replace live k ();
      best := max !best (Hashtbl.length live);
      if i = txn.Txn.last_index then Hashtbl.remove live k)
    (History.to_list h);
  !best

let audit_sim stm =
  let r = Sim.Runner.run ~stm ~params ~seed:99 () in
  let s = r.Sim.Runner.stats in
  let h = r.Sim.Runner.history in
  let du = Conflict_graph.check_or_fallback ~max_nodes:5_000_000 h in
  Fmt.pr
    "%-12s commits %4d  aborts %3d (+%d at tryC)  events %5d  overlap %2d  \
     du-opaque: %s@."
    stm s.Stm.Harness.commits s.Stm.Harness.op_aborts
    s.Stm.Harness.commit_aborts (History.length h) (max_overlap h)
    (match du with
    | Verdict.Sat _ -> "yes"
    | Verdict.Unsat why -> "NO — " ^ why
    | Verdict.Unknown why -> "? — " ^ why);
  match du with
  | Verdict.Sat cert ->
      let serial = Serialization.to_history h cert in
      let state = Array.make n_accounts 0 in
      Semantics.final_state serial state;
      Fmt.pr "             final committed state %a (replayed from the \
              certificate)@."
        Fmt.(brackets (array ~sep:semi int))
        state
  | Verdict.Unsat _ | Verdict.Unknown _ -> ()

let throughput stm =
  let params = { params with Stm.Workload.txns_per_thread = 2000 } in
  let r =
    Stm.Parallel.run ~algorithm:(Stm.Registry.find_exn stm) ~params ~seed:1 ()
  in
  Fmt.pr "%-12s %8.0f commits/s  (%d commits, %d aborts, %.3fs)@." stm
    (Stm.Parallel.throughput r)
    r.Stm.Parallel.stats.Stm.Harness.commits
    (r.Stm.Parallel.stats.Stm.Harness.op_aborts
    + r.Stm.Parallel.stats.Stm.Harness.commit_aborts)
    r.Stm.Parallel.elapsed_s

let () =
  Fmt.pr "== Safety audit under the simulator (%a) ==@.@." Stm.Workload.pp_params
    params;
  List.iter audit_sim [ "tl2"; "norec"; "tml"; "2pl"; "global-lock" ];
  Fmt.pr "@.(controls, for contrast)@.";
  List.iter audit_sim [ "pessimistic"; "dirty-read"; "eager" ];
  Fmt.pr "@.== Throughput on %d domains (Atomic memory, unrecorded) ==@.@."
    params.Stm.Workload.n_threads;
  List.iter throughput
    [ "tl2"; "norec"; "tml"; "2pl"; "global-lock"; "pessimistic" ]
