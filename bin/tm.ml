(* Command-line front end.

     tm check history.txt --property du --timeline
     tm gen --txns 8 --seed 3 | tm check - --property all
     tm run --stm tl2 --threads 3 --check
     tm monitor history.txt
     tm serve --unix /tmp/tm.sock --domains 4
     tm submit history.txt --unix /tmp/tm.sock
     tm figures

   Histories use the textual format of {!Tm_safety.Parse} (see
   [tm check --help]) or the binary format of {!Tm_safety.Service.Codec}
   (auto-detected by its magic). *)

open Tm_safety
open Cmdliner

(* --- common ------------------------------------------------------------ *)

let read_input = function
  | "-" ->
      let buf = Buffer.create 4096 in
      (try
         while true do
           Buffer.add_channel buf stdin 4096
         done
       with End_of_file -> ());
      Buffer.contents buf
  | path ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      s

let history_of_input input =
  let text = read_input input in
  if Service.Codec.looks_binary text then
    match Service.Codec.history_of_string text with
    | Ok h -> Ok h
    | Error msg -> Error (`Msg ("cannot decode binary history: " ^ msg))
  else
    match Parse.of_string text with
    | Ok h -> Ok h
    | Error msg -> Error (`Msg ("cannot parse history: " ^ msg))

let input_arg =
  let doc = "History file in the tm text format; $(b,-) reads stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)

let max_nodes_arg =
  let doc =
    "Search-node budget per check; exhausted budgets report 'unknown' \
     (exit 2) instead of running unbounded."
  in
  Arg.(value & opt (some int) None & info [ "max-nodes" ] ~doc)

let timeline_arg =
  let doc = "Print the history as an ASCII timeline first." in
  Arg.(value & flag & info [ "timeline"; "t" ] ~doc)

(* --- tm check ----------------------------------------------------------- *)

type property =
  | P_du
  | P_last_use
  | P_opacity
  | P_final_state
  | P_tms2
  | P_rco
  | P_ser
  | P_strict_ser
  | P_si
  | P_all

let property_conv =
  Arg.enum
    [
      ("du", P_du);
      ("last-use", P_last_use);
      ("opacity", P_opacity);
      ("final-state", P_final_state);
      ("tms2", P_tms2);
      ("rco", P_rco);
      ("serializable", P_ser);
      ("strict-serializable", P_strict_ser);
      ("si", P_si);
      ("all", P_all);
    ]

(* du-opacity is judged by the conflict graph, falling back to the exact
   search on [Ambiguous]. *)
let du_check =
  ( "du-opacity",
    fun ?max_nodes h -> Conflict_graph.check_or_fallback ?max_nodes h )

let last_use_check =
  ( "last-use opacity",
    fun ?max_nodes h ->
      Last_use_opacity.to_verdict (Last_use_opacity.check ?max_nodes h) )

let rec checks_of_property = function
  | P_du -> [ du_check ]
  | P_last_use -> [ last_use_check ]
  | P_opacity -> [ ("opacity", fun ?max_nodes h -> Opacity.check ?max_nodes h) ]
  | P_final_state ->
      [ ("final-state opacity", fun ?max_nodes h -> Final_state.check ?max_nodes h) ]
  | P_tms2 -> [ ("TMS2", fun ?max_nodes h -> Tms2.check ?max_nodes h) ]
  | P_rco ->
      [ ("read-commit order (GHS'08)", fun ?max_nodes h -> Rco.check ?max_nodes h) ]
  | P_ser ->
      [ ("serializability", fun ?max_nodes h -> Serializable.check ?max_nodes h) ]
  | P_strict_ser ->
      [
        ( "strict serializability",
          fun ?max_nodes h -> Serializable.check_strict ?max_nodes h );
      ]
  | P_si ->
      [
        ( "snapshot isolation",
          fun ?max_nodes h -> Snapshot_isolation.check ?max_nodes h );
      ]
  | P_all ->
      List.concat_map checks_of_property
        [
          P_du; P_last_use; P_opacity; P_final_state; P_tms2; P_rco; P_ser;
          P_strict_ser; P_si;
        ]

(* [--criterion] narrows a check run to the du vs last-use comparison the
   verify/bench surfaces report on; it overrides [--property] when given. *)
type criterion = C_du | C_lastuse | C_both

let criterion_conv =
  Arg.enum [ ("du", C_du); ("last-use", C_lastuse); ("both", C_both) ]

let checks_of_criterion = function
  | C_du -> [ du_check ]
  | C_lastuse -> [ last_use_check ]
  | C_both -> [ du_check; last_use_check ]

let check_cmd =
  let property_arg =
    let doc =
      "Property to check: $(docv) ∈ du|opacity|final-state|tms2|rco|\
       serializable|strict-serializable|si|all.  [du] is judged by the \
       linear-time conflict graph, falling back to the exact search only on \
       histories the graph cannot decide."
    in
    Arg.(value & opt property_conv P_du & info [ "property"; "p" ] ~docv:"PROP" ~doc)
  in
  let certificate_arg =
    let doc = "Print the serialization certificate on success." in
    Arg.(value & flag & info [ "certificate"; "c" ] ~doc)
  in
  let shrink_arg =
    let doc =
      "On violation, shrink the history to a locally minimal violating core \
       and print it as a timeline."
    in
    Arg.(value & flag & info [ "shrink"; "s" ] ~doc)
  in
  let criterion_arg =
    let doc =
      "Safety criterion to judge: $(docv) ∈ du|last-use|both.  Overrides \
       $(b,--property); [both] prints one verdict line per criterion, \
       which is how early-release histories show the two separate."
    in
    Arg.(
      value & opt (some criterion_conv) None
      & info [ "criterion" ] ~docv:"CRIT" ~doc)
  in
  let dot_arg =
    let doc =
      "On a du-opacity violation, write a Graphviz rendering of the \
       (shrunk, when $(b,--shrink) is given) violating core to $(docv), \
       with the conflict-graph counterexample cycle highlighted."
    in
    Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)
  in
  let run input property criterion max_nodes timeline certificate
      shrink dot =
    match history_of_input input with
    | Error e -> e
    | Ok h ->
        if timeline then Fmt.pr "%s@." (Pretty.timeline h);
        let worst = ref 0 in
        let emit_dot core =
          match dot with
          | None -> ()
          | Some path ->
              let cycle = Conflict_graph.counterexample_cycle core in
              let oc = open_out path in
              output_string oc (Dot.of_history ?cycle core);
              close_out oc;
              Fmt.pr "  dot graph%s: %s@."
                (match cycle with
                | Some c ->
                    Fmt.str " (cycle %a)"
                      Fmt.(list ~sep:(any "->") (fmt "T%d"))
                      c
                | None -> "")
                path
        in
        let checks =
          match criterion with
          | Some c -> checks_of_criterion c
          | None -> checks_of_property property
        in
        List.iter
          (fun (name, check) ->
            match check ?max_nodes h with
            | Verdict.Sat s ->
                if certificate then
                  Fmt.pr "%-28s yes  [%a]@." name Serialization.pp s
                else Fmt.pr "%-28s yes@." name
            | Verdict.Unsat why -> (
                worst := max !worst 1;
                Fmt.pr "%-28s NO   (%s)@." name why;
                match
                  if shrink then
                    Shrink.minimal_violation
                      ~check:(fun h -> check ?max_nodes h)
                      h
                  else None
                with
                | Some core ->
                    Fmt.pr "  minimal violating core (%d events):@.%s"
                      (History.length core) (Pretty.timeline core);
                    Fmt.pr "  text: %s@." (Parse.to_text core);
                    emit_dot core
                | None -> emit_dot h)
            | Verdict.Unknown why ->
                worst := max !worst 2;
                Fmt.pr "%-28s ???  (%s)@." name why)
          checks;
        if !worst = 0 then `Ok () else `Error_code !worst
  in
  let term =
    Term.(
      const run $ input_arg $ property_arg $ criterion_arg $ max_nodes_arg
      $ timeline_arg $ certificate_arg $ shrink_arg $ dot_arg)
  in
  let handle = function
    | `Ok () -> 0
    | `Error_code n -> n
    | `Msg m ->
        Fmt.epr "tm check: %s@." m;
        3
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Check a history against a TM consistency property")
    Term.(const handle $ term)

(* --- tm gen ------------------------------------------------------------- *)

let gen_cmd =
  let txns = Arg.(value & opt int 8 & info [ "txns" ] ~doc:"Transactions.") in
  let vars = Arg.(value & opt int 3 & info [ "vars" ] ~doc:"Variables.") in
  let threads =
    Arg.(value & opt int 3 & info [ "threads" ] ~doc:"Interleaving degree.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"PRNG seed.") in
  let count =
    Arg.(value & opt int 1 & info [ "count" ] ~doc:"How many histories (one per line).")
  in
  let unique =
    Arg.(value & flag & info [ "unique-writes" ] ~doc:"Unique-writes mode (Theorem 11 premise).")
  in
  let random_values =
    Arg.(
      value & flag
      & info [ "random-values" ]
          ~doc:"Uniform random read results (mostly broken histories) instead \
                of snapshot semantics.")
  in
  let run txns vars threads seed count unique random_values =
    let params =
      {
        Gen.default with
        n_txns = txns;
        n_vars = vars;
        n_threads = threads;
        unique_writes = unique;
        mode = (if random_values then `Random_values else `Snapshot_values);
      }
    in
    for i = 0 to count - 1 do
      let h = Gen.run_seed params (seed + i) in
      print_endline (Parse.to_text h)
    done;
    0
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate random well-formed histories")
    Term.(const run $ txns $ vars $ threads $ seed $ count $ unique $ random_values)

(* --- tm run ------------------------------------------------------------- *)

let run_cmd =
  let stm =
    let names = List.map fst Stm.Registry.algorithms in
    let stm_conv = Arg.enum (List.map (fun n -> (n, n)) names) in
    Arg.(value & opt stm_conv "tl2" & info [ "stm" ] ~doc:"STM algorithm.")
  in
  let threads = Arg.(value & opt int 3 & info [ "threads" ] ~doc:"Threads.") in
  let txns =
    Arg.(value & opt int 5 & info [ "txns" ] ~doc:"Transactions per thread.")
  in
  let ops = Arg.(value & opt int 3 & info [ "ops" ] ~doc:"Operations per transaction.") in
  let vars = Arg.(value & opt int 4 & info [ "vars" ] ~doc:"Variables.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Seed.") in
  let zipf =
    Arg.(value & opt float 0.0 & info [ "zipf" ] ~doc:"Zipf skew (0 = uniform).")
  in
  let check =
    Arg.(value & flag & info [ "check" ] ~doc:"Check the recorded history for du-opacity.")
  in
  let run stm threads txns ops vars seed zipf check timeline =
    let params =
      {
        Stm.Workload.default with
        n_threads = threads;
        txns_per_thread = txns;
        ops_per_txn = ops;
        n_vars = vars;
        zipf_theta = zipf;
      }
    in
    let r = Sim.Runner.run ~stm ~params ~seed () in
    let h = r.Sim.Runner.history in
    let s = r.Sim.Runner.stats in
    if timeline then Fmt.pr "%s@." (Pretty.timeline h)
    else print_endline (Parse.to_text h);
    Fmt.epr "# %s: %d commits, %d op-aborts, %d tryC-aborts, %d events@." stm
      s.Stm.Harness.commits s.Stm.Harness.op_aborts s.Stm.Harness.commit_aborts
      (History.length h);
    if not check then 0
    else
      match Conflict_graph.check_or_fallback ~max_nodes:5_000_000 h with
      | Verdict.Sat _ ->
          Fmt.epr "# du-opaque: yes@.";
          0
      | Verdict.Unsat why ->
          Fmt.epr "# du-opaque: NO — %s@." why;
          1
      | Verdict.Unknown why ->
          Fmt.epr "# du-opaque: unknown — %s@." why;
          2
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run an STM workload under the deterministic simulator")
    Term.(
      const run $ stm $ threads $ txns $ ops $ vars $ seed $ zipf $ check
      $ timeline_arg)

(* --- tm chaos ------------------------------------------------------------ *)

let chaos_cmd =
  let stm =
    let names = List.map fst Stm.Registry.algorithms in
    let stm_conv = Arg.enum (List.map (fun n -> (n, n)) names) in
    Arg.(value & opt stm_conv "tl2" & info [ "stm" ] ~doc:"STM algorithm.")
  in
  let seeds =
    Arg.(
      value & opt int 20
      & info [ "seeds" ] ~doc:"Number of seeded campaigns (seeds 1..N).")
  in
  let faults_arg =
    let kind_conv =
      Arg.enum
        (List.map
           (fun k -> (Stm.Faults.kind_to_string k, k))
           Stm.Faults.all_kinds)
    in
    let doc =
      "Fault kinds the sampled plans may contain: $(docv) ⊆ \
       crash,stall,abort,omission."
    in
    Arg.(
      value
      & opt (list kind_conv) [ `Crash; `Stall; `Spurious ]
      & info [ "faults" ] ~docv:"KINDS" ~doc)
  in
  let threads = Arg.(value & opt int 3 & info [ "threads" ] ~doc:"Threads.") in
  let txns =
    Arg.(value & opt int 5 & info [ "txns" ] ~doc:"Transactions per thread.")
  in
  let ops =
    Arg.(value & opt int 3 & info [ "ops" ] ~doc:"Operations per transaction.")
  in
  let vars = Arg.(value & opt int 4 & info [ "vars" ] ~doc:"Variables.") in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Stream every produced history through the du-opacity monitor \
             (verdict covers the history and all of its prefixes).")
  in
  let timelines =
    Arg.(
      value & flag
      & info [ "timelines" ] ~doc:"Print each produced history as a timeline.")
  in
  let service_arg =
    let doc =
      "Network-layer chaos instead of STM-internal faults: stream \
       fault-injected histories through a real durable tm serve instance \
       behind a fault-injecting proxy (torn/dropped/duplicated/delayed/\
       reordered frames, disconnects, and periodic server kill+restart), \
       and arbitrate every round: recovery with the offline monitor's \
       verdict, a documented clean error — never a wrong verdict or a hang."
    in
    Arg.(value & flag & info [ "service" ] ~doc)
  in
  let net_faults_arg =
    let kind_conv =
      Arg.enum
        (List.map
           (fun k -> (Service.Proxy.kind_to_string k, k))
           Service.Proxy.all_kinds)
    in
    let doc =
      "With --service: frame fault kinds the sampled plans may contain \
       ($(docv) ⊆ torn,drop,dup,delay,reorder,disconnect)."
    in
    Arg.(
      value
      & opt (list kind_conv) Service.Proxy.all_kinds
      & info [ "net-faults" ] ~docv:"KINDS" ~doc)
  in
  let points_arg =
    let doc = "With --service: fault points per sampled plan." in
    Arg.(value & opt int 2 & info [ "points" ] ~docv:"N" ~doc)
  in
  let kill_every_arg =
    let doc =
      "With --service: crash and restart the server mid-stream every k-th \
       seed (0 = never)."
    in
    Arg.(value & opt int 3 & info [ "kill-every" ] ~docv:"K" ~doc)
  in
  let deadline_arg =
    let doc = "With --service: per-round hang watchdog, seconds." in
    Arg.(value & opt float 30. & info [ "deadline" ] ~docv:"SECONDS" ~doc)
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose" ] ~doc:"With --service: log proxy and server events.")
  in
  let run_service stm seeds net_kinds points kill_every deadline verbose
      max_nodes =
    let cfg =
      Service_chaos.config ~source:(`Faults stm)
        ~seeds:(List.init seeds (fun i -> i + 1))
        ~kinds:net_kinds ~points ~kill_every
        ~max_nodes:(Option.value max_nodes ~default:2_000_000)
        ~deadline
        ~log:(if verbose then fun m -> Fmt.epr "# %s@." m else ignore)
        ()
    in
    let report = Service_chaos.run cfg in
    Fmt.pr "# chaos --service: source=faults:%s, net-faults=%s, %d seeds@."
      stm
      (String.concat ","
         (List.map Service.Proxy.kind_to_string net_kinds))
      seeds;
    Fmt.pr "%a@." Service_chaos.pp_report report;
    if report.Service_chaos.wrong > 0 || report.Service_chaos.hangs > 0 then 1
    else 0
  in
  let run stm seeds kinds threads txns ops vars check timelines max_nodes
      service net_kinds points kill_every deadline verbose =
    if service then
      run_service stm seeds net_kinds points kill_every deadline verbose
        max_nodes
    else
    let params =
      {
        Stm.Workload.default with
        n_threads = threads;
        txns_per_thread = txns;
        ops_per_txn = ops;
        n_vars = vars;
      }
    in
    let max_nodes = Option.value max_nodes ~default:2_000_000 in
    let reports =
      Sim.Faults.campaign ~max_nodes ~check ~kinds ~stm ~params
        ~seeds:(List.init seeds (fun i -> i + 1))
        ()
    in
    Fmt.pr "# chaos: %s, %a, faults=%s@." stm Stm.Workload.pp_params params
      (String.concat "," (List.map Stm.Faults.kind_to_string kinds));
    Fmt.pr "%4s  %-28s %6s %5s %8s %5s  %s@." "seed" "plan" "events" "txns"
      "pending" "fate" "verdict";
    let ok = ref 0 and violations = ref 0 and budgets = ref 0 in
    let with_pending = ref 0 and incomplete = ref 0 in
    let responses = ref 0 and hits = ref 0 in
    let searches = ref 0 and nodes = ref 0 in
    List.iter
      (fun (r : Sim.Faults.report) ->
        if r.Sim.Faults.commit_pending > 0 then incr with_pending;
        if r.Sim.Faults.incomplete > 0 then incr incomplete;
        (match r.Sim.Faults.monitor with
        | Some m ->
            responses := !responses + m.Sim.Faults.responses;
            hits := !hits + m.Sim.Faults.fastpath_hits;
            searches := !searches + m.Sim.Faults.searches;
            nodes := !nodes + m.Sim.Faults.nodes
        | None -> ());
        let verdict =
          match r.Sim.Faults.outcome with
          | None -> "-"
          | Some `Ok ->
              incr ok;
              "ok"
          | Some (`Violation why) ->
              incr violations;
              Fmt.str "VIOLATION (%s)" why
          | Some (`Budget why) ->
              incr budgets;
              Fmt.str "unknown (%s)" why
        in
        let s = r.Sim.Faults.stats in
        Fmt.pr "%4d  %-28s %6d %5d %8d %5s  %s@." r.Sim.Faults.seed
          (Fmt.str "%a" Stm.Faults.pp_spec r.Sim.Faults.spec)
          (History.length r.Sim.Faults.history)
          (List.length (History.txns r.Sim.Faults.history))
          r.Sim.Faults.commit_pending
          (Fmt.str "%dc%dx" s.Stm.Harness.crashes s.Stm.Harness.stalls)
          verdict;
        if timelines then
          Fmt.pr "%s@." (Pretty.timeline r.Sim.Faults.history))
      reports;
    Fmt.pr
      "# %d runs: %d incomplete histories, %d with a pending tryCommit@."
      (List.length reports) !incomplete !with_pending;
    if check then begin
      Fmt.pr "# verdicts: %d ok, %d violations, %d budget-exhausted@." !ok
        !violations !budgets;
      if !responses > 0 then
        Fmt.pr
          "# monitor fast path: %d/%d responses revalidated in place \
           (%.1f%%), %d searches, %d nodes@."
          !hits !responses
          (100. *. float_of_int !hits /. float_of_int !responses)
          !searches !nodes
    end;
    if !violations > 0 then 1 else if !budgets > 0 then 2 else 0
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run an STM under a deterministic fault campaign (crashed threads, \
          stalled commits, spurious aborts, truncated traces) and check the \
          incomplete histories it produces.  With --service, run \
          network-layer chaos against a live durable tm serve instance \
          instead.")
    Term.(
      const run $ stm $ seeds $ faults_arg $ threads $ txns $ ops $ vars
      $ check $ timelines $ max_nodes_arg $ service_arg $ net_faults_arg
      $ points_arg $ kill_every_arg $ deadline_arg $ verbose_arg)

(* --- tm soak ------------------------------------------------------------- *)

let soak_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Base PRNG seed; iteration $(i,i) uses seed + i.") in
  let iters =
    Arg.(
      value & opt (some int) None
      & info [ "iters" ]
          ~doc:"Stop after $(docv) iterations (default 200 when --seconds is \
                not given).")
  in
  let seconds =
    Arg.(
      value & opt (some float) None
      & info [ "seconds" ] ~doc:"Stop after $(docv) seconds of wall clock.")
  in
  let jobs =
    Arg.(value & opt int 1 & info [ "jobs" ] ~doc:"Worker domains in the soak pool.")
  in
  let sources =
    let doc =
      "Comma-separated history sources, cycled per iteration: $(b,gen) \
       (random histories), an STM name (recorded executions, e.g. \
       $(b,tl2),$(b,norec),$(b,pessimistic)), or $(b,faults-)$(i,STM) \
       (fault-injected campaigns).  Default: gen,tl2,gen,norec,faults-tl2,\
       gen,pessimistic,faults-norec."
    in
    Arg.(value & opt (some string) None & info [ "sources" ] ~docv:"TAGS" ~doc)
  in
  let serve =
    Arg.(
      value & flag
      & info [ "serve" ]
          ~doc:"Also round-trip every history through a loopback tm serve \
                instance (started in-process on a private Unix socket).")
  in
  let corpus =
    Arg.(
      value & opt string "corpus/soak"
      & info [ "corpus" ] ~docv:"DIR"
          ~doc:"Persist shrunk discrepancy repros under $(docv).")
  in
  let no_corpus =
    Arg.(value & flag & info [ "no-corpus" ] ~doc:"Do not persist repro files.")
  in
  let json =
    Arg.(
      value & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Write the JSON report to $(docv) ($(b,-) = stdout).")
  in
  let quiet =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress per-discrepancy progress logs.")
  in
  let run seed iters seconds jobs sources serve corpus no_corpus json
      max_nodes quiet =
    let sources =
      match sources with
      | None -> Ok None
      | Some s ->
          let tags = String.split_on_char ',' s |> List.filter (( <> ) "") in
          let rec go acc = function
            | [] -> Ok (Some (List.rev acc))
            | t :: rest -> (
                match Oracle.source_of_tag (String.trim t) with
                | Ok src -> go (src :: acc) rest
                | Error e -> Error e)
          in
          go [] tags
    in
    match sources with
    | Error e ->
        Fmt.epr "tm soak: %s@." e;
        3
    | Ok sources ->
        let server =
          if not serve then None
          else
            let path =
              Filename.concat (Filename.get_temp_dir_name ())
                (Fmt.str "tm-soak-%d.sock" (Unix.getpid ()))
            in
            let cfg =
              Service.Server.config ~domains:(max 1 jobs) ?max_nodes
                (`Unix path)
            in
            Some (Service.Server.start cfg)
        in
        let log = if quiet then ignore else fun m -> Fmt.epr "%s@." m in
        let cfg =
          Oracle.config ~base_seed:seed ?iters ?seconds ~jobs ?max_nodes
            ?sources
            ?serve:(Option.map Service.Server.bound_addr server)
            ?corpus_dir:(if no_corpus then None else Some corpus)
            ~log ()
        in
        let r = Oracle.run cfg in
        Option.iter (fun s -> Service.Server.stop s) server;
        Fmt.pr
          "# soak: %d iterations, %d events, %.1f s wall, %d unknown, %d \
           closure gap(s), %d job(s), seed %d@."
          r.Oracle.r_iterations r.Oracle.r_events r.Oracle.r_wall_s
          r.Oracle.r_unknowns r.Oracle.r_closure_gaps jobs seed;
        List.iter
          (fun (p : Oracle.path_stat) ->
            Fmt.pr "#   %-8s %10.0f events/s  (%d events, %.2f s)@."
              p.Oracle.p_path
              (if p.Oracle.p_seconds <= 0. then 0.
               else float_of_int p.Oracle.p_events /. p.Oracle.p_seconds)
              p.Oracle.p_events p.Oracle.p_seconds)
          r.Oracle.r_paths;
        List.iter
          (fun (d : Oracle.discrepancy) ->
            Fmt.pr
              "DISCREPANCY iter %d (%s, seed %d), shrunk %d -> %d events:@."
              d.Oracle.d_iter d.Oracle.d_source d.Oracle.d_seed
              (History.length d.Oracle.d_history)
              (History.length d.Oracle.d_shrunk);
            List.iter
              (fun f -> Fmt.pr "  %a@." Oracle.pp_finding f)
              d.Oracle.d_findings;
            Fmt.pr "%s@." (Pretty.timeline d.Oracle.d_shrunk);
            Fmt.pr "  text: %s@." (Parse.to_text d.Oracle.d_shrunk))
          r.Oracle.r_discrepancies;
        List.iter
          (fun p -> Fmt.pr "# repro written: %s@." p)
          r.Oracle.r_corpus_written;
        (match json with
        | None -> ()
        | Some "-" -> print_string (Oracle.report_json cfg r)
        | Some file ->
            let oc = open_out file in
            output_string oc (Oracle.report_json cfg r);
            close_out oc);
        Fmt.pr "# discrepancies: %d@." (List.length r.Oracle.r_discrepancies);
        if r.Oracle.r_discrepancies <> [] then 1 else 0
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Differential soak: drive random, recorded and fault-injected \
          histories through every du-opacity checker path in lockstep \
          (batch, fast, incremental, online monitor, optional loopback \
          service), classify any divergence, auto-shrink it while the \
          paths still disagree, and persist a deterministic repro into \
          the regression corpus")
    Term.(
      const run $ seed $ iters $ seconds $ jobs $ sources $ serve $ corpus
      $ no_corpus $ json $ max_nodes_arg $ quiet)

(* --- tm monitor --------------------------------------------------------- *)

let monitor_cmd =
  let run input max_nodes =
    match history_of_input input with
    | Error (`Msg m) ->
        Fmt.epr "tm monitor: %s@." m;
        3
    | Ok h -> (
        let m = Monitor.create ?max_nodes () in
        let report_fastpath () =
          let responses = Monitor.responses_seen m in
          let hits = Monitor.fastpath_hits m in
          if responses > 0 then
            Fmt.pr
              "fast path: %d/%d responses revalidated in place (%.1f%%), %d \
               searches, %d nodes@."
              hits responses
              (100. *. float_of_int hits /. float_of_int responses)
              (Monitor.searches_run m) (Monitor.nodes_total m)
        in
        match Monitor.push_all m (History.to_list h) with
        | `Ok ->
            Fmt.pr "ok: every prefix (%d events) is du-opaque@."
              (Monitor.events_seen m);
            report_fastpath ();
            0
        | `Violation why ->
            Fmt.pr "VIOLATION: %s@." why;
            (match Monitor.violation_index m with
            | Some i ->
                Fmt.pr "first violating prefix:@.%s@."
                  (Pretty.timeline (History.prefix h i))
            | None -> ());
            report_fastpath ();
            1
        | `Budget why ->
            Fmt.pr "unknown: %s@." why;
            report_fastpath ();
            2)
  in
  Cmd.v
    (Cmd.info "monitor" ~doc:"Stream a history through the online du-opacity monitor")
    Term.(const run $ input_arg $ max_nodes_arg)

(* --- tm serve / tm submit ------------------------------------------------ *)

let addr_of ~unix_path ~tcp : (Service.Wire.addr, [ `Msg of string ]) result =
  match unix_path, tcp with
  | Some _, Some _ -> Error (`Msg "--unix and --tcp are mutually exclusive")
  | Some path, None -> Ok (`Unix path)
  | None, Some spec -> (
      match String.rindex_opt spec ':' with
      | Some i -> (
          let host = String.sub spec 0 i in
          let port = String.sub spec (i + 1) (String.length spec - i - 1) in
          match int_of_string_opt port with
          | Some p -> Ok (`Tcp ((if host = "" then "127.0.0.1" else host), p))
          | None -> Error (`Msg ("cannot parse port in --tcp " ^ spec)))
      | None -> (
          match int_of_string_opt spec with
          | Some p -> Ok (`Tcp ("127.0.0.1", p))
          | None -> Error (`Msg ("cannot parse --tcp " ^ spec))))
  | None, None -> Error (`Msg "an endpoint is required: --unix PATH or --tcp [HOST:]PORT")

let unix_arg =
  let doc = "Serve on (connect to) a Unix-domain socket at $(docv)." in
  Arg.(value & opt (some string) None & info [ "unix" ] ~docv:"PATH" ~doc)

let tcp_arg =
  let doc = "Serve on (connect to) a TCP endpoint $(docv) (default host 127.0.0.1)." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"[HOST:]PORT" ~doc)

let serve_cmd =
  let domains_arg =
    let doc = "Shard pool size: sessions are sharded across $(docv) OCaml domains." in
    Arg.(value & opt int 4 & info [ "domains" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc = "Bounded work-queue capacity per domain (backpressure)." in
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N" ~doc)
  in
  let shards_arg =
    let doc =
      "Monitor shards per session: events are partitioned by location \
       across $(docv) incremental conflict graphs and stitched into a \
       global certificate at every batch (two-phase certify/stitch).  \
       1 = the sequential per-session monitor."
    in
    Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the per-connection event log.")
  in
  let journal_arg =
    let doc =
      "Make sessions durable: journal every applied event (and checkpoint \
       monitor snapshots) under $(docv), so sessions survive disconnects \
       and server restarts and can be resumed."
    in
    Arg.(
      value & opt (some string) None
      & info [ "journal"; "journal-dir" ] ~docv:"DIR" ~doc)
  in
  let journal_sync_arg =
    Arg.(
      value & flag
      & info [ "journal-sync" ]
          ~doc:"fsync every journal append (power-cut durability).")
  in
  let session_timeout_arg =
    let doc =
      "Seconds of complete silence after which a connection is presumed \
       dead, and how long an orphaned durable session stays resumable."
    in
    Arg.(
      value
      & opt float Service.Protocol.default_session_timeout
      & info [ "session-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let heartbeat_arg =
    let doc = "Advertised heartbeat interval for idle clients." in
    Arg.(
      value
      & opt float Service.Protocol.default_heartbeat
      & info [ "heartbeat" ] ~docv:"SECONDS" ~doc)
  in
  let max_conns_arg =
    let doc = "Admission control: refuse connections beyond $(docv)." in
    Arg.(value & opt int 1024 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let max_sessions_arg =
    let doc = "Admission control: refuse sessions beyond $(docv)." in
    Arg.(value & opt int 8192 & info [ "max-sessions" ] ~docv:"N" ~doc)
  in
  let hwm_arg =
    let doc =
      "Mailbox high-watermark at which v2 sessions are throttled \
       (degradation ladder); default queue/2."
    in
    Arg.(value & opt (some int) None & info [ "hwm" ] ~docv:"N" ~doc)
  in
  let run unix_path tcp domains shards queue max_nodes quiet journal_dir
      journal_sync session_timeout heartbeat max_conns max_sessions hwm =
    match addr_of ~unix_path ~tcp with
    | Error (`Msg m) ->
        Fmt.epr "tm serve: %s@." m;
        3
    | Ok addr -> (
        let log =
          if quiet then ignore else fun msg -> Fmt.epr "tm serve: %s@." msg
        in
        match
          Service.Server.start
            (Service.Server.config ~domains ~shards ?max_nodes
               ~queue_capacity:queue ?journal_dir ~journal_sync
               ~session_timeout ~heartbeat ~max_conns ~max_sessions ?hwm ~log
               addr)
        with
        | exception Unix.Unix_error (e, _, arg) ->
            Fmt.epr "tm serve: cannot listen on %a: %s %s@."
              Service.Wire.pp_addr addr (Unix.error_message e) arg;
            3
        | exception Invalid_argument m ->
            Fmt.epr "tm serve: %s@." m;
            3
        | srv ->
            Fmt.pr "tm serve: listening on %a (%d domains%s, queue %d%s)@."
              Service.Wire.pp_addr
              (Service.Server.bound_addr srv)
              domains
              (if shards > 1 then Fmt.str ", %d monitor shards" shards else "")
              queue
              (match journal_dir with
              | Some d -> Fmt.str ", durable sessions in %s" d
              | None -> "");
            let stop _ =
              Service.Server.stop srv;
              exit 0
            in
            (try
               Sys.set_signal Sys.sigint (Sys.Signal_handle stop);
               Sys.set_signal Sys.sigterm (Sys.Signal_handle stop)
             with Invalid_argument _ | Sys_error _ -> ());
            while true do
              Unix.sleep 3600
            done;
            0)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the streaming du-opacity checking service (binary wire \
          protocol, one online monitor per session, sessions sharded \
          across a domain pool; optionally durable, with crash recovery \
          and overload shedding)")
    Term.(
      const run $ unix_arg $ tcp_arg $ domains_arg $ shards_arg $ queue_arg
      $ max_nodes_arg $ quiet_arg $ journal_arg $ journal_sync_arg
      $ session_timeout_arg $ heartbeat_arg $ max_conns_arg $ max_sessions_arg
      $ hwm_arg)

let submit_cmd =
  let session_arg =
    let doc = "Client-side session identifier." in
    Arg.(value & opt int 1 & info [ "session" ] ~docv:"N" ~doc)
  in
  let chunk_arg =
    let doc = "Events per frame when streaming." in
    Arg.(value & opt int 512 & info [ "chunk" ] ~docv:"N" ~doc)
  in
  let durable_arg =
    let doc =
      "Fault-tolerant submission: open a durable session, resume after \
       disconnects or server restarts with bounded exponential backoff, \
       and re-send only unacknowledged events.  Requires the server to run \
       with --journal-dir."
    in
    Arg.(value & flag & info [ "durable" ] ~doc)
  in
  let retries_arg =
    let doc = "Reconnect/retry budget in durable mode." in
    Arg.(value & opt int 8 & info [ "retries" ] ~docv:"N" ~doc)
  in
  (* Exit codes mirror tm monitor (0 ok / 1 violation / 2 inconclusive),
     with 3 for every transport or protocol failure — each as a one-line
     diagnostic, never a bare exception trace. *)
  let verdict_exit (v : Service.Protocol.verdict) ~shed =
    match v.Service.Protocol.status with
    | Service.Protocol.S_violation why ->
        Fmt.pr "VIOLATION: %s@." why;
        1
    | Service.Protocol.S_budget why ->
        Fmt.pr "unknown: %s@." why;
        2
    | Service.Protocol.S_ok -> (
        match shed with
        | Some reason ->
            Fmt.pr
              "unknown: session shed under load (%s); verdict covers only \
               the first %d events@."
              reason v.Service.Protocol.applied;
            2
        | None ->
            Fmt.pr "ok: every prefix (%d events) is du-opaque@."
              v.Service.Protocol.events;
            0)
  in
  let run input unix_path tcp session chunk durable retries =
    match addr_of ~unix_path ~tcp with
    | Error (`Msg m) ->
        Fmt.epr "tm submit: %s@." m;
        3
    | Ok addr -> (
        match history_of_input input with
        | Error (`Msg m) ->
            Fmt.epr "tm submit: %s@." m;
            3
        | Ok h -> (
            let fail fmt = Fmt.kstr (fun m -> Fmt.epr "tm submit: %s@." m; 3) fmt in
            if durable then
              let backoff =
                { Service.Client.default_backoff with attempts = retries }
              in
              match
                Service.Client.submit_durable ~session ~chunk ~backoff
                  ~connect:(fun () ->
                    Service.Client.connect_retry ~backoff addr)
                  (History.to_list h)
              with
              | exception Service.Client.Server_error m ->
                  fail "server error: %s" m
              | exception Unix.Unix_error (e, _, _) ->
                  fail "cannot reach %a: %s" Service.Wire.pp_addr addr
                    (Unix.error_message e)
              | r ->
                  if r.Service.Client.reconnects > 0 then
                    Fmt.epr
                      "tm submit: recovered through %d reconnect(s), %d \
                       resend round(s)@."
                      r.Service.Client.reconnects r.Service.Client.retries;
                  verdict_exit r.Service.Client.verdict
                    ~shed:r.Service.Client.shed_reason
            else
              match Service.Client.connect addr with
              | exception Unix.Unix_error (e, _, _) ->
                  fail "cannot connect to %a: %s" Service.Wire.pp_addr addr
                    (Unix.error_message e)
              | client -> (
                  let finish code =
                    (try Service.Client.close client
                     with
                     | Service.Client.Server_error _ | Service.Wire.Closed
                     | Service.Wire.Desync _
                     | Unix.Unix_error _ -> ());
                    code
                  in
                  match Service.Client.submit ~session ~chunk client h with
                  | exception Service.Client.Server_error m ->
                      finish (fail "server error: %s" m)
                  | exception Service.Wire.Desync m ->
                      finish
                        (fail
                           "protocol desync (%s); client speaks protocol v%d \
                            — is the server older or newer?"
                           m Service.Protocol.version)
                  | exception Service.Wire.Closed ->
                      finish
                        (fail
                           "connection closed mid-stream; rerun with \
                            --durable to resume against a --journal-dir \
                            server")
                  | exception Unix.Unix_error (e, _, _) ->
                      finish (fail "i/o error: %s" (Unix.error_message e))
                  | v -> finish (verdict_exit v ~shed:None))))
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Stream a history into a running tm serve instance and print the \
          final verdict (same judgement and exit codes as tm monitor).  \
          With --durable, survives disconnects and server restarts by \
          resuming the session.")
    Term.(
      const run $ input_arg $ unix_arg $ tcp_arg $ session_arg $ chunk_arg
      $ durable_arg $ retries_arg)

(* --- tm verify ----------------------------------------------------------- *)

let verify_cmd =
  let stms =
    let names = List.map fst Stm.Registry.algorithms in
    let stm_conv = Arg.enum (List.map (fun n -> (n, n)) names) in
    Arg.(
      value & opt (list stm_conv) []
      & info [ "stm" ] ~docv:"STMS"
          ~doc:"STM algorithms to verify (default: all).")
  in
  let threads = Arg.(value & opt int 2 & info [ "threads" ] ~doc:"Threads.") in
  let txns =
    Arg.(value & opt int 2 & info [ "txns" ] ~doc:"Transactions per thread.")
  in
  let ops =
    Arg.(value & opt int 2 & info [ "ops" ] ~doc:"Operations per transaction.")
  in
  let vars = Arg.(value & opt int 2 & info [ "vars" ] ~doc:"Variables.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Workload seed.") in
  let max_runs =
    Arg.(
      value & opt int 200_000
      & info [ "max-runs" ] ~doc:"DPOR schedule budget.")
  in
  let naive_budget =
    Arg.(
      value & opt int 300_000
      & info [ "naive-budget" ]
          ~doc:
            "Schedule budget for the naive branch-everywhere baseline \
             (cross-checks the DPOR verdict set; 0 skips it).")
  in
  let max_retries =
    Arg.(
      value & opt int 4
      & info [ "max-retries" ]
          ~doc:
            "Per-program attempt budget; every retry is a fresh \
             transaction DPOR must explore, so keep it small for \
             abort-prone algorithms.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:"Per-STM reports with race witnesses and first violations.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"PATH" ~doc:"Write a JSON report to $(docv).")
  in
  let run stms threads txns ops vars seed max_runs naive_budget max_retries
      verbose json max_nodes =
    let cfg =
      {
        Analysis.Verify.stms;
        params =
          {
            Stm.Workload.default with
            n_threads = threads;
            txns_per_thread = txns;
            ops_per_txn = ops;
            n_vars = vars;
            read_ratio = 0.5;
          };
        seed;
        max_runs;
        naive_max_runs = naive_budget;
        max_retries;
        max_nodes = Option.value max_nodes ~default:1_000_000;
      }
    in
    let t0 = Stm.Clock.now () in
    let results =
      List.map
        (fun s ->
          let r = Analysis.Verify.run_stm cfg s in
          if verbose then Fmt.pr "%a@.@." Analysis.Verify.pp_result r;
          r)
        (match cfg.stms with
        | [] -> List.map fst Stm.Registry.algorithms
        | l -> l)
    in
    let wall = Stm.Clock.now () -. t0 in
    Fmt.pr "# verify: %a, seed %d@." Stm.Workload.pp_params cfg.params
      cfg.seed;
    Fmt.pr "%a" Analysis.Verify.pp_table results;
    Fmt.pr "# wall %.1fs@." wall;
    (match json with
    | None -> ()
    | Some path ->
        let oc = open_out path in
        output_string oc (Analysis.Verify.to_json cfg ~wall results);
        close_out oc;
        Fmt.pr "# wrote %s@." path);
    if List.for_all Analysis.Verify.ok results then 0 else 1
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Exhaustively verify the registered STMs on a small workload: \
          DPOR-reduced schedule enumeration, du-opacity checks on every \
          distinct history, happens-before race analysis on every \
          schedule's access trace, and a naive-DFS verdict cross-check")
    Term.(
      const run $ stms $ threads $ txns $ ops $ vars $ seed $ max_runs
      $ naive_budget $ max_retries $ verbose $ json_arg $ max_nodes_arg)

(* --- tm lint ------------------------------------------------------------- *)

let lint_cmd =
  let roots =
    Arg.(
      value
      & pos_all string [ "lib"; "bin" ]
      & info [] ~docv:"DIR" ~doc:"Directories to scan (default: lib bin).")
  in
  let format_arg =
    let doc = "Output format: $(docv) ∈ text|json." in
    Arg.(
      value
      & opt (Arg.enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let rules_arg =
    let doc =
      "Comma-separated rule names to run (default: all; see --list-rules)."
    in
    Arg.(
      value
      & opt (some (Arg.list Arg.string)) None
      & info [ "rules" ] ~docv:"RULES" ~doc)
  in
  let list_rules_arg =
    Arg.(
      value & flag
      & info [ "list-rules" ] ~doc:"List the registered rules and exit.")
  in
  let self_test_arg =
    Arg.(
      value & flag
      & info [ "self-test" ]
          ~doc:
            "Run every rule against its embedded positive/negative fixtures \
             and exit non-zero if any rule is broken.")
  in
  let run roots format rules list_rules self_test =
    if list_rules then begin
      List.iter
        (fun (name, doc) -> Fmt.pr "%-24s %s@." name doc)
        Analysis.Lint.rule_docs;
      0
    end
    else if self_test then begin
      let results = Analysis.Lint.self_test () in
      List.iter
        (fun (name, ok) ->
          Fmt.pr "%-24s %s@." name (if ok then "ok" else "BROKEN"))
        results;
      if List.for_all snd results then begin
        Fmt.pr "lint self-test: %d rules ok@." (List.length results);
        0
      end
      else begin
        Fmt.pr "lint self-test: FAILED@.";
        1
      end
    end
    else begin
      match
        Option.map Analysis.Lint.unknown_rules rules
      with
      | Some (_ :: _ as unknown) ->
          Fmt.epr "lint: unknown rule%s: %s@."
            (if List.length unknown = 1 then "" else "s")
            (String.concat ", " unknown);
          2
      | Some [] | None -> (
          let findings =
            Analysis.Lint.scan_roots ?rules_enabled:rules roots
          in
          match format with
          | `Json ->
              let rules_run =
                Option.value rules ~default:Analysis.Lint.rule_names
              in
              print_string (Analysis.Lint.report_json ~rules_run findings);
              if findings = [] then 0 else 1
          | `Text -> (
              List.iter
                (fun f -> Fmt.pr "%a@." Analysis.Lint.pp_finding f)
                findings;
              match findings with
              | [] ->
                  Fmt.pr "lint: clean@.";
                  0
              | fs ->
                  Fmt.pr "lint: %d finding%s@." (List.length fs)
                    (if List.length fs = 1 then "" else "s");
                  1))
    end
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Run the static-analysis rule suite over OCaml sources: \
          polymorphic comparison/hashing/equality on history values, \
          quadratic scans in hot loops, Hashtbl iteration-order \
          nondeterminism, unsynchronized domain-shared state, blocking \
          calls under a mutex, swallowed exceptions, and stale lint \
          suppressions")
    Term.(
      const run $ roots $ format_arg $ rules_arg $ list_rules_arg
      $ self_test_arg)

(* --- tm figures ---------------------------------------------------------- *)

let figures_cmd =
  let run () =
    List.iter
      (fun (e : Figures.expectation) ->
        Fmt.pr "@.=== %s — %s ===@.%s" e.name e.claim (Pretty.timeline e.history);
        Fmt.pr "  text: %s@." (Parse.to_text e.history))
      Figures.catalog;
    0
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Print the paper's example histories (Figures 1-6)")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "tm" ~version:"1.0.0"
      ~doc:"Transactional-memory history checkers (du-opacity and friends)"
  in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            check_cmd; gen_cmd; run_cmd; chaos_cmd; soak_cmd; monitor_cmd;
            serve_cmd; submit_cmd; verify_cmd; lint_cmd; figures_cmd;
          ]))
