module Explore = Tm_sim.Explore
module Du = Tm_checker.Du_opacity
module Lu = Tm_checker.Last_use_opacity
module Verdict = Tm_checker.Verdict

type config = {
  stms : string list;
  params : Tm_stm.Workload.params;
  seed : int;
  max_runs : int;
  naive_max_runs : int;
  max_retries : int;
  max_nodes : int;
}

let default =
  {
    stms = [];
    params =
      {
        Tm_stm.Workload.default with
        n_threads = 2;
        txns_per_thread = 2;
        ops_per_txn = 2;
        n_vars = 2;
        read_ratio = 0.5;
      };
    seed = 1;
    max_runs = 200_000;
    naive_max_runs = 300_000;
    max_retries = 4;
    max_nodes = 1_000_000;
  }

type verdicts = {
  sat : int;
  unsat : int;
  unknown : int;
  first_unsat : string option;
}

type stm_result = {
  r_stm : string;
  r_dpor : Explore.outcome;
  r_histories : int;
  r_verdicts : verdicts;
  r_lu_verdicts : verdicts;
  r_lastuse_containment : int;
  r_separated : int;
  r_races : Race.report;
  r_racy_schedules : int;
  r_naive : Explore.outcome option;
  r_naive_histories : int;
  r_naive_verdicts : verdicts option;
  r_match : bool option;
  r_graph_checked : int;
  r_graph_mismatch : int;
  r_seconds : float;
}

let empty_report =
  { Race.accesses = 0; locations = 0; sync_locations = 0; races = [] }

(* Judge a deduplicated history set under both criteria; du-opacity is
   judged by the conflict graph, falling back to the search on
   [Ambiguous].  With [graph], every history is also judged by the bare
   search and decided disagreements are counted — the exhaustive
   small-scope cross-check of the two checker cores.  Every
   history additionally drives the criterion lattice: [containment] counts
   du-opaque histories that fail last-use opacity (a theorem violation,
   must be 0 everywhere), [separated] counts the interesting converse —
   last-use-opaque histories that are not du-opaque, the class the
   early-release STM exists to produce. *)
let verdicts_of ?(graph = false) cfg (histories : (string, History.t) Hashtbl.t)
    =
  let sat = ref 0 and unsat = ref 0 and unknown = ref 0 in
  let lu_sat = ref 0 and lu_unsat = ref 0 and lu_unknown = ref 0 in
  let first_unsat = ref None and lu_first_unsat = ref None in
  let containment = ref 0 and separated = ref 0 in
  let graph_checked = ref 0 and graph_mismatch = ref 0 in
  (* Judge in sorted-key order: [first_unsat] below reports the *first*
     violating history, and hash order would make that report (and any
     diff against it) vary across OCaml versions and key sets. *)
  let ordered =
    Hashtbl.fold (fun key h acc -> (key, h) :: acc) histories []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (key, h) ->
      let v =
        Tm_checker.Conflict_graph.check_or_fallback ~max_nodes:cfg.max_nodes h
      in
      (match v with
      | Verdict.Sat _ -> incr sat
      | Verdict.Unsat why ->
          incr unsat;
          if !first_unsat = None then
            first_unsat := Some (Fmt.str "%s@.%s" why (String.trim key))
      | Verdict.Unknown _ -> incr unknown);
      let l = Lu.check_fast ~max_nodes:cfg.max_nodes h in
      (match l with
      | Lu.Sat _ -> incr lu_sat
      | Lu.Unsat why ->
          incr lu_unsat;
          if !lu_first_unsat = None then
            lu_first_unsat := Some (Fmt.str "%s@.%s" why (String.trim key))
      | Lu.Ambiguous _ -> incr lu_unknown);
      (match v, l with
      | Verdict.Sat _, Lu.Unsat _ -> incr containment
      | Verdict.Unsat _, Lu.Sat _ -> incr separated
      | _ -> ());
      if graph then begin
        incr graph_checked;
        match Du.check ~max_nodes:cfg.max_nodes h, v with
        | Verdict.Sat _, Verdict.Sat _
        | Verdict.Unsat _, Verdict.Unsat _
        | Verdict.Unknown _, _
        | _, Verdict.Unknown _ ->
            ()
        | _ -> incr graph_mismatch
      end)
    ordered;
  ( {
      sat = !sat;
      unsat = !unsat;
      unknown = !unknown;
      first_unsat = !first_unsat;
    },
    {
      sat = !lu_sat;
      unsat = !lu_unsat;
      unknown = !lu_unknown;
      first_unsat = !lu_first_unsat;
    },
    !containment,
    !separated,
    !graph_checked,
    !graph_mismatch )

let run_stm cfg stm =
  (match Tm_stm.Registry.find stm with
  | Some _ -> ()
  | None -> ignore (Tm_stm.Registry.find_exn stm));
  let t0 = Tm_stm.Clock.now () in
  (* DPOR pass: record each schedule's history (deduplicated — DPOR visits
     one interleaving per trace, but distinct traces can still commute into
     the same history) and race-analyze its access trace. *)
  let histories : (string, History.t) Hashtbl.t = Hashtbl.create 256 in
  let races = ref empty_report in
  let racy_schedules = ref 0 in
  let on_result (r : Tm_sim.Runner.result) =
    let key = Parse.to_text r.history in
    if not (Hashtbl.mem histories key) then Hashtbl.add histories key r.history;
    match r.trace with
    | None -> ()
    | Some t ->
        let rep = Race.analyze t in
        if Race.racy rep then incr racy_schedules;
        races := Race.merge !races rep
  in
  let dpor =
    Explore.explore_stm_results ~algo:`Dpor ~max_runs:cfg.max_runs
      ~max_retries:cfg.max_retries ~trace:true ~stm ~params:cfg.params
      ~seed:cfg.seed ~on_result ()
  in
  (* Verdicts over the distinct histories, each cross-checked against the
     bare search and judged under both safety criteria. *)
  let dv, lv, containment, separated, graph_checked, graph_mismatch =
    verdicts_of ~graph:true cfg histories
  in
  (* Naive baseline: same transition system, branch-everywhere DFS.  The
     naive enumeration sees every interleaving, DPOR one representative per
     Mazurkiewicz trace; interleavings of the same trace can serialize the
     history's events differently, so the comparable artifact is the {e set
     of checker verdicts}, not the set of history texts. *)
  let naive, naive_histories, naive_verdicts, matches =
    if cfg.naive_max_runs <= 0 then (None, 0, None, None)
    else begin
      let nh : (string, History.t) Hashtbl.t = Hashtbl.create 256 in
      let on_history h =
        let key = Parse.to_text h in
        if not (Hashtbl.mem nh key) then Hashtbl.add nh key h
      in
      let o =
        Explore.explore_stm ~algo:`Naive ~max_runs:cfg.naive_max_runs
          ~max_retries:cfg.max_retries ~stm ~params:cfg.params ~seed:cfg.seed
          ~on_history ()
      in
      let nv, _, _, _, _, _ = verdicts_of cfg nh in
      let flags (v : verdicts) = (v.sat > 0, v.unsat > 0, v.unknown > 0) in
      (* A truncated enumeration can only under-approximate. *)
      let sub (a, b, c) (a', b', c') =
        ((not a) || a') && ((not b) || b') && ((not c) || c')
      in
      let m =
        match (dpor.Explore.exhaustive, o.Explore.exhaustive) with
        | true, true -> flags nv = flags dv
        | true, false -> sub (flags nv) (flags dv)
        | false, true -> sub (flags dv) (flags nv)
        | false, false -> true
      in
      (Some o, Hashtbl.length nh, Some nv, Some m)
    end
  in
  {
    r_stm = stm;
    r_dpor = dpor;
    r_histories = Hashtbl.length histories;
    r_verdicts = dv;
    r_lu_verdicts = lv;
    r_lastuse_containment = containment;
    r_separated = separated;
    r_races = !races;
    r_racy_schedules = !racy_schedules;
    r_naive = naive;
    r_naive_histories = naive_histories;
    r_naive_verdicts = naive_verdicts;
    r_match = matches;
    r_graph_checked = graph_checked;
    r_graph_mismatch = graph_mismatch;
    r_seconds = Tm_stm.Clock.now () -. t0;
  }

let run cfg =
  let stms =
    match cfg.stms with
    | [] -> List.map fst Tm_stm.Registry.algorithms
    | l -> l
  in
  List.map (run_stm cfg) stms

let ok r =
  r.r_verdicts.unknown = 0
  && r.r_lu_verdicts.unknown = 0
  && r.r_match <> Some false
  && r.r_graph_mismatch = 0
  && r.r_lastuse_containment = 0
  &&
  if List.mem r.r_stm Tm_stm.Registry.safe then
    r.r_verdicts.unsat = 0 && not (Race.racy r.r_races)
  else if List.mem r.r_stm Tm_stm.Registry.lastuse_safe then
    (* Early release sits strictly between the criteria: every history
       last-use-opaque, race-free — du-violations are expected, not
       required (that depends on the workload's contention). *)
    r.r_lu_verdicts.unsat = 0 && not (Race.racy r.r_races)
  else true

(* --- rendering ------------------------------------------------------------- *)

let pp_outcome ppf (o : Explore.outcome) =
  Fmt.pf ppf "%d run%s%s" o.runs
    (if o.runs = 1 then "" else "s")
    (if o.exhaustive then "" else " (cut)")

let pp_result ppf r =
  Fmt.pf ppf
    "@[<v 2>%s: DPOR %a, %d pruned (%.1fx), %d distinct histories@,\
     du-opacity: %d sat / %d unsat / %d unknown@,\
     last-use:   %d sat / %d unsat / %d unknown (%d separated, %d \
     containment violation%s)@,\
     races: %a (%d racy schedule%s)"
    r.r_stm pp_outcome r.r_dpor r.r_dpor.schedules_pruned
    r.r_dpor.reduction_factor r.r_histories r.r_verdicts.sat
    r.r_verdicts.unsat r.r_verdicts.unknown r.r_lu_verdicts.sat
    r.r_lu_verdicts.unsat r.r_lu_verdicts.unknown r.r_separated
    r.r_lastuse_containment
    (if r.r_lastuse_containment = 1 then "" else "s")
    Race.pp_report r.r_races r.r_racy_schedules
    (if r.r_racy_schedules = 1 then "" else "s");
  Fmt.pf ppf "@,graph vs search: %d cross-checked, %d mismatch%s"
    r.r_graph_checked r.r_graph_mismatch
    (if r.r_graph_mismatch = 1 then "" else "es");
  (match r.r_naive with
  | Some n ->
      Fmt.pf ppf "@,naive: %a, %d distinct histories, %s" pp_outcome n
        r.r_naive_histories
        (match r.r_match with
        | Some true when n.exhaustive -> "verdict sets EQUAL"
        | Some true -> "naive verdicts ⊆ DPOR's"
        | Some false -> "VERDICT MISMATCH"
        | None -> "")
  | None -> ());
  (match r.r_verdicts.first_unsat with
  | Some w -> Fmt.pf ppf "@,@[<v 2>first violation:@,%a@]" Fmt.lines w
  | None -> ());
  (match r.r_lu_verdicts.first_unsat with
  | Some w ->
      Fmt.pf ppf "@,@[<v 2>first last-use violation:@,%a@]" Fmt.lines w
  | None -> ());
  Fmt.pf ppf "@]"

let pp_table ppf results =
  Fmt.pf ppf "%-13s %9s %4s %7s %9s %6s %5s/%5s %5s/%5s %4s %4s %5s %5s %5s@."
    "stm" "dpor" "exh" "pruned" "naive" "match" "du+" "du-" "lu+" "lu-" "sep"
    "cont" "graph" "races" "sec";
  List.iter
    (fun r ->
      Fmt.pf ppf
        "%-13s %9d %4s %7d %9s %6s %5d/%5d %5d/%5d %4d %4s %5s %5d %5.1f@."
        r.r_stm r.r_dpor.Explore.runs
        (if r.r_dpor.Explore.exhaustive then "yes" else "cut")
        r.r_dpor.Explore.schedules_pruned
        (match r.r_naive with
        | Some n ->
            Fmt.str "%d%s" n.Explore.runs
              (if n.Explore.exhaustive then "" else "+")
        | None -> "-")
        (match r.r_match with
        | Some true -> "ok"
        | Some false -> "FAIL"
        | None -> "-")
        r.r_verdicts.sat r.r_verdicts.unsat r.r_lu_verdicts.sat
        r.r_lu_verdicts.unsat r.r_separated
        (if r.r_lastuse_containment = 0 then "0"
         else Fmt.str "%dBAD" r.r_lastuse_containment)
        (if r.r_graph_mismatch = 0 then "ok"
         else Fmt.str "%dBAD" r.r_graph_mismatch)
        (List.length r.r_races.Race.races)
        r.r_seconds)
    results

(* --- JSON ------------------------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string b (Fmt.str "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json cfg ~wall results =
  let p = cfg.params in
  let outcome_json (o : Explore.outcome) =
    Fmt.str
      {|{"runs": %d, "exhaustive": %b, "schedules_pruned": %d, "reduction_factor": %.2f}|}
      o.runs o.exhaustive o.schedules_pruned o.reduction_factor
  in
  let race_json (r : Race.race) =
    Fmt.str
      {|{"kind": "%s", "loc": %d, "writer_fiber": %d, "other_fiber": %d, "witness": "%s"}|}
      (match r.rkind with
      | Race.Dirty_read -> "dirty-read"
      | Race.Write_write -> "write-write")
      r.loc r.writer.Race.fiber r.other.Race.fiber (json_escape r.witness)
  in
  let stm_json r =
    Fmt.str
      {|    {"stm": "%s",
     "dpor": %s,
     "naive": %s,
     "verdict_sets_match": %s,
     "distinct_histories": %d, "naive_distinct_histories": %d,
     "verdicts": {"sat": %d, "unsat": %d, "unknown": %d},
     "lu_verdicts": {"sat": %d, "unsat": %d, "unknown": %d},
     "r_lastuse_containment": %d, "r_separated": %d,
     "naive_verdicts": %s,
     "graph": {"checked": %d, "mismatch": %d},
     "racy_schedules": %d,
     "races": [%s],
     "seconds": %.3f,
     "ok": %b}|}
      r.r_stm
      (outcome_json r.r_dpor)
      (match r.r_naive with Some n -> outcome_json n | None -> "null")
      (match r.r_match with
      | Some b -> string_of_bool b
      | None -> "null")
      r.r_histories r.r_naive_histories r.r_verdicts.sat r.r_verdicts.unsat
      r.r_verdicts.unknown r.r_lu_verdicts.sat r.r_lu_verdicts.unsat
      r.r_lu_verdicts.unknown r.r_lastuse_containment r.r_separated
      (match r.r_naive_verdicts with
      | Some v ->
          Fmt.str {|{"sat": %d, "unsat": %d, "unknown": %d}|} v.sat v.unsat
            v.unknown
      | None -> "null")
      r.r_graph_checked r.r_graph_mismatch r.r_racy_schedules
      (String.concat ", " (List.map race_json r.r_races.Race.races))
      r.r_seconds (ok r)
  in
  Fmt.str
    {|{
  "bench": "verify",
  "params": {"n_threads": %d, "txns_per_thread": %d, "ops_per_txn": %d,
             "n_vars": %d, "read_ratio": %.2f, "seed": %d,
             "max_runs": %d, "naive_max_runs": %d, "max_retries": %d,
             "max_nodes": %d},
  "wall_s": %.3f,
  "stms": [
%s
  ]
}
|}
    p.n_threads p.txns_per_thread p.ops_per_txn p.n_vars p.read_ratio cfg.seed
    cfg.max_runs cfg.naive_max_runs cfg.max_retries cfg.max_nodes wall
    (String.concat ",\n" (List.map stm_json results))
