(** Exhaustive small-scope verification of the registered STMs.

    For each algorithm, enumerates {e every} schedule of a small workload
    with {!Tm_sim.Explore} (DPOR by default), checks each distinct recorded
    history under {e both} safety criteria
    ({!Tm_checker.Conflict_graph.check_or_fallback} and
    {!Tm_checker.Last_use_opacity.check_fast} — including the containment
    theorem du ⇒ last-use as a per-history invariant), and runs the
    happens-before race analyzer ({!Race}) over each schedule's
    shared-memory trace.  Optionally replays the same workload under the
    naive branch-everywhere DFS to cross-check the reduction: DPOR explores
    one representative per Mazurkiewicz trace, so the {e set of distinct
    histories} — and therefore the set of checker verdicts — must coincide
    with the naive enumeration whenever the naive enumeration finishes.

    This is the engine behind [tm verify]. *)

type config = {
  stms : string list;  (** registry names; [[]] means every algorithm *)
  params : Tm_stm.Workload.params;
  seed : int;
  max_runs : int;  (** DPOR schedule budget *)
  naive_max_runs : int;  (** naive-baseline budget; [0] skips the baseline *)
  max_retries : int;
      (** per-program attempt budget for the harness.  Small by design:
          every retry is a fresh transaction whose interleavings DPOR must
          also explore, and abort-prone algorithms (early release aborts a
          reader whenever its dependency is still unresolved at commit)
          turn a generous budget into schedule-space explosion *)
  max_nodes : int;  (** du-opacity search budget per history *)
}

val default : config
(** Every registered STM, a 4-transaction workload small enough for DPOR to
    finish exhaustively, a naive baseline that typically gets cut off. *)

type verdicts = {
  sat : int;
  unsat : int;
  unknown : int;
  first_unsat : string option;
      (** pretty-printed explanation + history of the first violation *)
}

type stm_result = {
  r_stm : string;
  r_dpor : Tm_sim.Explore.outcome;
  r_histories : int;  (** distinct histories over all DPOR schedules *)
  r_verdicts : verdicts;  (** du-opacity, over distinct histories *)
  r_lu_verdicts : verdicts;  (** last-use opacity, over the same set *)
  r_lastuse_containment : int;
      (** histories du-opaque but {e not} last-use-opaque — a violation of
          the containment theorem, must be 0 for every STM *)
  r_separated : int;
      (** histories last-use-opaque but not du-opaque: the separation
          class.  Expected positive for the early-release STM on contended
          workloads, 0 for every du-safe algorithm *)
  r_races : Race.report;  (** merged over every schedule's trace *)
  r_racy_schedules : int;
  r_naive : Tm_sim.Explore.outcome option;
  r_naive_histories : int;  (** distinct histories the baseline saw *)
  r_naive_verdicts : verdicts option;
  r_match : bool option;
      (** verdict-set agreement with the baseline.  Interleavings of the
          same Mazurkiewicz trace can serialize the history's events
          differently, so history texts are not comparable across the two
          enumerations — the verdict profile (is any history Sat / Unsat /
          Unknown) is.  Equality when both enumerations finished,
          [naive ⊆ DPOR] when one was cut off; [None] when no baseline
          ran *)
  r_graph_checked : int;
      (** distinct histories also judged by the bare search
          {!Tm_checker.Du_opacity.check} *)
  r_graph_mismatch : int;
      (** decided disagreements between the graph-then-search verdict and
          the bare search — always 0 unless one of the two checker cores
          is wrong *)
  r_seconds : float;
}

val run_stm : config -> string -> stm_result
(** @raise Invalid_argument on an unknown STM name. *)

val run : config -> stm_result list

val ok : stm_result -> bool
(** No [Unknown] verdicts under either criterion, baseline agreement when
    one ran, zero graph-vs-search mismatches, zero containment violations,
    [safe] algorithms all-[Sat] and race-free, and [lastuse_safe]
    algorithms all last-use-[Sat] and race-free (their du-violations are
    expected, not penalised).  (Whether a control {e must} be flagged
    depends on the workload actually having cross-fiber conflicts, so that
    expectation lives with the contended configs in the tests and the
    bench, not here.) *)

val pp_result : Format.formatter -> stm_result -> unit
val pp_table : Format.formatter -> stm_result list -> unit

val to_json : config -> wall:float -> stm_result list -> string
(** The BENCH_verify.json payload. *)
