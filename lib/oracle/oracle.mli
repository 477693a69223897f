(** Differential soak testing of the du-opacity checker paths ([tm soak]).

    The repo decides du-opacity in several independent ways — the batch
    {!Tm_checker.Du_opacity.check}, the linear-time
    {!Tm_checker.Conflict_graph}, the incremental [check_inc], the online
    {!Tm_checker.Monitor}, and the [tm serve] wire path.  The batch paths
    answer "is this history du-opaque?"; the incremental and monitor paths
    are sticky and answer "is {e every prefix} du-opaque?" — the safety
    closure of du-opacity.  Under the paper's unique-writes assumption the
    two questions coincide (Corollary 2) and every decided pair must agree;
    with duplicate written values an extension can resurrect a dead prefix
    ({!Tm_figures.Findings.corollary2_gap} — found by this very harness),
    which the oracle verifies from scratch and reports as a benign
    [closure_gap], not a discrepancy.  This module is the lockstep oracle
    that hunts for disagreements at scale: it drives seed-deterministic
    history sources (random generation, recorded STM executions,
    fault-injected campaigns) through all paths, classifies any divergence,
    auto-minimises it with {!Tm_checker.Shrink.minimal} under the predicate
    "the paths still disagree", and persists a deterministic repro into the
    regression corpus replayed by [dune runtest].

    Every verdict source is reduced to three-valued agreement: [ok],
    [violation], or [unknown] (a budget-bounded search gave up).  [unknown]
    is never a discrepancy — paths search differently, so their budgets
    exhaust differently — but any decided pair that differs is. *)

(** {1 Lockstep checking} *)

type finding_kind =
  | Verdict_mismatch  (** two decided paths disagree (possibly mid-stream) *)
  | Bad_certificate  (** a positive verdict's certificate fails validation *)
  | Prefix_violation
      (** prefix-closure broken where Corollary 2 applies: on a
          unique-writes history, a later prefix is accepted after an
          independently confirmed violating prefix *)
  | Containment_violation
      (** the criterion lattice broken: a history (or boundary prefix)
          judged du-opaque but not last-use-opaque — du-opaque ⇒
          last-use-opaque is a theorem of the optional-visibility
          rendering, so this always convicts a checker *)
  | Crash  (** a checker path raised *)

type finding = {
  f_kind : finding_kind;
  f_path_a : string;
  f_path_b : string;  (** ["-"] when the finding involves a single path *)
  f_detail : string;
}

val kind_to_string : finding_kind -> string
val pp_finding : Format.formatter -> finding -> unit

type timing = { t_path : string; t_seconds : float; t_events : int }

type lockstep_result = {
  findings : finding list;  (** empty = all paths agree everywhere *)
  timings : timing list;
  unknown : bool;  (** some path exhausted its search budget *)
  closure_gap : bool;
      (** a confirmed non-du-opaque prefix of an accepted duplicate-writes
          history — legitimate non-prefix-closure, not a discrepancy *)
}

val boundaries : History.t -> int list
(** Ascending prefix lengths at which a verdict can change: one per
    response, plus the full length when the history ends mid-operation
    (a trailing invocation still extends the history).  O(n) and shares
    {!History.response_indices}'s list when the final event is a
    response — the lockstep driver walks it per history, and the test
    suite timing-guards it at ≥2000 responses. *)

val lockstep :
  ?max_nodes:int ->
  ?submit:(History.t -> [ `Ok | `Violation of string | `Budget of string ]) ->
  History.t ->
  lockstep_result
(** Run every checker path over [h] in lockstep and cross-check:

    - batch [Du_opacity.check] on the full history (certificate
      validated);
    - the conflict-graph backend ({!Tm_checker.Conflict_graph.check}) on
      the full history, certificate validated and verdict compared
      against the batch search — [Ambiguous] counts as undecided, never
      as a discrepancy;
    - [Du_opacity.check_inc] over a fresh incremental context, one call per
      response boundary (certificates validated on small histories);
    - a fresh {!Tm_checker.Monitor} fed event by event, compared against
      the incremental path {e at every boundary} and on the index of the
      first violating prefix;
    - a location-sharded {!Tm_checker.Sharded_monitor} (4 shards),
      certified at a handful of intermediate boundaries — exercising the
      frontier-incremental stitch validation — and at the end, compared
      against the monitor on the final verdict and, when both blame a
      violating prefix, on its index;
    - prefix-closure as an executable invariant: the first violating prefix
      is re-judged from scratch (a refutation convicts the incremental
      state), and boundaries after it are re-checked — a later acceptance
      is a [Prefix_violation] on unique-writes histories and a benign
      [closure_gap] otherwise;
    - optionally [submit] — a loopback [tm serve] round-trip — on the final
      verdict;
    - the last-use-opacity legs: batch {!Tm_checker.Last_use_opacity.check}
      (certificate validated under claim [Last_use]) against its
      per-boundary incremental twin — exact per prefix, never sticky,
      since the criterion is not prefix-closed — plus the containment
      theorem du-opaque ⇒ last-use-opaque as an executable cross-criterion
      invariant, on the full history and per decided boundary
      ([Containment_violation] when it fails).

    The empty finding list means all paths agree everywhere.  [submit]
    exceptions are classified as [Crash] on the [serve] path. *)

(** {1 History sources} *)

type source = [ `Gen | `Stm of string | `Faults of string ]

val default_sources : source list
(** [`Gen], recorded tl2/norec/pessimistic/early-release/partial-abort
    executions, and fault-injected tl2/norec/early-release campaigns.
    The early-release runs routinely separate the criteria (du-violation,
    last-use-opaque), exercising the containment cross-check on the
    interesting side. *)

val source_tag : source -> string
val source_of_tag : string -> (source, string) result

val produce : source -> seed:int -> History.t
(** The history this source yields for this seed — deterministic: same
    source and seed, same history, byte for byte.  Generation parameters
    (transaction counts, variable counts, value modes, fault plans) are
    themselves drawn deterministically from the seed. *)

(** {1 The soak runner} *)

type discrepancy = {
  d_iter : int;
  d_seed : int;
  d_source : string;
  d_findings : finding list;
  d_history : History.t;
  d_shrunk : History.t;  (** still-disagreeing minimised core *)
  d_shrink_checks : int;  (** lockstep evaluations spent shrinking *)
}

type config = {
  base_seed : int;
  iters : int option;  (** stop after this many iterations *)
  seconds : float option;  (** stop after this much wall-clock time *)
  jobs : int;  (** domain-pool width *)
  max_nodes : int;  (** per-search budget for every path *)
  sources : source list;  (** iteration [i] uses [sources.(i mod len)] *)
  serve : Tm_service.Wire.addr option;
      (** when set, every history additionally round-trips through a
          loopback [tm serve] session at this address *)
  corpus_dir : string option;  (** persist shrunk repros here *)
  log : string -> unit;
}

val config :
  ?base_seed:int ->
  ?iters:int ->
  ?seconds:float ->
  ?jobs:int ->
  ?max_nodes:int ->
  ?sources:source list ->
  ?serve:Tm_service.Wire.addr ->
  ?corpus_dir:string ->
  ?log:(string -> unit) ->
  unit ->
  config
(** Defaults: seed 1, 200 iterations (when no [seconds] bound is given
    either), 1 job, 2M-node budget, {!default_sources}, no loopback, no
    corpus persistence. *)

type path_stat = { p_path : string; p_seconds : float; p_events : int }

type report = {
  r_iterations : int;
  r_events : int;  (** total events across all histories checked *)
  r_wall_s : float;
  r_unknowns : int;  (** iterations where some path ran out of budget *)
  r_closure_gaps : int;
      (** iterations whose history legitimately escapes prefix-closure
          (duplicate writes; see {!lockstep_result.closure_gap}) *)
  r_paths : path_stat list;
  r_discrepancies : discrepancy list;
  r_shrink_checks : int;
  r_corpus_written : string list;
}

val run : config -> report
(** Iteration [i] checks [produce sources.(i mod len) ~seed:(base_seed + i)]
    — each iteration's outcome depends only on its index, so a soak is
    replayable from its seed line regardless of [jobs].  Discrepancies are
    shrunk under "the paths still disagree" and, when [corpus_dir] is set,
    persisted as [.repro] files whose body parses as a history ([#] lines
    are comments carrying seed, source, and classification). *)

val repro_text : discrepancy -> string
(** The corpus entry: comment header plus the shrunk history in DSL text. *)

val write_corpus : dir:string -> discrepancy -> string
(** Write {!repro_text} under [dir] (created if missing); returns the path. *)

val report_json : config -> report -> string
(** The JSON report uploaded by CI: configuration, histories and events
    checked, per-path events/s, discrepancies (with shrunk cores), shrink
    stats, corpus paths. *)
