(** Minimisation of histories exhibiting a bad property.

    When a recorded history fails du-opacity — or, more generally, exhibits
    any caller-defined badness, such as "two checkers disagree on it" — the
    offending core is usually a handful of events buried in thousands.
    {!minimal} shrinks while preserving the badness, by (in order):

    + truncating to the shortest bad prefix (for an extension-stable
      badness such as a prefix-du-opacity violation this is sound by
      construction: the first bad prefix stays bad in every extension; for
      an arbitrary predicate it is a greedy step kept only when some
      prefix is bad);
    + greedily dropping whole transactions (a projection of a well-formed
      history is well-formed — kept only when the badness persists);
    + greedily dropping individual completed operations.

    Every candidate is re-checked against [bad], so the result provably
    exhibits the property; it is locally minimal (no single transaction or
    operation can be removed), not globally minimal.  Violations found by
    the negative controls — and checker discrepancies found by the
    differential soak harness — typically shrink to 2-3 transactions and
    under a dozen events, small enough to read as a paper-style figure. *)

val minimal : bad:(History.t -> bool) -> History.t -> History.t option
(** [minimal ~bad h] is [None] when [bad h] is false, otherwise a locally
    minimal history satisfying [bad].  [bad] must be deterministic; it is
    called once per candidate, so its cost dominates the shrink. *)

val minimal_violation :
  ?max_nodes:int ->
  ?check:(History.t -> Verdict.t) ->
  History.t ->
  History.t option
(** {!minimal} with [bad h = Verdict.is_unsat (check h)].  [check] defaults
    to {!Conflict_graph.check_or_fallback}; any checker returning
    {!Verdict.t} works ([Unknown] is treated as "do not keep this shrink
    step", so budgets never produce a non-violating result). *)
