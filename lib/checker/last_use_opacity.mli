(** Last-use opacity (Siek–Wojciechowski) — the early-release criterion.

    Du-opacity forbids any read from a transaction that has not invoked
    [tryC]; early-release TMs violate that on purpose, publishing a
    variable as soon as its {e closing write} — the transaction's last
    write to it — has executed.  Last-use opacity is the matching safety
    criterion: a read from a live or even aborted writer is admissible
    provided the writer had already closed the variable, because nothing
    the writer does afterwards (including aborting) can change the value
    it published.

    {2 The rendering checked here}

    This module decides {e final-state} last-use opacity of a single
    history under a {e per-location} closing-write decoration computed
    from the history itself ({!decoration}, {!Txn.closing_writes}) — the
    same single-history judgment shape as {!Du_opacity.check}:

    - some serialization [S] (order + commit decisions from a completion,
      as in Definition 2/3) must be equivalent to a completion of the
      history, respect its real-time order, and be legal as follows;
    - a transaction {e committed} by [S] is Vis-legal: every external
      read sees the final write of the latest committed preceding
      transaction in [S] (initial value if none);
    - a transaction {e aborted} by [S] is LVis-legal with {e optional}
      visibility of closed writers: scanning its preceding transactions
      in [S] latest first, a committed writer of the variable is a
      mandatory stop (its value must match), while a non-committed
      writer whose closing write on the variable responded in the
      history before the read did is a candidate the witness may
      include (legal if the value matches) or skip;
    - internal reads return the transaction's own latest preceding
      write, as everywhere else in the repo.

    Optional candidate visibility is what makes the criterion lattice
    work: every du-opacity witness is verbatim a last-use witness
    (du-opaque ⇒ last-use-opaque, tested as a ≥1000-iteration containment
    property), while histories where a reader observes a closed-but-
    uncommitted write — exactly what {!Tm_stm.Early_release} produces —
    are last-use-opaque but {e not} du-opaque.  A cascading abort whose
    {e committed} reader kept the aborted value is neither.

    Like final-state opacity (and unlike du-opacity under unique writes),
    this judgment is {e not} prefix-closed: an extension can supply the
    closed writer that resurrects a dead prefix.  {!check_inc} therefore
    judges each prefix as a standalone history with its own decoration —
    its verdict at a boundary always equals {!check} of that prefix.

    Verdicts follow the same three-valued honesty contract as
    {!Conflict_graph}: [Ambiguous] means the search budget was exhausted
    and is never a safety verdict. *)

type result =
  | Sat of Serialization.t
      (** witnessed; the certificate validates under
          {!Serialization.validate} with claim [Last_use] *)
  | Unsat of string  (** no serialization exists *)
  | Ambiguous of string
      (** the node budget was exhausted — not a verdict *)

val is_sat : result -> bool
val is_unsat : result -> bool
val pp : Format.formatter -> result -> unit

val to_verdict : result -> Verdict.t
(** [Ambiguous] maps to {!Verdict.Unknown}. *)

val of_verdict : Verdict.t -> result
(** Inverse of {!to_verdict}. *)

val decoration : History.t -> (Event.tx * (Event.tvar * int) list) list
(** The closing-write decoration the judgment is relative to: for every
    transaction, the response index of its last successful write per
    variable ({!Txn.closing_writes}). *)

val check : ?max_nodes:int -> ?hint:Event.tx list -> History.t -> result

val check_stats :
  ?max_nodes:int -> ?hint:Event.tx list -> History.t -> result * Search.stats

val check_fast : ?max_nodes:int -> History.t -> result
(** Tries the linear-time du-opacity graph ({!Conflict_graph.check})
    before the exact search, adopting its certificate when it answers
    [Sat] — sound because a du-opacity certificate is also a last-use one
    (optional candidate visibility).  Same verdicts as {!check}. *)

(** {1 Incremental checking}

    Same persistent-context amortisation as {!Du_opacity.incremental}.
    Each call judges the current prefix exactly (with the prefix's own
    closing-write decoration): the verdict is {e not} sticky, matching
    the criterion's lack of prefix closure. *)

type inc

val incremental : unit -> inc

val check_inc :
  ?max_nodes:int ->
  ?hint:Event.tx list ->
  inc ->
  History.t ->
  result * Search.stats
(** Successive calls must pass successive extensions of one history and
    pay only for the events appended since the previous call. *)
