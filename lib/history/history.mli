(** Transactional-memory histories (the paper's Section 2).

    A history is a finite sequence of invocation and response events of
    t-operations.  All histories handled by this library are {e well-formed}:
    for every transaction [T_k], [H|k] is sequential (each invocation is
    followed by its matching response before the next invocation, except
    possibly the last) and has no events after [C_k] or [A_k].

    Values of type {!t} are immutable.  Prefixes and projections share the
    underlying event storage, so [prefix] is O(1) and iterating over all
    prefixes of a history is cheap — the checkers rely on this when deciding
    opacity (Definition 5) and when monitoring a history online. *)

type t

(** {1 Construction} *)

type error = {
  index : int;           (** position of the offending event *)
  event : Event.t;
  reason : string;
}

val pp_error : Format.formatter -> error -> unit

val of_events : Event.t list -> (t, error) result
(** Validates well-formedness:  transaction identifiers are positive; per
    transaction, events alternate invocation/response with matching kinds;
    no event follows [C_k] or [A_k]. *)

val of_events_exn : Event.t list -> t
(** @raise Invalid_argument on ill-formed input. *)

val of_events_prefix : Event.t list -> t * Event.t list
(** [of_events_prefix events] is the longest well-formed prefix of [events]
    together with the dropped tail (empty when the whole input is
    well-formed).  Recovery entry point for event streams whose recording
    was cut mid-operation — a crashed domain that died between appending an
    invocation and its response can leave a torn tail that would make
    {!of_events} fail outright. *)

val empty : t

(** {1 Accessors} *)

val length : t -> int
val get : t -> int -> Event.t
val to_list : t -> Event.t list
val is_empty : t -> bool

val txns : t -> Event.tx list
(** Transactions participating in the history, ordered by first event. *)

val info : t -> Event.tx -> Txn.t
(** Summary of [H|k].
    @raise Not_found if the transaction does not participate. *)

val infos : t -> Txn.t list
(** Summaries of all participating transactions, ordered by first event. *)

val committed : t -> Event.tx list
val aborted : t -> Event.tx list
val commit_pending : t -> Event.tx list

val unique_writes : t -> bool
(** The paper's unique-writes assumption: no two transactions perform
    successful writes of the same value to the same variable.  Under it
    du-opacity is prefix-closed (Corollary 2) and coincides with opacity
    (Theorem 11). *)

val is_complete : t -> bool
(** Every transaction is complete (all invoked operations have responses). *)

val is_t_complete : t -> bool
(** Every transaction ends with [C_k] or [A_k]. *)

val is_t_sequential : t -> bool
(** No two transactions overlap.  O(T) over the transaction summaries: in
    first-event order each transaction must be t-complete and end before
    the next one starts (the last one may still be running). *)

val is_sequential : t -> bool
(** Every invocation is immediately followed by its matching response (or is
    the last event). *)

(** {1 Orders} *)

val rt_precedes : t -> Event.tx -> Event.tx -> bool
(** [rt_precedes h k m] — the paper's [T_k ≺RT T_m]: [T_k] is t-complete and
    its last event precedes the first event of [T_m]. *)

val overlap : t -> Event.tx -> Event.tx -> bool
(** Neither transaction really-time-precedes the other. *)

val live_set : t -> Event.tx -> Event.tx list
(** [Lset_H(T)] — transactions (including [T]) whose event span intersects
    [T]'s: neither one's last event precedes the other's first event. *)

val ls_precedes : t -> Event.tx -> Event.tx -> bool
(** [T ≺LS T'] — every transaction in [Lset_H(T)] is complete and takes its
    last event before the first event of [T']. *)

(** {1 Derived histories} *)

val prefix : t -> int -> t
(** [prefix h i] is the history made of the first [i] events (the paper's
    [H^i]).  O(1); shares storage with [h]. *)

val extend : t -> Event.t -> (t, error) result
(** Append one event, revalidating incrementally.  Amortised O(1); used by
    the online monitor.  Safe to call on {!empty} from several domains at
    once: extending a zero-length history always allocates fresh storage. *)

val is_prefix : t -> of_:t -> bool
(** [is_prefix h ~of_:g] — the events of [h] are the first [length h]
    events of [g].  O(1) when the two share storage (one was produced from
    the other by {!prefix} or {!extend}); a single traversal of [h]
    otherwise — never materialises event lists. *)

val project : t -> keep:(Event.tx -> bool) -> t
(** Subsequence of events of the kept transactions (used e.g. to restrict a
    history to its committed transactions for serializability checking). *)

val equivalent : t -> t -> bool
(** The paper's equivalence: same participating transactions and identical
    [H|k] for each. *)

val response_indices : t -> int list
(** Indices [i] such that event [i-1] is a response — together with [0] and
    [length], the prefix lengths at which final-state opacity of prefixes
    needs checking (extending a history by a lone invocation preserves
    final-state opacity). *)

val pp : Format.formatter -> t -> unit
(** One event per line, prefixed by its index. *)

val pp_inline : Format.formatter -> t -> unit
(** All events on one line. *)
