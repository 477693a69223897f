(** Serialization certificates and their independent validation.

    A serialization of a history [H] (Definition 3) is represented by the
    order in which the transactions of [H] appear in the equivalent legal
    t-complete t-sequential history [S], together with the commit decision
    taken for each transaction by the chosen completion of [H]
    (Definition 2).  The full history [S] is recoverable: [S] runs the
    transactions in [order], each contributing its operations from [H]
    completed according to its decision.

    {!validate} checks a certificate against every clause of the paper's
    definitions {e from scratch} — it shares no code with the search engine
    that produced the certificate, so agreement between the two is a
    meaningful cross-check (and is itself tested). *)

module Tx_set : Set.S with type elt = Event.tx

type t = { order : Event.tx list; committed : Tx_set.t }

val make : order:Event.tx list -> committed:Event.tx list -> t
val commits : t -> Event.tx -> bool
val pp : Format.formatter -> t -> unit

(** Which definition the certificate claims to witness. *)
type claim =
  | Final_state
      (** final-state opacity (Definition 4): equivalence to a completion,
          real-time order, legality *)
  | Du_opaque
      (** du-opacity (Definition 3): [Final_state] plus legality of every
          value-returning read in its local serialization w.r.t. [H] and
          [S] *)
  | Last_use
      (** final-state last-use opacity (Siek–Wojciechowski, per-location
          rendering): equivalence, decisions and real-time order as in
          [Final_state], but legality is replayed directly over [order] —
          committed readers see the latest committed preceding write,
          while non-committed readers may {e additionally} read from a
          preceding non-committed writer whose {e closing write} on the
          variable ({!Txn.closing_writes}) responded in [H] before the
          read did.  Closed-writer visibility is optional per read, so
          every valid [Final_state] or [Du_opaque] certificate also
          validates under this claim. *)

val validate :
  ?claim:claim ->
  ?respect_rt:bool ->
  History.t ->
  t ->
  (unit, string) result
(** [validate ~claim h s] — defaults: [claim = Du_opaque],
    [respect_rt = true].  [respect_rt:false] drops clause (2) (used for
    plain serializability).  On failure the error pinpoints the violated
    clause.  O(n log T) for [n] events and [T] transactions: the real-time
    clause is one suffix-minimum pass over the order, and each read's local
    serialization comes from a per-variable stack of committed writers,
    where the read only steps over writers ordered before it whose [tryC]
    was invoked after it responded.  The [Last_use] claim scans a read's
    preceding writers and may take O(T) per read. *)

val to_history : History.t -> t -> History.t
(** The t-complete t-sequential history [S] denoted by the certificate:
    transactions laid out sequentially in [order], each with its events from
    [H] completed according to its decision (pending operations answered
    [A_k]; missing or pending [tryC_k] resolved per the decision;
    transactions that never invoked [tryC_k] get [tryC_k · A_k] appended, as
    in Definition 2). *)
