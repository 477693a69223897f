type outcome = [ `Ok | `Violation of string | `Budget of string ]

(* The running certificate is held unmaterialised: [rev_order] accumulates
   transactions by an O(1) cons (newest first) and [committed] is the
   decision set; the forward {!Serialization.t} view is (re)built only when
   something needs it — a validator run, a search hint, the [certificate]
   accessor — and cached until the order or the decisions change.

   Invariant (while no failure has been recorded): the certificate is a
   valid du-opaque serialization of [history], i.e.
   [Serialization.validate ~claim:Du_opaque history (certificate)] holds.
   Every fast-path acceptance below preserves it by construction; the
   search fallback re-establishes it with a fresh witness. *)

(* What revalidation needs of one transaction, kept up to date by [push]
   so that a response costs table lookups instead of rebuilding
   [History.info] summaries ([Txn.final_writes] allocates and sorts on every
   call) for each certificate predecessor it scans. *)
type txn = {
  mutable pending : Event.invocation;  (* the latest invocation *)
  mutable tryc : int;  (* index of the tryC invocation; [max_int] before *)
  mutable final_writes : (Event.tvar * Event.value) list;
      (* latest successful write per variable, one entry each *)
  mutable reads : Txn.read list;  (* value-returning reads, newest first *)
}

type t = {
  max_nodes : int option;
  inc : Du_opacity.inc;  (* persistent search context for the fallback *)
  graph : Conflict_graph.Inc.t;
      (* incremental conflict-graph backend, fed every accepted event;
         consulted before each backtracking search and trusted whenever it
         decides — see [run_search] *)
  mutable history : History.t;
  mutable failed : outcome option;  (* [None] while the prefix is du-opaque *)
  mutable rev_order : Event.tx list;
  mutable committed : Serialization.Tx_set.t;
  mutable forward : Serialization.t option;  (* cache of the forward view *)
  mutable violation_index : int option;
  mutable events_seen : int;
  mutable responses_seen : int;
  mutable fastpath_hits : int;
  mutable graph_hits : int;
  mutable searches_run : int;
  mutable nodes_total : int;
  mutable pending : int;
      (* transactions in [history] that are not yet t-complete, maintained
         incrementally: +1 on a transaction's first invocation, -1 on its
         C_k/A_k.  [snapshot] is taken per batch by the streaming service,
         so recomputing this from [History.infos] (O(T log T)) would make
         per-session accounting quadratic over a stream. *)
  txns : (Event.tx, txn) Hashtbl.t;
      (* every transaction in the running certificate's order — O(1)
         membership where scanning the order would make a long stream of
         permanently-pending transactions quadratic *)
}

let create ?max_nodes () =
  {
    max_nodes;
    inc = Du_opacity.incremental ();
    graph = Conflict_graph.Inc.create ();
    history = History.empty;
    failed = None;
    rev_order = [];
    committed = Serialization.Tx_set.empty;
    forward = None;
    violation_index = None;
    events_seen = 0;
    responses_seen = 0;
    fastpath_hits = 0;
    graph_hits = 0;
    searches_run = 0;
    nodes_total = 0;
    pending = 0;
    txns = Hashtbl.create 64;
  }

let force_forward m =
  match m.forward with
  | Some s -> s
  | None ->
      let s =
        { Serialization.order = List.rev m.rev_order; committed = m.committed }
      in
      m.forward <- Some s;
      s

let fail m o =
  m.failed <- Some o;
  if m.violation_index = None then
    m.violation_index <- Some (History.length m.history);
  o

let run_search m h' =
  (* The graph backend has already ingested every accepted event; when it
     decides the prefix, no backtracking search is needed.  A [Sat]
     certificate is only adopted after the independent validator accepts
     it, so the monitor's invariant is preserved unconditionally; an
     [Unsat] is sound by construction (forced edges only, no heuristic
     taint).  Only [Ambiguous] — duplicate written values, retracted
     reads-from bindings, heuristic contradictions — reaches the search. *)
  let graph_decision =
    match Conflict_graph.Inc.verdict m.graph with
    | Conflict_graph.Sat cert -> (
        match Serialization.validate ~claim:Serialization.Du_opaque h' cert with
        | Ok () -> Some (Verdict.Sat cert)
        | Error _ -> None (* defensive: arbitrate with the search *))
    | Conflict_graph.Unsat why -> Some (Verdict.Unsat why)
    | Conflict_graph.Ambiguous _ -> None
  in
  match graph_decision with
  | Some (Verdict.Sat cert) ->
      m.graph_hits <- m.graph_hits + 1;
      m.rev_order <- List.rev cert.Serialization.order;
      m.committed <- cert.Serialization.committed;
      m.forward <- Some cert;
      `Ok
  | Some (Verdict.Unsat why) ->
      m.graph_hits <- m.graph_hits + 1;
      fail m
        (`Violation
          (Fmt.str "prefix of length %d is not du-opaque: %s"
             (History.length h') why))
  | Some (Verdict.Unknown _) | None ->
  let hint = (force_forward m).Serialization.order in
  let verdict, stats =
    Du_opacity.check_inc ?max_nodes:m.max_nodes ~hint m.inc h'
  in
  m.searches_run <- m.searches_run + 1;
  m.nodes_total <- m.nodes_total + stats.Search.nodes;
  match verdict with
  | Verdict.Sat cert ->
      m.rev_order <- List.rev cert.Serialization.order;
      m.committed <- cert.Serialization.committed;
      m.forward <- Some cert;
      `Ok
  | Verdict.Unsat why ->
      fail m
        (`Violation
          (Fmt.str "prefix of length %d is not du-opaque: %s"
             (History.length h') why))
  | Verdict.Unknown why -> fail m (`Budget why)

(* Expected values for an external read of [var] whose response sits at
   [res_index], scanning certificate predecessors latest-first ([before_rev])
   and skipping transaction [skip] (0 = none; ids are positive).  Returns the
   final-state expectation (latest committed writer, Definition 4 legality)
   and the local-serialization expectation (latest committed writer retained
   by the deferred-update filter, Definition 3(3)); a valid certificate needs
   the read to return both. *)
let expected m ~skip ~res_index var before_rev =
  let rec go sem du = function
    | [] ->
        ( Option.value sem ~default:Event.init_value,
          Option.value du ~default:Event.init_value )
    | w :: rest -> (
        match sem, du with
        | Some s, Some d -> (s, d)
        | _ when w = skip -> go sem du rest
        | _ -> (
            let txn = Hashtbl.find m.txns w in
            match List.assoc_opt var txn.final_writes with
            | Some v when Serialization.Tx_set.mem w m.committed ->
                let sem = match sem with Some _ -> sem | None -> Some v in
                let du =
                  match du with
                  | Some _ -> du
                  | None -> if txn.tryc < res_index then Some v else None
                in
                go sem du rest
            | Some _ | None -> go sem du rest))
  in
  go None None before_rev

(* Would every value-returning read of [k] be valid if [k] sat at the end of
   the certificate order?  Sufficient for adopting the order that moves [k]
   there: [k]'s moved segment is the only thing the validator would see
   differently — transactions between [k]'s old slot and the end lose only
   an entry that contributed nothing (aborted, or committing just now with
   no read downstream of the move), and the real-time clause cannot bind
   [k] forward since [k]'s latest event is the newest in the history. *)
let reads_valid_at_end m k =
  List.for_all
    (fun (r : Txn.read) ->
      match r.Txn.kind with
      | `Internal own -> r.Txn.value = own
      | `External ->
          let sem, du =
            expected m ~skip:k ~res_index:r.Txn.res_index r.Txn.var
              m.rev_order
          in
          r.Txn.value = sem && r.Txn.value = du)
    (Hashtbl.find m.txns k).reads

let move_to_end m k =
  (match m.rev_order with
  | k' :: _ when k' = k -> ()  (* already last *)
  | _ -> m.rev_order <- k :: List.filter (fun k' -> k' <> k) m.rev_order);
  m.forward <- None

let handle_response m h' k res =
  let hit () =
    m.fastpath_hits <- m.fastpath_hits + 1;
    `Ok
  in
  match res with
  | Event.Write_ok ->
      (* A live transaction is aborted by the running certificate, so its
         write is invisible to every other transaction and unconstrained. *)
      hit ()
  | Event.Read_ok v -> (
      (* In place first: the new read is the only clause the validator would
         check afresh, so compare it against the expectations at [k]'s
         current certificate position.  Failing that, try sliding [k] (live,
         hence certificate-aborted) to the end of the order — the common
         case of a read that observed a transaction committed after [k]'s
         birth.  Only then search. *)
      match (Hashtbl.find m.txns k).reads with
      | [] -> run_search m h' (* defensive: cannot happen on Read_ok *)
      | r :: _ ->
          let ok_in_place =
            match r.Txn.kind with
            | `Internal own -> v = own
            | `External ->
                let rec drop_to = function
                  | [] -> []
                  | k' :: rest -> if k' = k then rest else drop_to rest
                in
                let sem, du =
                  expected m ~skip:0 ~res_index:r.Txn.res_index r.Txn.var
                    (drop_to m.rev_order)
                in
                v = sem && v = du
          in
          if ok_in_place then hit ()
          else if reads_valid_at_end m k then begin
            move_to_end m k;
            hit ()
          end
          else run_search m h')
  | Event.Committed ->
      if Serialization.Tx_set.mem k m.committed then
        (* An earlier search already decided to commit [k]; the response
           merely resolves the pending tryC the way the certificate does. *)
        hit ()
      else if reads_valid_at_end m k then begin
        (* Flip [k]'s decision to commit while moving it to the end: its
           writes become visible to no one (nothing reads after the newest
           event) and the deferred-update filter retains it for no earlier
           read, so only [k]'s own reads need rechecking. *)
        move_to_end m k;
        m.committed <- Serialization.Tx_set.add k m.committed;
        m.forward <- None;
        hit ()
      end
      else begin
        (* Commit [k] in place — e.g. a snapshot-style transaction whose
           reads are older than an interleaved writer — and let the full
           certificate validator arbitrate. *)
        let cand =
          {
            Serialization.order = List.rev m.rev_order;
            committed = Serialization.Tx_set.add k m.committed;
          }
        in
        match Serialization.validate ~claim:Serialization.Du_opaque h' cand with
        | Ok () ->
            m.committed <- cand.Serialization.committed;
            m.forward <- Some cand;
            hit ()
        | Error _ -> run_search m h'
      end
  | Event.Aborted ->
      if not (Serialization.Tx_set.mem k m.committed) then
        (* The certificate already aborts [k]: the pending operation was
           resolved with A_k in the completion, which the response now
           makes literal. *)
        hit ()
      else begin
        (* A commit-pending transaction the certificate chose to commit
           (someone read its value) aborted after all; flip and revalidate,
           searching — typically refuting — when the flip fails. *)
        let cand =
          {
            Serialization.order = List.rev m.rev_order;
            committed = Serialization.Tx_set.remove k m.committed;
          }
        in
        match Serialization.validate ~claim:Serialization.Du_opaque h' cand with
        | Ok () ->
            m.committed <- cand.Serialization.committed;
            m.forward <- Some cand;
            hit ()
        | Error _ -> run_search m h'
      end

(* Keep [k]'s table entry in step with the accepted event [ev] at [index]. *)
let record m index ev =
  match ev with
  | Event.Inv (k, inv) -> (
      let tryc =
        match inv with
        | Event.Try_commit -> index
        | Event.Read _ | Event.Write _ | Event.Try_abort -> max_int
      in
      match Hashtbl.find_opt m.txns k with
      | Some txn ->
          txn.pending <- inv;
          txn.tryc <- min tryc txn.tryc
      | None ->
          (* A transaction that never responds again — a crashed thread, a
             stalled tryC — simply stays registered here forever: it
             constrains nothing until a response event involves it. *)
          Hashtbl.replace m.txns k
            { pending = inv; tryc; final_writes = []; reads = [] };
          m.rev_order <- k :: m.rev_order;
          m.forward <- None;
          m.pending <- m.pending + 1)
  | Event.Res (k, res) -> (
      let txn = Hashtbl.find m.txns k in
      match txn.pending, res with
      | Event.Write (x, v), Event.Write_ok ->
          txn.final_writes <-
            (x, v) :: List.filter (fun (y, _) -> y <> x) txn.final_writes
      | Event.Read x, Event.Read_ok v ->
          let kind =
            match List.assoc_opt x txn.final_writes with
            | Some own -> `Internal own
            | None -> `External
          in
          txn.reads <-
            { Txn.var = x; value = v; res_index = index; kind } :: txn.reads
      | _, (Event.Committed | Event.Aborted) ->
          (* [extend] validated the response against [k]'s pending
             invocation, so C_k/A_k t-completes exactly one counted
             transaction; later events for [k] are ill-formed and never
             reach here. *)
          m.pending <- m.pending - 1
      | _, (Event.Write_ok | Event.Read_ok _) -> ())

let push m ev =
  match m.failed with
  | Some o -> o
  | None -> (
      m.events_seen <- m.events_seen + 1;
      match History.extend m.history ev with
      | Error e -> fail m (`Violation (Fmt.str "%a" History.pp_error e))
      | Ok h' -> (
          m.history <- h';
          (* Once the graph can only answer [Ambiguous] it stays that way,
             so feeding it further events is wasted work. *)
          if not (Conflict_graph.Inc.ambiguous_forever m.graph) then
            Conflict_graph.Inc.push m.graph ev;
          record m (History.length h' - 1) ev;
          match ev with
          | Event.Inv _ ->
              (* Extending by an invocation preserves du-opacity and its
                 certificate (see .mli). *)
              `Ok
          | Event.Res (k, res) ->
              m.responses_seen <- m.responses_seen + 1;
              handle_response m h' k res))

let push_all m events =
  List.fold_left
    (fun _ ev -> push m ev)
    (match m.failed with Some o -> o | None -> `Ok)
    events

let history m = m.history

let certificate m =
  match m.failed with None -> Some (force_forward m) | Some _ -> None

let pending_txns m = m.pending

let violation_index m = m.violation_index
let events_seen m = m.events_seen
let responses_seen m = m.responses_seen
let fastpath_hits m = m.fastpath_hits
let graph_hits m = m.graph_hits
let searches_run m = m.searches_run
let nodes_total m = m.nodes_total

type snapshot = {
  events : int;
  responses : int;
  fastpath_hits : int;
  searches : int;
  nodes : int;
  pending : int;
}

let snapshot (m : t) =
  {
    events = m.events_seen;
    responses = m.responses_seen;
    fastpath_hits = m.fastpath_hits;
    searches = m.searches_run;
    nodes = m.nodes_total;
    pending = pending_txns m;
  }

let status (m : t) = match m.failed with Some o -> o | None -> `Ok

(* --- serializable checkpoints ------------------------------------------- *)

type persisted = {
  p_max_nodes : int option;
  p_events : Event.t list;
  p_status : outcome;
  p_violation_index : int option;
  p_counters : snapshot;
}

let persist (m : t) =
  {
    p_max_nodes = m.max_nodes;
    p_events = History.to_list m.history;
    p_status = status m;
    p_violation_index = m.violation_index;
    p_counters = snapshot m;
  }

(* Rebuild by replaying the accepted history through a fresh monitor: the
   original built its certificate, search context, and sticky state from
   exactly this push sequence, so the deterministic replay reproduces them
   bit for bit.  The recorded counters are then adopted wholesale — they can
   legitimately exceed the replayed ones (events rejected by [History.extend]
   are counted but never enter [history]) and must survive a round-trip so
   hit rates are checkpoint-transparent.  A recorded [`Ok] that the replay
   refutes convicts the blob (or the code) of corruption; a recorded failure
   is adopted even where the replayed history alone stays clean, because the
   failing event may have been rejected before reaching the history. *)
let of_persisted p =
  let m = create ?max_nodes:p.p_max_nodes () in
  let replayed = push_all m p.p_events in
  match p.p_status, replayed with
  | `Ok, (`Violation why | `Budget why) ->
      Error
        (Fmt.str "monitor snapshot is corrupt: replay refutes it (%s)" why)
  | `Ok, `Ok | (`Violation _ | `Budget _), _ ->
      (match p.p_status with
      | `Ok -> ()
      | (`Violation _ | `Budget _) as o ->
          m.failed <- Some o;
          m.violation_index <- p.p_violation_index);
      m.events_seen <- p.p_counters.events;
      m.responses_seen <- p.p_counters.responses;
      m.fastpath_hits <- p.p_counters.fastpath_hits;
      m.searches_run <- p.p_counters.searches;
      m.nodes_total <- p.p_counters.nodes;
      Ok m
