type result =
  | Sat of Serialization.t
  | Unsat of string
  | Ambiguous of string

let of_verdict = function
  | Verdict.Sat s -> Sat s
  | Verdict.Unsat why -> Unsat why
  | Verdict.Unknown why -> Ambiguous why

let to_verdict = function
  | Sat s -> Verdict.Sat s
  | Unsat why -> Verdict.Unsat why
  | Ambiguous why -> Verdict.Unknown why

let is_sat = function Sat _ -> true | Unsat _ | Ambiguous _ -> false
let is_unsat = function Unsat _ -> true | Sat _ | Ambiguous _ -> false

let pp ppf = function
  | Sat s -> Fmt.pf ppf "Sat [%a]" Serialization.pp s
  | Unsat why -> Fmt.pf ppf "Unsat (%s)" why
  | Ambiguous why -> Fmt.pf ppf "Ambiguous (%s)" why

let decoration h =
  List.map
    (fun (t : Txn.t) -> (t.Txn.id, Txn.closing_writes t))
    (History.infos h)

let check_stats ?max_nodes ?hint h =
  let v, stats = Search.search { Search.lu with max_nodes; hint } h in
  (of_verdict v, stats)

let check ?max_nodes ?hint h = fst (check_stats ?max_nodes ?hint h)

let check_fast ?max_nodes h =
  (* A du-opacity certificate is verbatim a last-use one: closed-writer
     visibility is optional, so a witness that never uses it still
     witnesses the weaker criterion.  Only the graph's [Sat] transfers —
     a du violation says nothing about last-use opacity. *)
  match Conflict_graph.check h with
  | Conflict_graph.Sat s -> Sat s
  | Conflict_graph.Unsat _ | Conflict_graph.Ambiguous _ -> check ?max_nodes h

type inc = Search.ictx

let incremental () = Search.ictx Search.lu

let check_inc ?max_nodes ?hint inc h =
  let v, stats = Search.search_ictx ?max_nodes ?hint inc h in
  (of_verdict v, stats)
