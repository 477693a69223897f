let status_colour = function
  | Txn.Committed -> "palegreen"
  | Txn.Aborted -> "lightcoral"
  | Txn.Commit_pending -> "khaki"
  | Txn.Abort_pending -> "lightsalmon"
  | Txn.Live -> "lightgrey"

let rt_edges h =
  let txns = History.txns h in
  let direct a b =
    History.rt_precedes h a b
    && not
         (List.exists
            (fun c ->
              c <> a && c <> b
              && History.rt_precedes h a c
              && History.rt_precedes h c b)
            txns)
  in
  List.concat_map
    (fun a -> List.filter_map (fun b -> if direct a b then Some (a, b) else None) txns)
    txns

(* Conflict order, for drawing only: per variable, every pair of accesses
   in time order with at least one write, where a committed writer's writes
   take effect at its tryC invocation and an external read at its
   response. *)
let conflict_edges h =
  let accesses : (Event.tvar, (int * Event.tx * bool) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let add var a =
    Hashtbl.replace accesses var
      (a :: Option.value ~default:[] (Hashtbl.find_opt accesses var))
  in
  List.iter
    (fun (txn : Txn.t) ->
      (if txn.Txn.status = Txn.Committed then
         match Txn.tryc_inv_index txn with
         | Some time ->
             List.iter
               (fun (var, _) -> add var (time, txn.Txn.id, true))
               (Txn.final_writes txn)
         | None -> ());
      List.iter
        (fun (r : Txn.read) ->
          match r.Txn.kind with
          | `Internal _ -> ()
          | `External -> add r.Txn.var (r.Txn.res_index, txn.Txn.id, false))
        (Txn.reads txn))
    (History.infos h);
  let edges = ref [] in
  Hashtbl.iter
    (fun _var accs ->
      let by_time = List.sort (fun (t, _, _) (t', _, _) -> Int.compare t t') in
      let rec pairs = function
        | [] -> ()
        | (_, a, wa) :: rest ->
            List.iter
              (fun (_, b, wb) ->
                if a <> b && (wa || wb) then edges := (a, b) :: !edges)
              rest;
            pairs rest
      in
      pairs (by_time accs))
    accesses;
  List.sort_uniq
    (fun (a, b) (a', b') ->
      match Int.compare a a' with 0 -> Int.compare b b' | c -> c)
    !edges

let of_history ?serialization ?cycle h =
  let buf = Buffer.create 1024 in
  let pr fmt = Fmt.kstr (Buffer.add_string buf) fmt in
  pr "digraph history {\n  rankdir=LR;\n  node [style=filled, shape=box];\n";
  (* Cycle highlighting: the listed transactions (and the edges between
     consecutive ones, closing back to the first) are drawn in red. *)
  let cycle = Option.value cycle ~default:[] in
  let on_cycle k = List.mem k cycle in
  let cycle_edges =
    match cycle with
    | [] -> []
    | first :: _ ->
        let rec pairs = function
          | [] -> []
          | [ last ] -> [ (last, first) ]
          | a :: (b :: _ as rest) -> (a, b) :: pairs rest
        in
        pairs cycle
  in
  let cycle_edge a b = List.mem (a, b) cycle_edges in
  let position k =
    match serialization with
    | None -> None
    | Some s ->
        let rec go i = function
          | [] -> None
          | k' :: _ when k' = k -> Some i
          | _ :: rest -> go (i + 1) rest
        in
        go 0 s.Serialization.order
  in
  List.iter
    (fun (txn : Txn.t) ->
      let label =
        match position txn.Txn.id with
        | Some p -> Fmt.str "T%d\\n%a\\nS[%d]" txn.Txn.id Txn.pp_status txn.Txn.status p
        | None -> Fmt.str "T%d\\n%a" txn.Txn.id Txn.pp_status txn.Txn.status
      in
      pr "  t%d [label=\"%s\", fillcolor=%s%s];\n" txn.Txn.id label
        (status_colour txn.Txn.status)
        (if on_cycle txn.Txn.id then ", color=red, penwidth=2" else ""))
    (History.infos h);
  List.iter
    (fun (a, b) ->
      if cycle_edge a b then pr "  t%d -> t%d [color=red, penwidth=2];\n" a b
      else pr "  t%d -> t%d;\n" a b)
    (rt_edges h);
  let conflicts =
    List.filter
      (fun (a, b) -> not (History.rt_precedes h a b))
      (conflict_edges h)
  in
  List.iter
    (fun (a, b) ->
      if cycle_edge a b then
        pr "  t%d -> t%d [style=dashed, color=red, penwidth=2];\n" a b
      else pr "  t%d -> t%d [style=dashed, color=grey40];\n" a b)
    conflicts;
  (* cycle edges the drawn relations do not already contain (e.g. a
     verdict-time anti-dependency repair) still need to appear *)
  List.iter
    (fun (a, b) ->
      if not (History.rt_precedes h a b || List.mem (a, b) conflicts) then
        pr "  t%d -> t%d [style=dotted, color=red, penwidth=2];\n" a b)
    cycle_edges;
  pr "}\n";
  Buffer.contents buf
