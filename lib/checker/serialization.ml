module Tx_set = Set.Make (Int)

type t = { order : Event.tx list; committed : Tx_set.t }

let make ~order ~committed =
  { order; committed = Tx_set.of_list committed }

let commits s k = Tx_set.mem k s.committed

let pp ppf s =
  let pp_tx ppf k =
    Fmt.pf ppf "T%d%s" k (if Tx_set.mem k s.committed then "" else "(A)")
  in
  Fmt.(list ~sep:(any ", ") pp_tx) ppf s.order

type claim = Final_state | Du_opaque | Last_use

(* The t-sequential history denoted by the certificate (see .mli). *)
let to_history h s =
  let completed_events k =
    let txn = History.info h k in
    let events =
      Array.to_list txn.Txn.ops
      |> List.concat_map (fun (op : Op.t) ->
             let inv = Event.Inv (k, op.Op.inv) in
             match op.Op.res with
             | Some res -> [ inv; Event.Res (k, res) ]
             | None ->
                 (* Definition 2: a pending tryC is resolved by the decision;
                    any other pending operation returns A_k. *)
                 let res =
                   match op.Op.inv with
                   | Event.Try_commit when commits s k -> Event.Committed
                   | Event.Try_commit | Event.Try_abort | Event.Read _
                   | Event.Write _ ->
                       Event.Aborted
                 in
                 [ inv; Event.Res (k, res) ])
    in
    if Txn.is_complete txn && not (Txn.is_t_complete txn) then
      events @ [ Event.Inv (k, Event.Try_commit); Event.Res (k, Event.Aborted) ]
    else events
  in
  History.of_events_exn (List.concat_map completed_events s.order)

let check_permutation h s =
  let expected = List.sort Int.compare (History.txns h) in
  let got = List.sort Int.compare s.order in
  if List.equal Int.equal expected got then Ok ()
  else Error "order is not a permutation of the transactions of the history"

let check_decisions h s =
  List.fold_left
    (fun acc k ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let txn = History.info h k in
          let decision = commits s k in
          if List.mem decision (Txn.commit_choices txn) then Ok ()
          else
            Error
              (Fmt.str
                 "T%d is %a in the history but %s in the serialization — no \
                  completion allows this"
                 k Txn.pp_status txn.Txn.status
                 (if decision then "committed" else "aborted")))
    (Ok ()) s.order

let check_real_time h s =
  (* Clause (2) of Definition 3: T_k ≺RT T_m implies T_k <S T_m.  A
     transaction T_k is out of place iff some t-complete T_m after it in
     the order ends before T_k starts, so a suffix minimum of the last
     indices of t-complete transactions finds the first offender in one
     pass; its witness T_m is then the first such transaction after it. *)
  let infos = Array.of_list (List.map (History.info h) s.order) in
  let n = Array.length infos in
  let suffix_min = Array.make (n + 1) max_int in
  for i = n - 1 downto 0 do
    let txn = infos.(i) in
    suffix_min.(i) <-
      (if Txn.is_t_complete txn then min txn.Txn.last_index suffix_min.(i + 1)
       else suffix_min.(i + 1))
  done;
  let rec offender i =
    if i >= n then None
    else if suffix_min.(i + 1) < infos.(i).Txn.first_index then Some i
    else offender (i + 1)
  in
  match offender 0 with
  | None -> Ok ()
  | Some i ->
      let start = infos.(i).Txn.first_index in
      let rec witness j =
        let txn = infos.(j) in
        if Txn.is_t_complete txn && txn.Txn.last_index < start then txn.Txn.id
        else witness (j + 1)
      in
      Error
        (Fmt.str "real-time order violated: T%d precedes T%d in the \
                  history but follows it in the serialization"
           (witness (i + 1)) infos.(i).Txn.id)

(* Clause (3) of Definition 3, recomputed directly from the definition of the
   local serialization S^{k,X}_H.  For each value-returning read, replay the
   serialization prefix before T_k keeping only transactions T_m whose
   tryC_m invocation appears in H before the read's response. *)
let check_local_serializations h s =
  (* One pass over the order.  [writers] maps each variable [x] to the
     [(tryC invocation index, final value)] of every committed predecessor
     that writes [x], newest first.  The local serialization of a read
     exposes the first of them whose tryC was invoked before the read's
     response — the deferred-update filter — so a read only steps over
     the committed writers of its variable that invoked tryC after it
     responded. *)
  let writers : (Event.tvar, (int * Event.value) list) Hashtbl.t =
    Hashtbl.create 16
  in
  let check_read k (read : Txn.read) =
    match read.Txn.kind with
    | `Internal own ->
        if read.Txn.value = own then Ok ()
        else
          Error
            (Fmt.str "T%d: internal read of %a returned %d, own write was %d"
               k Event.pp_tvar read.Txn.var read.Txn.value own)
    | `External ->
        let expected =
          match
            List.find_opt
              (fun (tryc, _) -> tryc < read.Txn.res_index)
              (Option.value (Hashtbl.find_opt writers read.Txn.var) ~default:[])
          with
          | Some (_, v) -> v
          | None -> Event.init_value
        in
        if read.Txn.value = expected then Ok ()
        else
          Error
            (Fmt.str
               "T%d: read of %a returned %d but its local serialization \
                (deferred-update filter) yields %d"
               k Event.pp_tvar read.Txn.var read.Txn.value expected)
  in
  let rec go = function
    | [] -> Ok ()
    | k :: rest ->
        let txn = History.info h k in
        let result =
          List.fold_left
            (fun acc read ->
              match acc with
              | Error _ -> acc
              | Ok () -> check_read k read)
            (Ok ()) (Txn.reads txn)
        in
        (match result with
        | Error _ -> result
        | Ok () ->
            (match Txn.tryc_inv_index txn with
            | Some tryc when commits s k ->
                List.iter
                  (fun (x, v) ->
                    let older =
                      Option.value (Hashtbl.find_opt writers x) ~default:[]
                    in
                    Hashtbl.replace writers x ((tryc, v) :: older))
                  (Txn.final_writes txn)
            | Some _ | None -> ());
            go rest)
  in
  go s.order

(* Last-use legality (the [Last_use] claim), replayed over the
   serialization order directly.  [Semantics.legal] is deliberately NOT
   reused here: it demands every transaction — aborted ones included —
   read the latest committed state, which is exactly the clause last-use
   opacity relaxes.  Instead:

   - a reader the serialization {e commits} is Vis-legal: each external
     read sees the final write of the latest {e committed} preceding
     writer of the variable (initial value if none);
   - a reader it {e aborts} is judged against LVis with optional
     visibility of closed writers: scanning preceding writers latest
     first, a committed writer is a mandatory stop (value must match),
     while a non-committed writer whose closing write on the variable
     (its last write to it in [h]) responded before the read is a
     candidate the witness may include (legal if the value matches) or
     skip.  Internal reads must return the transaction's own latest
     preceding write in both cases. *)
let check_last_use h s =
  let closing_cache = Hashtbl.create 16 in
  let writes_cache = Hashtbl.create 16 in
  let closing m =
    match Hashtbl.find_opt closing_cache m with
    | Some v -> v
    | None ->
        let v = Txn.closing_writes (History.info h m) in
        Hashtbl.replace closing_cache m v;
        v
  in
  let final_writes m =
    match Hashtbl.find_opt writes_cache m with
    | Some v -> v
    | None ->
        let v = Txn.final_writes (History.info h m) in
        Hashtbl.replace writes_cache m v;
        v
  in
  let check_read k k_commits before_rev (read : Txn.read) =
    match read.Txn.kind with
    | `Internal own ->
        if read.Txn.value = own then Ok ()
        else
          Error
            (Fmt.str "T%d: internal read of %a returned %d, own write was %d"
               k Event.pp_tvar read.Txn.var read.Txn.value own)
    | `External ->
        let closed_before m =
          match List.assoc_opt read.Txn.var (closing m) with
          | Some p -> p < read.Txn.res_index
          | None -> false
        in
        let rec scan = function
          | [] -> read.Txn.value = Event.init_value
          | m :: rest -> (
              match List.assoc_opt read.Txn.var (final_writes m) with
              | None -> scan rest
              | Some v ->
                  if commits s m then read.Txn.value = v
                  else if
                    (not k_commits) && closed_before m && read.Txn.value = v
                  then true
                  else scan rest)
        in
        if scan before_rev then Ok ()
        else
          Error
            (Fmt.str
               "T%d: read of %a returned %d, not justified by the latest \
                committed preceding write nor by a closed preceding writer"
               k Event.pp_tvar read.Txn.var read.Txn.value)
  in
  let rec go before_rev = function
    | [] -> Ok ()
    | k :: rest ->
        let txn = History.info h k in
        let result =
          List.fold_left
            (fun acc read ->
              match acc with
              | Error _ -> acc
              | Ok () -> check_read k (commits s k) before_rev read)
            (Ok ()) (Txn.reads txn)
        in
        (match result with
        | Error _ -> result
        | Ok () -> go (k :: before_rev) rest)
  in
  go [] s.order

let validate ?(claim = Du_opaque) ?(respect_rt = true) h s =
  let ( let* ) r f = match r with Ok () -> f () | Error _ as e -> e in
  let* () = check_permutation h s in
  let* () = check_decisions h s in
  let* () = if respect_rt then check_real_time h s else Ok () in
  match claim with
  | Last_use -> check_last_use h s
  | Final_state | Du_opaque ->
      let* () = Semantics.legal (to_history h s) in
      (match claim with
      | Final_state | Last_use -> Ok ()
      | Du_opaque -> check_local_serializations h s)
