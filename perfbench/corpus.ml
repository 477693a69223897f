(* Workload inputs, generated from the seed alone, and the reference
   verdicts they are checked against.  The program under test only ever
   sees the generated bytes. *)

open Tm_safety

type stream = {
  events : Event.t list;
  len : int;
  mutable expected : Service.Protocol.status option;
      (* reference verdict, computed at set-up by the offline Monitor;
         [None] when the Monitor raised on the stream, so no verdict the
         server gives for it can be right *)
}

let record ~stm ~values ~threads ~txns ~ops ~vars ?(theta = 0.) seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = threads;
      txns_per_thread = (txns + threads - 1) / threads;
      ops_per_txn = ops;
      n_vars = vars;
      values;
      zipf_theta = theta;
    }
  in
  (Sim.Runner.run ~stm ~params ~seed ()).Sim.Runner.history

(* A recording with crashes, stalls and aborts injected: transactions are
   left live or commit-pending at the end of the stream. *)
let faulted ~stm ~values ~txns ~vars seed =
  let params =
    {
      Stm.Workload.default with
      n_threads = 3;
      txns_per_thread = txns / 3;
      ops_per_txn = 3;
      n_vars = vars;
      values;
    }
  in
  let spec =
    Sim.Faults.sample ~n_threads:3 ~horizon:(Sim.Faults.horizon params) ~seed ()
  in
  (Sim.Faults.run_one ~check:false ~stm ~params ~spec ~seed ())
    .Sim.Faults.history

let status_of_outcome = function
  | `Ok -> Service.Protocol.S_ok
  | `Violation why -> Service.Protocol.S_violation why
  | `Budget why -> Service.Protocol.S_budget why

let stream h =
  let events = History.to_list h in
  { events; len = List.length events; expected = None }

(* Reference verdicts by the offline sequential Monitor, under the same
   node budget the server runs with.  One domain: two monitors started at
   once on two domains both extend the shared [History.empty] buffer in
   place, which corrupts their histories (seen as "Search.sync: response
   without known transaction").  Returns how many references are not a
   decision (a Budget, or a Monitor that raised): each is a failed set-up,
   and no verdict for that stream can check out. *)
let compute_references ~max_nodes pool =
  let bad =
    Array.fold_left
      (fun bad (s : stream) ->
        let m = Monitor.create ~max_nodes () in
        s.expected <-
          (match Monitor.push_all m s.events with
          | outcome -> Some (status_of_outcome outcome)
          | exception e ->
              prerr_endline ("perfbench: the reference Monitor raised: " ^ Printexc.to_string e);
              None);
        match s.expected with
        | Some (Service.Protocol.S_ok | Service.Protocol.S_violation _) -> bad
        | Some (Service.Protocol.S_budget _) | None -> bad + 1)
      0 pool
  in
  if bad > 0 then
    prerr_endline (Printf.sprintf "perfbench: %d reference verdicts are not a decision" bad);
  bad

(* Whether a verdict checks out against the stream's reference.  A Budget
   verdict never does, even when the reference ran out of budget too. *)
let checks_out (s : stream) status =
  match status with
  | Service.Protocol.S_budget _ -> false
  | Service.Protocol.S_ok | Service.Protocol.S_violation _ -> Some status = s.expected

(* A reference that is wrong on purpose: the self-check uses it to show
   that a mismatching verdict is counted as a failure. *)
let wrong_status = function
  | Some Service.Protocol.S_ok -> Some (Service.Protocol.S_violation "deliberately wrong")
  | Some (Service.Protocol.S_violation _ | Service.Protocol.S_budget _) | None ->
      Some Service.Protocol.S_ok

(* --- offline-unique: TL2 and NOrec recordings with unique writes ---------- *)

type history = {
  bytes : string;  (* TMH1 binary history, as `tm check` reads it *)
  h_events : int;
  expect_sat : bool;  (* a safe STM's recording is du-opaque *)
}

(* [(target events, count)]: about 10 events per transaction attempt. *)
let offline_sizes ~smoke =
  if smoke then [ (1_000, 8); (5_000, 2) ]
  else [ (1_000, 128); (10_000, 8); (100_000, 2) ]

let is_safe stm = List.mem stm Stm.Registry.safe

let offline ~smoke ~seed =
  let k = ref 0 in
  List.concat_map
    (fun (target, count) ->
      List.init count (fun _ ->
          incr k;
          let stm = if !k mod 2 = 0 then "tl2" else "norec" in
          let h =
            record ~stm ~values:`Unique ~threads:4 ~txns:(target / 10) ~ops:4
              ~vars:64
              ((seed * 1000) + !k)
          in
          {
            bytes = Service.Codec.history_to_string h;
            h_events = History.length h;
            expect_sat = is_safe stm;
          }))
    (offline_sizes ~smoke)
  |> Array.of_list

(* --- stream-dup: duplicate written values, so the graph stays Ambiguous ---- *)

(* STM retries rewrite the same value ([`Range] values over few variables),
   which defeats the unique-writes premise.  Each kind contributes
   [count] distinct streams of about 0.8k events (see README.md for why
   not 2.5k). *)
let dup_kinds ~smoke =
  let txns = if smoke then 40 else 90 in
  let n k = if smoke then 1 else k in
  let rec_ stm seed =
    record ~stm ~values:(`Range 100) ~threads:3 ~txns ~ops:3 ~vars:8 seed
  in
  let fault stm seed =
    faulted ~stm ~values:(`Range 100) ~txns:(txns - 10) ~vars:8 seed
  in
  [
    ("tl2", rec_ "tl2", n 384);
    ("mvcc", rec_ "mvcc", n 256);
    ("norec", rec_ "norec", n 256);
    ("tl2-fault", fault "tl2", n 256);
    ("norec-fault", fault "norec", n 128);
  ]

let dup_pool ~smoke ~seed =
  List.mapi
    (fun k (_, gen, count) ->
      List.init count (fun i ->
          let rseed = (seed * 10_000) + (k * 1000) + i in
          stream (gen rseed)))
    (dup_kinds ~smoke)
  |> List.concat |> Array.of_list

(* --- open-durable: Zipfian TL2 sessions with unique writes --------------- *)

let zipf_pool ~smoke ~seed =
  Array.init (if smoke then 4 else 64) (fun i ->
      let rseed = (seed * 1000) + i in
      stream
        (record ~stm:"tl2" ~values:`Unique ~threads:4
           ~txns:(if smoke then 30 else 40)
           ~ops:3 ~vars:16 ~theta:0.9 rseed))

(* Which pool entry the [i]-th session replays: consecutive seeded
   shuffles of the whole pool, so any run replays every entry equally
   often up to one pass, independent of how many connections carry the
   load. *)
let deal ~seed ~pool_size n =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let pass = Array.init pool_size Fun.id in
  Array.init n (fun i ->
      let k = i mod pool_size in
      if k = 0 then
        for j = pool_size - 1 downto 1 do
          let r = Random.State.int rng (j + 1) in
          let x = pass.(j) in
          pass.(j) <- pass.(r);
          pass.(r) <- x
        done;
      pass.(k))
