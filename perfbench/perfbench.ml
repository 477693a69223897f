(* perfbench: the checker's benchmark.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 --tm PATH
                   [--smoke] [--corrupt-reference] [--starve-search]

   Untraced (--trace 0), the workload runs end to end against the process
   under test and prints the end-to-end metrics.  Traced (--trace 1), it
   runs end to end for half the time (for the server-side counters and the
   residual), then feeds the same inputs through the in-process pipeline
   twice, untimed and timed per layer call, and prints the per-layer
   metrics.  The last line of standard output is the JSON result.  See
   README.md for the metrics and why each workload exists. *)

open Tm_safety
module P = Service.Protocol

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tm : string;
  smoke : bool;
  corrupt : bool;  (* flip one reference verdict: the gate must catch it *)
  starve : bool;
      (* a search node budget of 1 everywhere: searches end in Budget, which
         the gate must count as failed even where the reference agrees *)
}

(* Search node budget of the offline fallback and of every monitor,
   server and reference alike: every operation ends. *)
let default_max_nodes = 200_000
let max_nodes o = if o.starve then 1 else default_max_nodes

(* Client threads (= connections) of the generator, and server domains. *)
let nproc = max 1 (min 2 (Domain.recommended_domain_count ()))

(* Server worker domains: one core stays free for the generator, so no
   domain of the server waits for a descheduled sibling at a collection. *)
let workers = max 1 (nproc - 1)

(* p99 latency limit of the open loop's sustained rate. *)
let latency_limit_ms = 250.

let scratch = Printf.sprintf ".perfbench/run-%d" (Unix.getpid ())
let ms x = x *. 1e3

type outcome = {
  metrics : Util.metric list;
  attempted : int;
  failed : int;
}

(* --- set-up --------------------------------------------------------------- *)

(* Set up [reps] times (corpus, references, server start) and keep the
   last; set-up time is the median. *)
let set_up o f =
  let reps = if o.smoke then 1 else 3 in
  let rec go k times =
    let t0 = Util.now () in
    let r = f ~last:(k = reps) in
    let times = (Util.now () -. t0) :: times in
    if k = reps then (r, Util.median times) else go (k + 1) times
  in
  go 1 []

let server_dir name =
  let d = Filename.concat scratch name in
  Util.mkdir_p d;
  d

let serve_args o ~domains ~shards ?journal () =
  [
    "--domains"; string_of_int domains; "--shards"; string_of_int shards;
    "--max-nodes"; string_of_int (max_nodes o); "--queue"; "256";
  ]
  @ match journal with Some d -> [ "--journal"; d ] | None -> []

let start_or_stop o ~dir ~args ~last =
  let srv = Proc.start_server ~tm:o.tm ~dir ~args in
  (Load.on_overrun := fun () -> Proc.kill srv);
  if last then Some srv
  else begin
    Proc.stop srv;
    None
  end

(* --- end-to-end summaries ---------------------------------------------------- *)

(* [(finish time, latency)] of the operations that checked out. *)
let latencies samples f =
  List.filter_map (fun (s : Load.sample) -> if s.ok then Some (s.finish, f s) else None) samples

let p99 lat = Util.percentile (Util.sorted (List.map snd lat)) 99.

(* Events per second of the sessions whose verdicts checked out. *)
let ok_rate (pool : Corpus.stream array) samples =
  Util.windowed_rate
    (List.filter_map
       (fun (s : Load.sample) ->
         if s.ok then Some (s.start, s.finish, pool.(s.idx).len) else None)
       samples)

let ok_events (pool : Corpus.stream array) samples =
  List.fold_left
    (fun a (s : Load.sample) -> if s.ok then a + pool.(s.idx).len else a)
    0 samples

(* A shed session's verdict is not [M_full], so it is one of these. *)
let failures (t : Load.totals) =
  List.length (List.filter (fun (s : Load.sample) -> not s.ok) t.samples)

let e2e ~setup ~events_per_s ~lat ~rss =
  [
    Util.m "setup_s" "s" setup;
    Util.m "events_per_s" "events/s" events_per_s;
    Util.m "latency_p50_ms" "ms" (ms (Util.blocked_percentile lat 50.));
    Util.m "latency_p99_ms" "ms" (ms (Util.blocked_percentile lat 99.));
    Util.m "peak_rss_mb" "MB" rss;
  ]

let server_searches addr =
  match Service.Client.connect addr with
  | c ->
      let n =
        List.fold_left (fun a (d : P.domain_stats) -> a + d.searches) 0 (Service.Client.stats c)
      in
      Service.Client.close c;
      n
  | exception (Unix.Unix_error _ | Service.Client.Server_error _) -> 0

(* --- per-layer summaries ---------------------------------------------------- *)

(* What the end-to-end phase of a traced run contributes to the split. *)
type e2e_side = {
  residual_ms : float list;
  searches : int;
  samples : int;
  failed_ratio : float;
}

let no_e2e_side =
  { residual_ms = []; searches = 0; samples = 0; failed_ratio = 0. }

let layer_metrics (tr : Pipeline.t) ~untraced_wall side =
  let c = tr.Pipeline.c in
  let a = Pipeline.acc tr in
  let per_call l scale =
    let x = a l in
    Util.ratio (x.secs *. scale) (float_of_int x.calls)
  in
  let pct l p = ms (Util.percentile (Util.sorted (a l).samples) p) in
  let graph_secs = c.graph_secs +. (a Pipeline.Graph).secs in
  let wall = tr.wall in
  [
    Util.m "codec.decode_ns_per_event" "ns/event"
      (Util.ratio ((a Codec_decode).secs *. 1e9) (float_of_int c.events));
    Util.m "codec.bytes_per_event" "B/event" (Util.ratio_i c.payload_bytes c.events);
    Util.m "graph.ns_per_event" "ns/event" (Util.ratio (graph_secs *. 1e9) (float_of_int c.graph_events));
    Util.m "graph.edges_per_txn" "edges/txn" (Util.ratio_i c.graph_edges c.graph_nodes);
    Util.m "graph.reorders" "count" (float_of_int c.graph_reorders);
    Util.m "graph.repairs" "count" (float_of_int c.graph_repairs);
    Util.m "graph.tainted_ratio" "ratio" (Util.ratio_i c.graph_tainted c.graph_verdicts);
    Util.m "graph.undecided_ratio" "ratio" (Util.ratio_i c.graph_undecided c.graph_verdicts);
    Util.m "search.calls" "count" (float_of_int c.searches);
    Util.m "search.nodes" "count" (float_of_int c.search_nodes);
    Util.m "search.ms_p99" "ms" (pct Search 99.);
    Util.m "search.share" "ratio" (Util.ratio (a Search).secs wall);
    Util.m "monitor.fastpath_hit_ratio" "ratio" (Util.ratio_i c.hits c.responses);
    Util.m "monitor.revalidate_ns_per_response" "ns/response" (per_call Monitor_revalidate 1e9);
    Util.m "sharded.push_ns_per_event" "ns/event" (per_call Sharded_push 1e9);
    Util.m "sharded.certify_ms_p50" "ms" (pct Certify 50.);
    Util.m "sharded.incremental_ratio" "ratio" (Util.ratio_i c.incremental c.certifies);
    Util.m "sharded.escalated_ratio" "ratio"
      (if (a Sharded_push).calls = 0 && (a Escalation).calls = 0 then 0.
       else Util.ratio_i c.escalated c.items);
    Util.m "sharded.escalation_ms" "ms" (per_call Escalation 1e3);
    Util.m "journal.append_us_per_batch" "us/batch" (per_call Journal_append 1e6);
    Util.m "journal.snapshot_ms" "ms" (per_call Journal_snapshot 1e3);
    Util.m "journal.bytes_per_event" "B/event" (Util.ratio_i c.journal_bytes c.journal_events);
    Util.m "journal.recover_ms" "ms" (per_call Journal_recover 1e3);
    Util.m "journal.recover_replay_share" "ratio" (Util.ratio c.replay_secs (a Journal_recover).secs);
    Util.m "journal.recover_from_snapshot_ms" "ms" (ms (Util.median c.from_snapshot));
    Util.m "journal.recover_from_journal_ms" "ms" (ms (Util.median c.from_journal));
    Util.m "server.residual_ms_p50" "ms" (Util.median side.residual_ms);
    Util.m "server.searches" "count" (float_of_int side.searches);
    Util.m "trace.overhead_ratio" "ratio" (Util.ratio wall untraced_wall);
    Util.m "trace.unaccounted_share" "ratio" (Util.ratio (wall -. Pipeline.layer_secs tr) wall);
    Util.m "e2e.samples" "count" (float_of_int side.samples);
    Util.m "failed_ratio" "ratio" side.failed_ratio;
  ]

(* Runs [items] through the pipeline untraced for about [budget] seconds,
   then exactly the same items traced.  Returns the traced pipeline, the
   untraced wall time, each item's untraced time and the untraced run's
   wrong verdicts. *)
let in_process ~budget (items : int -> 'a) (run : Pipeline.t -> int -> 'a -> unit) =
  let plain = Pipeline.create ~traced:false in
  let t0 = Util.now () in
  let n = ref 0 and per_item = ref [] in
  while Util.now () -. t0 < budget || !n = 0 do
    let s0 = Util.now () in
    run plain !n (items !n);
    per_item := (Util.now () -. s0) :: !per_item;
    incr n
  done;
  let untraced_wall = Util.now () -. t0 in
  let per_item = Array.of_list (List.rev !per_item) in
  let tr = Pipeline.create ~traced:true in
  let t0 = Util.now () in
  Array.iteri (fun i _ -> run tr i (items i)) per_item;
  (* the recovery replay measurement is not part of the pipeline *)
  tr.wall <- Util.now () -. t0 -. tr.c.replay_secs;
  (tr, untraced_wall, per_item, plain.Pipeline.c.wrong)

(* Mean time of each pool entry over the items that replayed it. *)
let traced_by_entry ~pool_size ~entry per_item =
  let sum = Array.make pool_size 0. and cnt = Array.make pool_size 0 in
  Array.iteri
    (fun i d ->
      let e = entry i in
      sum.(e) <- sum.(e) +. d;
      cnt.(e) <- cnt.(e) + 1)
    per_item;
  fun e -> if cnt.(e) = 0 then None else Some (sum.(e) /. float_of_int cnt.(e))

let residuals traced (samples : Load.sample list) f =
  List.filter_map
    (fun (s : Load.sample) ->
      if not s.ok then None
      else Option.map (fun t -> ms (f s -. t)) (traced s.idx))
    samples

(* --- offline-unique ------------------------------------------------------------ *)

(* The process under test for the offline workload: `tm check`'s path
   (decode, then graph with the budgeted search fallback) over the corpus
   in a loop, in a process of its own so its peak RSS is its own. *)
let offline_worker file seconds out =
  let corpus : string array = In_channel.with_open_bin file Marshal.from_channel in
  let n = Array.length corpus in
  let idx = ref [] and start = ref [] and lat = ref [] and code = ref [] and evs = ref [] in
  let t0 = Util.now () in
  let deadline = t0 +. seconds in
  let k = ref 0 in
  while Util.now () < deadline || !k = 0 do
    let i = !k mod n in
    let s0 = Util.now () in
    let c, e =
      match Service.Codec.history_of_string corpus.(i) with
      | Error _ -> (3, 0)
      | Ok h -> (
          match Conflict_graph.check_or_fallback ~max_nodes:default_max_nodes h with
          | Verdict.Sat _ -> (0, History.length h)
          | Verdict.Unsat _ -> (1, History.length h)
          | Verdict.Unknown _ -> (2, History.length h))
    in
    start := s0 :: !start;
    lat := (Util.now () -. s0) :: !lat;
    idx := i :: !idx;
    code := c :: !code;
    evs := e :: !evs;
    incr k
  done;
  let rss = Util.peak_rss_mb "self" in
  let result : int list * float list * float list * int list * int list * float =
    (!idx, !start, !lat, !code, !evs, rss)
  in
  Out_channel.with_open_bin out (fun oc -> Marshal.to_channel oc result [])

let offline o =
  let corpus_file = Filename.concat scratch "corpus.bin" in
  let corpus, setup =
    set_up o (fun ~last:_ ->
        let corpus = Corpus.offline ~smoke:o.smoke ~seed:o.seed in
        (* one fixed, seeded replay order *)
        let rng = Random.State.make [| o.seed; 0x0ff |] in
        let order = Array.init (Array.length corpus) Fun.id in
        for i = Array.length order - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = order.(i) in
          order.(i) <- order.(j);
          order.(j) <- t
        done;
        let corpus = Array.map (fun i -> corpus.(i)) order in
        Out_channel.with_open_bin corpus_file (fun oc ->
            Marshal.to_channel oc (Array.map (fun (h : Corpus.history) -> h.bytes) corpus) []);
        corpus)
  in
  if o.corrupt then corpus.(0) <- { (corpus.(0)) with expect_sat = not corpus.(0).expect_sat };
  let e2e_seconds = if o.trace then o.seconds /. 2. else o.seconds in
  let out = Filename.concat scratch "offline.out" in
  let pid =
    Proc.spawn Sys.executable_name
      [ "offline-worker"; corpus_file; string_of_float e2e_seconds; out ]
      ~log:(Filename.concat scratch "worker.log")
  in
  Proc.reap pid;
  let (idx, start, lat, code, evs, rss)
        : int list * float list * float list * int list * int list * float =
    In_channel.with_open_bin out Marshal.from_channel
  in
  let idx = Array.of_list idx and start = Array.of_list start and lat = Array.of_list lat
  and code = Array.of_list code and evs = Array.of_list evs in
  let ops =
    List.init (Array.length idx) (fun k ->
        let expected = if corpus.(idx.(k)).expect_sat then 0 else 1 in
        (code.(k) = expected, start.(k), lat.(k), evs.(k)))
  in
  let attempted = List.length ops in
  let failed = List.length (List.filter (fun (ok, _, _, _) -> not ok) ops) in
  let ok_ops = List.filter (fun (ok, _, _, _) -> ok) ops in
  let lat = List.map (fun (_, s, l, _) -> (s +. l, l)) ok_ops in
  let events_per_s = Util.windowed_rate (List.map (fun (_, s, l, e) -> (s, s +. l, e)) ok_ops) in
  if not o.trace then
    {
      metrics = e2e ~setup ~events_per_s ~lat ~rss;
      attempted;
      failed;
    }
  else begin
    let n = Array.length corpus in
    let tr, untraced_wall, _, wrong =
      in_process ~budget:(o.seconds /. 4.)
        (fun i -> corpus.(i mod n))
        (fun t _ h -> ignore (Pipeline.check_history t ~max_nodes:(max_nodes o) h))
    in
    let side =
      {
        no_e2e_side with
        samples = attempted;
        failed_ratio = Util.ratio_i failed attempted;
      }
    in
    {
      metrics = layer_metrics tr ~untraced_wall side;
      attempted = attempted + (2 * tr.c.items);
      failed = failed + wrong + tr.c.wrong;
    }
  end

(* --- the service workloads ------------------------------------------------------ *)

let deal_len = 1 lsl 16

(* Set up [reps] times and keep the last pool and server.  [bad] counts
   the references that are not a decision; each is a failed operation. *)
let service_setup o ~pool_of ~args ~dir =
  set_up o (fun ~last ->
      let pool = pool_of () in
      let bad = Corpus.compute_references ~max_nodes:(max_nodes o) pool in
      (pool, bad, start_or_stop o ~dir ~args ~last))

let corrupt o (pool : Corpus.stream array) =
  if o.corrupt then pool.(0).expected <- Corpus.wrong_status pool.(0).expected

(* Per-layer half of a service workload: in-process over the dealt
   sequence, graph pass over the distinct streams, residual against the
   end-to-end samples. *)
let service_layers o ~pool ~deal ~mode ~shards ~side ~(samples : Load.sample list)
    ~e2e_attempted ~e2e_failed =
  let jdir = server_dir "traced-journal" in
  let mode_of i = match mode with Pipeline.Crash _ -> Pipeline.Crash (i mod 2 = 1) | m -> m in
  let recover = Array.make (Array.length pool) 0. and recovered = Array.make (Array.length pool) 0 in
  (* client-side encoding, done before any clock runs *)
  let payloads = Array.map (Pipeline.payloads (mode_of 0)) pool in
  let tr, untraced_wall, per_item, wrong =
    in_process ~budget:(o.seconds /. 4.)
      (fun i -> deal.(i mod deal_len))
      (fun t i e ->
        let _ok, rsecs =
          Pipeline.run_session t ~shards ~max_nodes:(max_nodes o) ~dir:jdir ~sid:(i + 1)
            (mode_of i) pool.(e) payloads.(e)
        in
        if not t.traced then begin
          recover.(e) <- recover.(e) +. rsecs;
          recovered.(e) <- recovered.(e) + 1
        end)
  in
  Array.iter (Pipeline.graph_stream tr) pool;
  let traced =
    match mode with
    | Pipeline.Crash _ ->
        fun e -> if recovered.(e) = 0 then None else Some (recover.(e) /. float_of_int recovered.(e))
    | _ ->
        traced_by_entry ~pool_size:(Array.length pool)
          ~entry:(fun i -> deal.(i mod deal_len))
          per_item
  in
  let side = { side with residual_ms = residuals traced samples (fun s -> s.finish -. s.start) } in
  {
    metrics = layer_metrics tr ~untraced_wall side;
    attempted = e2e_attempted + (2 * tr.c.items);
    failed = e2e_failed + wrong + tr.c.wrong;
  }

let stream_dup o =
  let dir = server_dir "stream-dup" in
  let args = serve_args o ~domains:workers ~shards:1 () in
  let (pool, bad, srv), setup =
    service_setup o ~pool_of:(fun () -> Corpus.dup_pool ~smoke:o.smoke ~seed:o.seed) ~args ~dir
  in
  let srv = Option.get srv in
  corrupt o pool;
  let deal = Corpus.deal ~seed:o.seed ~pool_size:(Array.length pool) deal_len in
  let e2e_seconds = if o.trace then o.seconds /. 2. else o.seconds in
  let t =
    Load.closed_loop ~addr:srv.addr ~conns:workers ~seconds:e2e_seconds ~pool ~deal
      Load.plain_session
  in
  let searches = server_searches srv.addr in
  let rss = Proc.peak_rss_mb srv in
  Proc.stop srv;
  let attempted = List.length t.samples + bad and failed = failures t + bad in
  if not o.trace then
    {
      metrics =
        e2e ~setup ~events_per_s:(ok_rate pool t.samples)
          ~lat:(latencies t.samples (fun s -> s.finish -. s.start))
          ~rss;
      attempted;
      failed;
    }
  else
    service_layers o ~pool ~deal ~mode:Pipeline.Plain ~shards:1 ~samples:t.samples
      ~e2e_attempted:attempted ~e2e_failed:failed
      ~side:
        {
          no_e2e_side with
          searches; samples = attempted; failed_ratio = Util.ratio_i failed attempted;
        }

(* Fixed offered rates of the open loop, in events/s, the share of the run
   each gets, and the name its metrics carry; latency is reported at the
   middle one. *)
let open_rungs ~smoke =
  let r = if smoke then 0.1 else 1. in
  [
    (20_000. *. r, 0.25, "r20k"); (40_000. *. r, 0.5, "r40k");
    (160_000. *. r, 0.25, "r160k");
  ]

(* open-durable's own metrics, beyond those of BENCHMARK.json: the
   server's refusals, which only an open loop can provoke, the generator's
   lag, and the rungs [sustained_events_per_s] is derived from. *)
let open_loop_metrics ~smoke ~(totals : Load.totals list) ~lag_ms_p99 rungs =
  let total f = float_of_int (List.fold_left (fun a t -> a + f t) 0 totals) in
  Util.m "server.throttles" "count" (total (fun t -> t.Load.throttles))
  :: Util.m "server.sheds" "count" (total (fun t -> t.Load.sheds))
  :: Util.m "loadgen.lag_ms_p99" "ms" lag_ms_p99
  :: List.concat
       (List.map2
          (fun (_, _, name) (achieved, p99, lag, grew) ->
            let k x = "loadgen." ^ name ^ "." ^ x in
            [
              Util.m (k "achieved_events_per_s") "events/s" achieved;
              Util.m (k "latency_p99_ms") "ms" p99;
              Util.m (k "lag_ms_p99") "ms" lag;
              Util.m (k "backlog_grew") "bool" (if grew then 1. else 0.);
            ])
          (open_rungs ~smoke) rungs)

let open_durable o =
  let dir = server_dir "open-durable" in
  let args =
    serve_args o ~domains:workers ~shards:2 ~journal:(Filename.concat dir "journal") ()
  in
  let (pool, bad, srv), setup =
    service_setup o ~pool_of:(fun () -> Corpus.zipf_pool ~smoke:o.smoke ~seed:o.seed) ~args ~dir
  in
  let srv = Option.get srv in
  corrupt o pool;
  let deal = Corpus.deal ~seed:o.seed ~pool_size:(Array.length pool) deal_len in
  let mean_len =
    float_of_int (Array.fold_left (fun a (s : Corpus.stream) -> a + s.len) 0 pool)
    /. float_of_int (Array.length pool)
  in
  let e2e_seconds = if o.trace then o.seconds /. 2. else o.seconds in
  let from = ref 0 in
  let rungs =
    List.map
      (fun (rate, share, _) ->
        let seconds = e2e_seconds *. share in
        let t, t0, n =
          Load.open_loop ~addr:srv.addr ~conns:nproc ~rate:(rate /. mean_len) ~seconds ~pool
            ~deal ~deal_from:!from Load.durable_session
        in
        from := !from + n;
        let lat = latencies t.samples (fun s -> s.finish -. s.due) in
        let lag = latencies t.samples (fun s -> s.start -. s.due) in
        let grew =
          Load.backlog t.samples ~at:(t0 +. seconds)
          - Load.backlog t.samples ~at:(t0 +. (seconds /. 2.))
          > max 2 (n / 20)
        in
        let achieved = ok_rate pool t.samples in
        (rate, t, lat, lag, grew, achieved))
      (open_rungs ~smoke:o.smoke)
  in
  let searches = server_searches srv.addr in
  let rss = Proc.peak_rss_mb srv in
  Proc.stop srv;
  let all = List.concat_map (fun (_, (t : Load.totals), _, _, _, _) -> t.samples) rungs in
  let attempted = List.length all + bad in
  let failed = List.fold_left (fun a (_, t, _, _, _, _) -> a + failures t) bad rungs in
  let _, _, ref_lat, ref_lag, _, _ = List.nth rungs 1 in
  let _, _, _, _, _, top = List.nth rungs (List.length rungs - 1) in
  let sustained =
    List.fold_left
      (fun best (_, (t : Load.totals), lat, _, grew, achieved) ->
        if (not grew) && failures t = 0 && ms (p99 lat) <= latency_limit_ms
        then achieved
        else best)
      0. rungs
  in
  if not o.trace then
    {
      metrics =
        e2e ~setup ~events_per_s:top ~lat:ref_lat ~rss
        @ [ Util.m "sustained_events_per_s" "events/s" sustained ];
      attempted;
      failed;
    }
  else
    let r =
      service_layers o ~pool ~deal ~mode:Pipeline.Durable ~shards:2 ~samples:all
        ~e2e_attempted:attempted ~e2e_failed:failed
        ~side:
          {
            no_e2e_side with
            searches;
            samples = attempted;
            failed_ratio = Util.ratio_i failed attempted;
          }
    in
    {
      r with
      metrics =
        r.metrics
        @ open_loop_metrics ~smoke:o.smoke
            ~totals:(List.map (fun (_, t, _, _, _, _) -> t) rungs)
            ~lag_ms_p99:(ms (p99 ref_lag))
            (List.map
               (fun (_, _, lat, lag, grew, achieved) ->
                 (achieved, ms (p99 lat), ms (p99 lag), grew))
               rungs);
    }

(* Sessions per crash cycle and connection: half journal-only, then half
   checkpointed. *)
let crash_per_conn = 4

let crash_recover o =
  let dir = server_dir "crash-recover" in
  let args = serve_args o ~domains:1 ~shards:1 ~journal:(Filename.concat dir "journal") () in
  let (pool, bad, srv), setup =
    service_setup o ~pool_of:(fun () -> Corpus.dup_pool ~smoke:o.smoke ~seed:o.seed) ~args ~dir
  in
  corrupt o pool;
  let deal = Corpus.deal ~seed:o.seed ~pool_size:(Array.length pool) deal_len in
  let e2e_seconds = if o.trace then o.seconds /. 2. else o.seconds in
  let t = Load.totals () in
  let srv = ref (Option.get srv) in
  let rss = ref 0. in
  let dealt = ref 0 in
  let cycle_rates = ref [] in
  let t0 = Util.now () in
  let per = crash_per_conn in
  while Util.now () -. t0 < e2e_seconds || !dealt = 0 do
    let c0 = Util.now () and before = t.samples in
    let shares =
      List.init nproc (fun _ ->
          List.init per (fun k ->
              let stream = deal.(!dealt mod deal_len) in
              incr dealt;
              { Load.sid = Load.fresh_sid (); stream; checkpointed = k >= per / 2 }))
    in
    let conns =
      List.map
        (fun _ ->
          try Some (Service.Client.connect !srv.addr)
          with Unix.Unix_error _ | Service.Client.Server_error _ -> None)
        shares
    in
    (* a session whose sending failed fails again at its resume *)
    let senders =
      List.map2
        (fun c share ->
          Thread.create
            (fun () ->
              match c with
              | Some c -> (
                  try Load.send_durably c pool share
                  with e -> prerr_endline ("perfbench: send failed: " ^ Printexc.to_string e))
              | None -> ())
            ())
        conns shares
    in
    List.iter Thread.join senders;
    rss := max !rss (Proc.peak_rss_mb !srv);
    Proc.kill !srv;
    List.iter
      (Option.iter (fun c ->
           try Unix.close (Service.Client.fd c) with Unix.Unix_error _ -> ()))
      conns;
    let restarted = Util.now () in
    srv := Proc.start_server ~tm:o.tm ~dir ~args;
    Load.on_overrun := (fun () -> Proc.kill !srv);
    List.iter Thread.join
      (List.map
         (fun share ->
           Thread.create (fun () -> Load.resume_all t !srv.addr ~restarted pool share) ())
         shares);
    let fresh = List.filteri (fun i _ -> i < List.length t.samples - List.length before) t.samples in
    cycle_rates :=
      (float_of_int (ok_events pool fresh) /. (Util.now () -. c0)) :: !cycle_rates
  done;
  let searches = server_searches !srv.addr in
  rss := max !rss (Proc.peak_rss_mb !srv);
  Proc.stop !srv;
  let attempted = List.length t.samples + t.errors + bad
  and failed = failures t + t.errors + bad in
  (* the median cycle, for the reason Util.windowed_rate gives *)
  let events_per_s = Util.median !cycle_rates in
  if not o.trace then
    {
      metrics =
        e2e ~setup ~events_per_s
          ~lat:(latencies t.samples (fun s -> s.finish -. s.due))
          ~rss:!rss;
      attempted;
      failed;
    }
  else
    service_layers o ~pool ~deal ~mode:(Pipeline.Crash false) ~shards:1 ~samples:t.samples
      ~e2e_attempted:attempted ~e2e_failed:failed
      ~side:
        {
          no_e2e_side with
          searches;
          samples = attempted; failed_ratio = Util.ratio_i failed attempted;
        }

(* --- main ------------------------------------------------------------------------ *)

let workloads =
  [
    ("offline-unique", offline);
    ("stream-dup", stream_dup);
    ("open-durable", open_durable);
    ("crash-recover", crash_recover);
  ]

let cleanup () =
  Proc.kill_all ();
  Util.rm_rf scratch;
  try Unix.rmdir ".perfbench" with Unix.Unix_error _ -> ()

(* A run that overstays its limit kills its children and fails. *)
let watchdog limit =
  ignore
    (Thread.create
       (fun () ->
         Thread.delay limit;
         prerr_endline "perfbench: time limit exceeded";
         cleanup ();
         Unix._exit 3)
       ())

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload NAME --seed N --seconds S --trace 0|1 --tm PATH \
     [--smoke] [--corrupt-reference] [--starve-search]\n\
    \       perfbench.exe offline-worker CORPUS SECONDS OUT";
  exit 2

let parse argv =
  let o =
    ref
      {
        workload = ""; seed = 0; seconds = 10.; trace = false; tm = "";
        smoke = false; corrupt = false; starve = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest -> o := { !o with workload = w }; go rest
    | "--seed" :: n :: rest -> o := { !o with seed = int_of_string n }; go rest
    | "--seconds" :: s :: rest -> o := { !o with seconds = float_of_string s }; go rest
    | "--trace" :: t :: rest -> o := { !o with trace = t = "1" }; go rest
    | "--tm" :: p :: rest -> o := { !o with tm = p }; go rest
    | "--smoke" :: rest -> o := { !o with smoke = true }; go rest
    | "--corrupt-reference" :: rest -> o := { !o with corrupt = true }; go rest
    | "--starve-search" :: rest -> o := { !o with starve = true }; go rest
    | _ -> usage ()
  in
  (try go argv with Failure _ -> usage ());
  !o

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "offline-worker"; file; seconds; out ] ->
      offline_worker file (float_of_string seconds) out
  | argv -> (
      let o = parse argv in
      match List.assoc_opt o.workload workloads with
      | None -> usage ()
      | Some run ->
          if not (Sys.file_exists o.tm) then begin
            prerr_endline ("perfbench: no tm binary at " ^ o.tm);
            exit 2
          end;
          Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
          at_exit cleanup;
          watchdog 170.;
          Util.mkdir_p scratch;
          let r = run o in
          print_endline
            (Util.result_line ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed
               r.metrics))
