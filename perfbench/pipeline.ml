(* The single-threaded in-process baseline: each history or session stream
   goes through the layers' public functions in the order `tm check` and
   the `tm serve` worker call them.  Traced, every call is timed from the
   outside and filed under the layer it entered; untraced, the same calls
   run under one clock, so the two runs give the tracing overhead. *)

open Tm_safety
module Codec = Service.Codec
module Journal = Service.Journal
module Sharded = Sharded_monitor

type layer =
  | Codec_decode  (* Codec.history_of_string / Codec.get_events *)
  | Graph  (* Conflict_graph.check_stats *)
  | Search  (* a Du_opacity fallback, or a monitor push that searched *)
  | Monitor_revalidate  (* a response absorbed by certificate revalidation *)
  | Monitor_ingest  (* an invocation pushed into an escalated monitor *)
  | Sharded_push  (* Sharded_monitor.push before escalation *)
  | Certify  (* Sharded_monitor.certify / persist that stayed sharded *)
  | Escalation  (* the call during which the session escalated *)
  | Journal_append
  | Journal_snapshot
  | Journal_recover
  | Journal_file  (* Journal.create / close / delete *)

let layers =
  [
    Codec_decode; Graph; Search; Monitor_revalidate; Monitor_ingest;
    Sharded_push; Certify; Escalation; Journal_append; Journal_snapshot;
    Journal_recover; Journal_file;
  ]

let index l =
  let rec go i = function
    | [] -> assert false
    | x :: rest -> if x = l then i else go (i + 1) rest
  in
  go 0 layers

(* Layers whose individual call durations feed a percentile. *)
let keeps_samples = function
  | Search | Certify | Escalation | Journal_snapshot | Journal_recover -> true
  | _ -> false

type acc = { mutable secs : float; mutable calls : int; mutable samples : float list }

type counters = {
  mutable events : int;  (* events through the pipeline *)
  mutable payload_bytes : int;
  mutable items : int;  (* histories or sessions *)
  mutable wrong : int;  (* verdicts that differ from the reference *)
  mutable graph_edges : int;
  mutable graph_nodes : int;
  mutable graph_reorders : int;
  mutable graph_repairs : int;
  mutable graph_tainted : int;
  mutable graph_verdicts : int;
  mutable graph_undecided : int;
  mutable graph_secs : float;
  mutable graph_events : int;
  mutable searches : int;
  mutable search_nodes : int;
  mutable responses : int;
  mutable hits : int;
  mutable escalated : int;
  mutable certifies : int;
  mutable incremental : int;
  mutable journal_bytes : int;
  mutable journal_events : int;
  mutable replay_secs : float;  (* Monitor.of_persisted on recovered capsules *)
  mutable from_snapshot : float list;  (* recoveries of checkpointed sessions *)
  mutable from_journal : float list;  (* recoveries of journal-only sessions *)
}

type t = { traced : bool; accs : acc array; c : counters; mutable wall : float }

let create ~traced =
  {
    traced;
    accs =
      Array.init (List.length layers) (fun _ ->
          { secs = 0.; calls = 0; samples = [] });
    c =
      {
        events = 0; payload_bytes = 0; items = 0; wrong = 0; graph_edges = 0;
        graph_nodes = 0; graph_reorders = 0; graph_repairs = 0;
        graph_tainted = 0; graph_verdicts = 0; graph_undecided = 0;
        graph_secs = 0.; graph_events = 0; searches = 0; search_nodes = 0;
        responses = 0; hits = 0; escalated = 0; certifies = 0;
        incremental = 0; journal_bytes = 0; journal_events = 0;
        replay_secs = 0.; from_snapshot = []; from_journal = [];
      };
    wall = 0.;
  }

let acc t l = t.accs.(index l)

let record t l d =
  let a = acc t l in
  a.secs <- a.secs +. d;
  a.calls <- a.calls + 1;
  if keeps_samples l then a.samples <- d :: a.samples

(* Time [f] and file it under the layer [classify] picks afterwards. *)
let timed t classify f =
  if not t.traced then f ()
  else begin
    let t0 = Util.now () in
    let r = f () in
    record t (classify r) (Util.now () -. t0);
    r
  end

let layer_secs t = Util.sum (List.map (fun l -> (acc t l).secs) layers)

(* --- offline: bytes -> verdict, as `tm check` ----------------------------- *)

let check_history t ~max_nodes (h : Corpus.history) =
  let c = t.c in
  let verdict =
    match timed t (fun _ -> Codec_decode) (fun () -> Codec.history_of_string h.bytes) with
    | Error _ -> None
    | Ok hist when not t.traced ->
        Some (Conflict_graph.check_or_fallback ~max_nodes hist)
    | Ok hist -> (
        let r, st = timed t (fun _ -> Graph) (fun () -> Conflict_graph.check_stats hist) in
        c.graph_events <- c.graph_events + h.h_events;
        c.graph_edges <- c.graph_edges + st.Conflict_graph.edges;
        c.graph_nodes <- c.graph_nodes + st.nodes;
        c.graph_reorders <- c.graph_reorders + st.reorders;
        c.graph_repairs <- c.graph_repairs + st.repairs;
        if st.tainted then c.graph_tainted <- c.graph_tainted + 1;
        c.graph_verdicts <- c.graph_verdicts + 1;
        match r with
        | Conflict_graph.Sat s -> Some (Verdict.Sat s)
        | Unsat why -> Some (Verdict.Unsat why)
        | Ambiguous _ ->
            c.graph_undecided <- c.graph_undecided + 1;
            let v, ss =
              timed t (fun _ -> Search) (fun () -> Du_opacity.check_stats ~max_nodes hist)
            in
            c.searches <- c.searches + 1;
            c.search_nodes <- c.search_nodes + ss.Search.nodes;
            Some v)
  in
  let ok =
    match verdict with
    | Some (Verdict.Sat _) -> h.expect_sat
    | Some (Verdict.Unsat _) -> not h.expect_sat
    | Some (Verdict.Unknown _) | None -> false
  in
  c.events <- c.events + h.h_events;
  c.payload_bytes <- c.payload_bytes + String.length h.bytes;
  c.items <- c.items + 1;
  if not ok then c.wrong <- c.wrong + 1;
  ok

(* --- service: one session, as the `tm serve` worker handles it ------------- *)

type mode =
  | Plain  (* Events frames, verdict at close *)
  | Durable  (* Events_at windows with a checkpoint each, journal on *)
  | Crash of bool
      (* durable, sent to the end, checkpointed iff [true], then the
         process dies and the session is recovered before its close *)

(* The frames a client sends for [mode]: event payloads of [chunk_of mode]
   events, a checkpoint after every [checkpoint_every] of them (durable). *)
let chunk_of = function Plain | Crash _ -> 512 | Durable -> 256
let checkpoint_every = 4

let payloads mode (s : Corpus.stream) =
  let chunk = chunk_of mode in
  let rec split acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | ev :: rest ->
        if k = chunk then split (List.rev cur :: acc) [ ev ] 1 rest
        else split acc (ev :: cur) (k + 1) rest
  in
  List.map
    (fun batch ->
      let b = Buffer.create 4096 in
      Codec.put_events b batch;
      Buffer.contents b)
    (split [] [] 0 s.events)

let push t m ev =
  if not t.traced then ignore (Sharded.push m ev)
  else begin
    let esc0 = Sharded.escalated m in
    let s0 = if esc0 then (Sharded.snapshot m).Monitor.searches else 0 in
    let t0 = Util.now () in
    ignore (Sharded.push m ev);
    let d = Util.now () -. t0 in
    record t
      (if not esc0 then
         if Sharded.escalated m then Escalation else Sharded_push
       else if (Sharded.snapshot m).Monitor.searches > s0 then Search
       else if Event.is_res ev then Monitor_revalidate
       else Monitor_ingest)
      d
  end

(* A certify (or a persist, which certifies first): the escalation span if
   the session escalates during the call. *)
let certifying t m f =
  let esc0 = Sharded.escalated m in
  timed t (fun _ -> if (not esc0) && Sharded.escalated m then Escalation else Certify) f

let journal_size ~dir ~sid = Util.file_size (Filename.concat dir (Printf.sprintf "s%d.journal" sid))

let snapshot t m j ~dir ~sid ~events_since =
  let c = t.c in
  let capsule = certifying t m (fun () -> Sharded.persist m) in
  if t.traced then begin
    c.journal_bytes <- c.journal_bytes + journal_size ~dir ~sid;
    c.journal_events <- c.journal_events + events_since
  end;
  timed t (fun _ -> Journal_snapshot) (fun () -> Journal.snapshot j capsule);
  capsule

let account_monitor t m =
  let c = t.c in
  let st = Sharded.stitch_stats m in
  c.certifies <- c.certifies + st.Sharded.certifies;
  c.incremental <- c.incremental + st.incremental;
  let snap = Sharded.snapshot m in
  c.responses <- c.responses + snap.Monitor.responses;
  c.hits <- c.hits + snap.fastpath_hits;
  if Sharded.escalated m then begin
    c.escalated <- c.escalated + 1;
    c.searches <- c.searches + snap.searches;
    c.search_nodes <- c.search_nodes + snap.nodes
  end

(* Runs one session and returns whether its final verdict matches the
   reference, plus the pipeline time of its recovery (crash mode). *)
let run_session t ~shards ~max_nodes ~dir ~sid mode (s : Corpus.stream) payloads =
  let c = t.c in
  let m = Sharded.create ~max_nodes ~nshards:shards () in
  let journal =
    match mode with
    | Plain -> None
    | Durable | Crash _ ->
        Some (timed t (fun _ -> Journal_file) (fun () -> Journal.create ~dir ~session:sid ()))
  in
  let since = ref 0 in
  let last = List.length payloads - 1 in
  List.iteri
    (fun i payload ->
      let events =
        timed t (fun _ -> Codec_decode) (fun () -> Codec.get_events (Codec.reader payload))
      in
      c.payload_bytes <- c.payload_bytes + String.length payload;
      (match journal with
      | Some j -> ignore (timed t (fun _ -> Journal_append) (fun () -> Journal.append j events))
      | None -> ());
      since := !since + List.length events;
      List.iter (push t m) events;
      match mode, journal with
      | Plain, _ | _, None -> ()
      | (Durable | Crash _), Some j ->
          ignore (certifying t m (fun () -> Sharded.certify m));
          if mode = Durable && ((i + 1) mod checkpoint_every = 0 || i = last) then begin
            ignore (snapshot t m j ~dir ~sid ~events_since:!since);
            since := 0
          end)
    payloads;
  let close_journal m j =
    ignore (certifying t m (fun () -> Sharded.certify m));
    if t.traced then begin
      c.journal_bytes <- c.journal_bytes + journal_size ~dir ~sid;
      c.journal_events <- c.journal_events + !since
    end;
    timed t (fun _ -> Journal_file) (fun () ->
        Journal.close j;
        Journal.delete ~dir ~session:sid)
  in
  let final, recover_secs =
    match mode, journal with
    | Crash checkpointed, Some j ->
        let capsule =
          if checkpointed then begin
            let cap = snapshot t m j ~dir ~sid ~events_since:!since in
            since := 0;
            Some cap
          end
          else None
        in
        timed t (fun _ -> Journal_file) (fun () -> Journal.close j);
        let t0 = Util.now () in
        let m', _applied, j' =
          match
            timed t (fun _ -> Journal_recover) (fun () ->
                Journal.recover_sharded ~max_nodes ~nshards:shards ~dir ~session:sid ())
          with
          | Ok r -> r
          | Error why -> failwith ("recovery failed: " ^ why)
        in
        let recover_secs = Util.now () -. t0 in
        if checkpointed then c.from_snapshot <- recover_secs :: c.from_snapshot
        else c.from_journal <- recover_secs :: c.from_journal;
        (* The replay part of that recovery: the same capsule through a
           fresh sequential Monitor, outside the pipeline's wall time. *)
        if t.traced then begin
          let capsule =
            match capsule with Some cap -> cap | None -> Sharded.persist m'
          in
          let t0 = Util.now () in
          ignore (Monitor.of_persisted capsule);
          c.replay_secs <- c.replay_secs +. (Util.now () -. t0)
        end;
        close_journal m' j';
        (m', recover_secs)
    | Durable, Some j ->
        close_journal m j;
        (m, 0.)
    | _ ->
        ignore (certifying t m (fun () -> Sharded.certify m));
        (m, 0.)
  in
  account_monitor t final;
  let ok = Corpus.checks_out s (Corpus.status_of_outcome (Sharded.status final)) in
  c.events <- c.events + s.len;
  c.items <- c.items + 1;
  if not ok then c.wrong <- c.wrong + 1;
  (ok, recover_secs)

(* The graph layer of a stream on its own: one unsharded Inc fed the whole
   stream, then asked for its verdict.  Timed apart from the session
   pipeline, whose sharded pushes already contain the shards' graphs. *)
let graph_stream t (s : Corpus.stream) =
  let c = t.c in
  let g = Conflict_graph.Inc.create () in
  let t0 = Util.now () in
  List.iter (Conflict_graph.Inc.push g) s.events;
  let r = Conflict_graph.Inc.verdict g in
  c.graph_secs <- c.graph_secs +. (Util.now () -. t0);
  c.graph_events <- c.graph_events + s.len;
  let st = Conflict_graph.Inc.stats g in
  c.graph_edges <- c.graph_edges + st.Conflict_graph.edges;
  c.graph_nodes <- c.graph_nodes + st.nodes;
  c.graph_reorders <- c.graph_reorders + st.reorders;
  c.graph_repairs <- c.graph_repairs + st.repairs;
  if st.tainted then c.graph_tainted <- c.graph_tainted + 1;
  c.graph_verdicts <- c.graph_verdicts + 1;
  match r with
  | Conflict_graph.Ambiguous _ -> c.graph_undecided <- c.graph_undecided + 1
  | Sat _ | Unsat _ -> ()
