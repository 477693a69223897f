(* The load generator: one process, at most [nproc] client threads, each
   on its own connection to the `tm serve` process.  Every session's final
   verdict is checked against the reference. *)

open Tm_safety
module Client = Service.Client
module P = Service.Protocol

type sample = {
  idx : int;  (* pool entry replayed *)
  due : float;  (* when it was scheduled (closed loop: when it started) *)
  start : float;  (* when its first frame was sent *)
  finish : float;  (* when its final verdict (or Resumed) arrived *)
  ok : bool;
}

type totals = {
  mutable samples : sample list;
  mutable errors : int;
  mutable throttles : int;
  mutable sheds : int;
  lock : Mutex.t;
}

let totals () =
  { samples = []; errors = 0; throttles = 0; sheds = 0; lock = Mutex.create () }

let add t sample =
  Mutex.lock t.lock;
  t.samples <- sample :: t.samples;
  Mutex.unlock t.lock

let settle t c =
  Mutex.lock t.lock;
  t.throttles <- t.throttles + Client.throttled c;
  if Client.shed c <> None then t.sheds <- t.sheds + 1;
  Mutex.unlock t.lock

(* Durable session ids are global on the server. *)
let next_sid = Atomic.make 1
let fresh_sid () = Atomic.fetch_and_add next_sid 1

let final_ok (s : Corpus.stream) (v : P.verdict) =
  Corpus.checks_out s v.P.status && v.P.mode = P.M_full

(* Plain session: Events frames, then the final verdict at close. *)
let plain_session c (s : Corpus.stream) =
  let sid = fresh_sid () in
  Client.open_session c sid;
  Client.send_events c sid s.events;
  final_ok s (Client.close_session c sid)

(* Durable session: Events_at windows of 4 x 256 events, a checkpoint
   (snapshot) after each window, re-sending from the acknowledged index. *)
let durable_session c (s : Corpus.stream) =
  let sid = fresh_sid () in
  Client.open_session c sid;
  let arr = Array.of_list s.events in
  let window = Pipeline.chunk_of Pipeline.Durable * Pipeline.checkpoint_every in
  let rec go cursor stalls =
    if cursor < s.len then begin
      let upto = min s.len (cursor + window) in
      Client.send_events_at ~chunk:(Pipeline.chunk_of Pipeline.Durable) c sid
        ~from:cursor
        (Array.to_list (Array.sub arr cursor (upto - cursor)));
      let applied = (Client.checkpoint c sid).P.applied in
      if applied > cursor then go applied 0
      else if stalls < 100 then begin
        Thread.delay 0.005;
        go cursor (stalls + 1)
      end
      else failwith "session made no progress"
    end
  in
  go 0 0;
  let v = Client.close_session c sid in
  final_ok s v && v.P.applied = s.len

(* Client calls block until the server answers, and a server whose worker
   domain died never does.  When a session overruns [session_limit], its
   socket is shut down and [on_overrun] runs; the workloads set it to kill
   the server, so a wedged server fails the rest of the run quickly
   instead of running past the time limit. *)
let session_limit = 15.
let on_overrun = ref ignore

let guarded_lock = Mutex.create ()
let guarded_fds : (Unix.file_descr * float) list ref = ref []

let rec guard () =
  Thread.delay 0.2;
  let now = Util.now () in
  Mutex.lock guarded_lock;
  let late, live = List.partition (fun (_, deadline) -> deadline < now) !guarded_fds in
  guarded_fds := live;
  Mutex.unlock guarded_lock;
  List.iter
    (fun (fd, _) ->
      prerr_endline "perfbench: a session overran its time limit";
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    late;
  if late <> [] then !on_overrun ();
  guard ()

let guard_thread = lazy (Thread.create guard ())

let guarded c f =
  Lazy.force guard_thread |> ignore;
  let fd = Client.fd c in
  Mutex.lock guarded_lock;
  guarded_fds := (fd, Util.now () +. session_limit) :: !guarded_fds;
  Mutex.unlock guarded_lock;
  Fun.protect f ~finally:(fun () ->
      Mutex.lock guarded_lock;
      guarded_fds := List.filter (fun (fd', _) -> fd' != fd) !guarded_fds;
      Mutex.unlock guarded_lock)

let close_quietly c =
  try Client.close c with Unix.Unix_error _ | Client.Server_error _ -> ()

(* A connection that survives a failed session: the next session gets a
   fresh one. *)
let with_connection addr t f =
  let c = ref (Client.connect addr) in
  let reconnect () =
    settle t !c;
    close_quietly !c;
    c := Client.connect addr
  in
  Fun.protect
    ~finally:(fun () ->
      settle t !c;
      close_quietly !c)
    (fun () -> f c reconnect)

let run_one t c reconnect session ~idx ~due =
  let start = Util.now () in
  let ok =
    match guarded !c (fun () -> session !c) with
    | ok -> ok
    | exception e ->
        prerr_endline ("perfbench: session failed: " ^ Printexc.to_string e);
        Mutex.lock t.lock;
        t.errors <- t.errors + 1;
        Mutex.unlock t.lock;
        (* a refused reconnect fails the next session on this connection *)
        (try reconnect () with Unix.Unix_error _ | Client.Server_error _ -> ());
        Thread.delay 0.01;
        false
  in
  add t { idx; due; start; finish = Util.now (); ok }

(* Closed loop: each connection starts its next session when the previous
   verdict arrives, until [seconds] have passed. *)
let closed_loop ~addr ~conns ~seconds ~(pool : Corpus.stream array) ~deal
    session =
  let t = totals () in
  let next = Atomic.make 0 in
  let deadline = Util.now () +. seconds in
  let worker () =
    with_connection addr t (fun c reconnect ->
        while Util.now () < deadline do
          let i = Atomic.fetch_and_add next 1 in
          let idx = deal.(i mod Array.length deal) in
          run_one t c reconnect (fun c -> session c pool.(idx)) ~idx
            ~due:(Util.now ())
        done)
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  t

(* Open loop: session [j] is due at [t0 + j / rate] whatever happened
   before it; a connection that is still busy sends it late, and the
   lateness is charged to its latency. *)
let open_loop ~addr ~conns ~rate ~seconds ~(pool : Corpus.stream array) ~deal
    ~deal_from session =
  let t = totals () in
  let n = max 1 (int_of_float (rate *. seconds)) in
  let next = Atomic.make 0 in
  let t0 = Util.now () +. 0.01 in
  let worker () =
    with_connection addr t (fun c reconnect ->
        let rec go () =
          let j = Atomic.fetch_and_add next 1 in
          if j < n then begin
            let due = t0 +. (float_of_int j /. rate) in
            let wait = due -. Util.now () in
            if wait > 0. then Thread.delay wait;
            let idx = deal.((deal_from + j) mod Array.length deal) in
            if Util.now () > t0 +. (2. *. seconds) +. session_limit then
              (* the server stopped answering: the rest of the rung times out *)
              add t { idx; due; start = due; finish = Util.now (); ok = false }
            else run_one t c reconnect (fun c -> session c pool.(idx)) ~idx ~due;
            go ()
          end
        in
        go ())
  in
  List.iter Thread.join (List.init conns (fun _ -> Thread.create worker ()));
  (t, t0, n)

(* The in-flight backlog at [at]: sessions due by then, minus those done. *)
let backlog samples ~at =
  List.fold_left
    (fun acc s ->
      acc + (if s.due <= at then 1 else 0) - if s.finish <= at then 1 else 0)
    0 samples

(* --- crash-recover ---------------------------------------------------------- *)

type crash_session = { sid : int; stream : int; checkpointed : bool }

(* Phase one on one connection: the journal-only sessions first, then the
   checkpointed ones; the last checkpoint reply proves every earlier frame
   of this connection was applied (the server has one worker domain). *)
let send_durably c (pool : Corpus.stream array) sessions =
  List.iter
    (fun cs ->
      let s = pool.(cs.stream) in
      guarded c (fun () ->
          Client.open_session c cs.sid;
          Client.send_events_at c cs.sid ~from:0 s.events;
          if cs.checkpointed then ignore (Client.checkpoint c cs.sid)))
    sessions

(* Phase two, after the restart at [restarted]: resume every session of
   the connection, then finish and close each.  A session's latency is
   the server's start plus the recoveries queued before its [Resumed]; the
   verdicts at close come after, so no earlier session's search lands in
   a later session's latency. *)
let resume_all t addr ~restarted (pool : Corpus.stream array) sessions =
  let count_errors n =
    Mutex.lock t.lock;
    t.errors <- t.errors + n;
    Mutex.unlock t.lock
  in
  try
  with_connection addr t (fun c _reconnect ->
      let resumed =
        List.filter_map
          (fun cs ->
            guarded !c @@ fun () ->
            match Client.resume !c cs.sid ~from:0 with
            | exception e ->
                prerr_endline ("perfbench: resume failed: " ^ Printexc.to_string e);
                count_errors 1;
                None
            | Error (code, msg) ->
                prerr_endline
                  (Format.asprintf "perfbench: resume %d: %a: %s" cs.sid
                     P.pp_error_code code msg);
                count_errors 1;
                None
            | Ok (applied, _, _) -> Some (cs, applied, Util.now ()))
          sessions
      in
      List.iter
        (fun (cs, applied, finish) ->
          let s = pool.(cs.stream) in
          let ok =
            guarded !c @@ fun () ->
            if applied < s.len then
              Client.send_events_at !c cs.sid ~from:applied
                (List.filteri (fun i _ -> i >= applied) s.events);
            match Client.close_session !c cs.sid with
            | v -> Some (final_ok s v && v.P.applied = s.len)
            | exception e ->
                prerr_endline ("perfbench: close failed: " ^ Printexc.to_string e);
                None
          in
          match ok with
          | Some ok ->
              add t { idx = cs.stream; due = restarted; start = restarted; finish; ok }
          | None -> count_errors 1)
        resumed)
  with Unix.Unix_error _ | Client.Server_error _ -> count_errors (List.length sessions)
