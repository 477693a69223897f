(* The process under test: `tm serve` as a child process on a Unix socket
   inside the run's scratch directory.  Every child is registered so an
   abnormal exit still kills and reaps it. *)

let children : int list ref = ref []

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  children := List.filter (( <> ) pid) !children

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap pid)
    !children

let spawn prog args ~log =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644
  in
  let pid =
    Unix.create_process prog (Array.of_list (prog :: args)) null null err
  in
  Unix.close null;
  Unix.close err;
  children := pid :: !children;
  pid

let alive pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> true
  | _ -> children := List.filter (( <> ) pid) !children; false
  | exception Unix.Unix_error _ -> false

type server = { pid : int; addr : Tm_safety.Service.Wire.addr }

(* Start `tm serve` and wait until it accepts a connection. *)
let start_server ~tm ~dir ~args =
  let sock = Filename.concat dir "tm.sock" in
  let pid =
    spawn tm
      ("serve" :: "--unix" :: sock :: "--quiet" :: args)
      ~log:(Filename.concat dir "serve.log")
  in
  let addr = `Unix sock in
  let deadline = Util.now () +. 20. in
  let rec wait () =
    if not (alive pid) then failwith "tm serve exited during start-up"
    else
      match Tm_safety.Service.Client.connect addr with
      | c -> Tm_safety.Service.Client.close c
      | exception (Unix.Unix_error _ | Tm_safety.Service.Client.Server_error _)
        when Util.now () < deadline ->
          Thread.delay 0.002;
          wait ()
  in
  wait ();
  { pid; addr }

let peak_rss_mb s = Util.peak_rss_mb (string_of_int s.pid)

(* SIGTERM is a graceful stop in `tm serve`; SIGKILL if it lingers. *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Util.now () +. 5. in
  while alive s.pid && Util.now () < deadline do
    Thread.delay 0.005
  done;
  if List.mem s.pid !children then begin
    (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
    reap s.pid
  end

(* A crash: nothing is flushed, no socket is unlinked. *)
let kill s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap s.pid
