(* Clocks, order statistics, scratch files and the result line. *)

let now = Tm_safety.Stm.Clock.now

(* Nearest-rank percentile of an ascending array; [0.] when empty, so a
   metric of a layer that was never called reads as a measured zero. *)
let percentile sorted p =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
      let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) - 1 in
      sorted.(max 0 (min (n - 1) rank))

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median l = percentile (sorted l) 50.
let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)
let sum = List.fold_left ( +. ) 0.

(* Throughput as the median over one-second windows of the events whose
   operations overlap each window, each operation's events spread evenly
   over its [start, finish] span: a burst of host steal time moves a few
   windows, not the figure. *)
let windowed_rate spans =
  let window = 1. in
  match spans with
  | [] -> 0.
  | (s0, _, _) :: _ ->
      let t0 = List.fold_left (fun a (s, _, _) -> min a s) s0 spans in
      let t1 = List.fold_left (fun a (_, f, _) -> max a f) s0 spans in
      let n = max 1 (int_of_float ((t1 -. t0) /. window)) in
      let width = (t1 -. t0) /. float_of_int n in
      let acc = Array.make n 0. in
      List.iter
        (fun (s, f, events) ->
          let d = max 1e-9 (f -. s) in
          let first = max 0 (int_of_float ((s -. t0) /. width)) in
          let last = min (n - 1) (int_of_float ((f -. t0) /. width)) in
          for w = first to last do
            let lo = max s (t0 +. (float_of_int w *. width)) in
            let hi = min f (t0 +. (float_of_int (w + 1) *. width)) in
            if hi > lo then acc.(w) <- acc.(w) +. (float_of_int events *. (hi -. lo) /. d)
          done)
        spans;
      median (Array.to_list (Array.map (fun e -> e /. width) acc))

(* The [p]-th percentile of [(time, value)] samples within each of up to
   five equal stretches of the run, median over the stretches: a stall
   that hits one stretch moves one of the figures, not the result.  Each
   stretch holds on average enough samples that ten lie beyond the
   percentile (1000 for p99), so a short run has fewer stretches, and one
   under that size has a single one. *)
let blocked_percentile samples p =
  match samples with
  | [] -> 0.
  | (s0, _) :: _ ->
      let per_block = int_of_float (Float.round (1000. /. (100. -. p))) in
      let blocks = max 1 (min 5 (List.length samples / per_block)) in
      let t0 = List.fold_left (fun a (t, _) -> min a t) s0 samples in
      let t1 = List.fold_left (fun a (t, _) -> max a t) s0 samples in
      let width = max 1e-9 ((t1 -. t0) /. float_of_int blocks) in
      let buckets = Array.make blocks [] in
      List.iter
        (fun (t, v) ->
          let b = min (blocks - 1) (int_of_float ((t -. t0) /. width)) in
          buckets.(b) <- v :: buckets.(b))
        samples;
      median
        (List.filter_map
           (fun l -> if l = [] then None else Some (percentile (sorted l) p))
           (Array.to_list buckets))

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter
        (fun nm -> rm_rf (Filename.concat path nm))
        (try Sys.readdir path with Sys_error _ -> [||]);
      (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Peak resident set (VmHWM) of a live process, in MiB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.
              | [] -> acc)
          | _ -> acc)
        0. (String.split_on_char '\n' text)

(* --- the result line ------------------------------------------------------ *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; unit; value }

let json_number f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else if Float.is_finite f then Printf.sprintf "%.17g" f
  else "0"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_string x.name)
          (json_number x.value) (json_string x.unit))
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " body)
