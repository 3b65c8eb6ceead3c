(* Core-speed probe.

   The host lends this benchmark two cores whose speed drifts by up to 2x
   within seconds, each core on its own. So every time a run measures is
   scaled to a reference core speed, read off a probe that runs beside
   the daemon on the daemon's core: a child process that wakes every
   [period] seconds and times one round of [work], a fixed piece of
   OCaml (float arithmetic, allocation, hashing, string formatting and a
   sort) that calls no code of the program under test. A program change
   moves the daemon's times but not the probe's; a change of core speed
   moves both.

   The probe takes under 1% of the daemon's core, about 0.1 ms at a
   time, short beside a hot-cache request's latency. Its readings stay in
   the child until it is stopped, then come back over a pipe. *)

let period = 0.02

(* The probe's time for one round of [work] on the reference core:
   about its median on the 2-vCPU Xeon host this benchmark was tuned on,
   where a round took 80–170 us. Times are scaled by
   [reference_us / probe_us]. *)
let reference_us = 120.

let work () =
  let tbl = Hashtbl.create 256 in
  let sum = ref 0. and words = ref [] in
  for i = 1 to 400 do
    let x = float_of_int i *. 1.000123 in
    sum := !sum +. sqrt x;
    Hashtbl.replace tbl (i land 255) x;
    if i land 7 = 0 then words := Printf.sprintf "%.3f" x :: !words
  done;
  let a = Array.of_list !words in
  Array.sort compare a;
  Array.length a + Hashtbl.length tbl + int_of_float !sum

(* The child: probe until stdin reaches end of file, then print one
   "start duration_us" line per round on stdout. *)
let serve () =
  let starts = Loadgen.Floats.create () and durations = Loadgen.Floats.create () in
  let rec loop () =
    match Unix.select [ Unix.stdin ] [] [] period with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | _ :: _, _, _ -> ()
    | [], _, _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (work ()));
        let t1 = Unix.gettimeofday () in
        Loadgen.Floats.push starts t0;
        Loadgen.Floats.push durations ((t1 -. t0) *. 1e6);
        loop ()
  in
  loop ();
  let out = Buffer.create 65536 in
  for i = 0 to Loadgen.Floats.length starts - 1 do
    Printf.bprintf out "%.6f %.3f\n" (Loadgen.Floats.get starts i) (Loadgen.Floats.get durations i)
  done;
  print_string (Buffer.contents out);
  exit 0

type t = { pid : int; stop : Unix.file_descr; out : Unix.file_descr }

(* Start the probe as [exe --probe], on CPU [cpu] when given. *)
let start ?cpu ~exe () =
  let child_in, stop = Unix.pipe ~cloexec:true () in
  let out, child_out = Unix.pipe ~cloexec:true () in
  let argv = [ exe; "--probe" ] in
  let argv =
    match cpu with Some c -> "taskset" :: "-c" :: string_of_int c :: argv | None -> argv
  in
  let pid = Unix.create_process (List.hd argv) (Array.of_list argv) child_in child_out Unix.stderr in
  Unix.close child_in;
  Unix.close child_out;
  Loadgen.live := pid :: !Loadgen.live;
  { pid; stop; out }

(* Stop the probe, reap it, and return its rounds, sorted by start time,
   as (start, duration in microseconds). *)
let stop t =
  Unix.close t.stop;
  let ic = Unix.in_channel_of_descr t.out in
  let text = In_channel.input_all ic in
  close_in ic;
  (match Unix.waitpid [] t.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> Loadgen.fail "the core-speed probe exited abnormally");
  Loadgen.live := List.filter (fun p -> p <> t.pid) !Loadgen.live;
  let rounds =
    List.filter_map
      (fun l -> Scanf.sscanf_opt l "%f %f" (fun s d -> (s, d)))
      (String.split_on_char '\n' text)
  in
  if rounds = [] then Loadgen.fail "the core-speed probe made no reading";
  Array.of_list rounds

(* The readings of the rounds started in [t0, t1). *)
let readings rounds ~t0 ~t1 =
  Array.of_list
    (List.filter_map
       (fun (s, d) -> if s >= t0 && s < t1 then Some d else None)
       (Array.to_list rounds))
