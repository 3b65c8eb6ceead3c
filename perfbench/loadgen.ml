(* Closed-loop socket client for a real stratrec-serve process.

   One connection submits and keeps exactly [window] requests
   outstanding: it sends one new submit per [completed] line read, so
   every epoch fills and the daemon never idles waiting for the client.
   Once per [scrape_every] completions the client tops the stream up to
   a whole epoch and holds further submits until every answer is in;
   then it sends [GET metrics] on a second connection to the idle
   daemon, and refills the window when the scrape is answered. So a
   scrape times the exposition path, not the epochs queued ahead of it.
   After a warm-up the client measures for a fixed time; then it tops
   the stream up to a whole epoch, stops sending and reads every
   outstanding answer.

   Answers are not checked here: the client keeps, per request id, the
   digest of the [completed] line with its wall-clock lineage stripped,
   and the caller compares those against the in-process reference. *)

let epoch = Workload.epoch_requests
let window = 2 * epoch

(* USER_HZ: the unit of the utime/stime fields of /proc/<pid>/stat. *)
let clock_ticks = 100.

let now = Unix.gettimeofday

(* The [completed] line minus its trailing ["lineage"] object: the
   stage timings are wall-clock readings, everything else is
   deterministic. *)
let lineage_key = {|,"lineage":|}

let strip_lineage line =
  let n = String.length line and k = String.length lineage_key in
  let rec matches i j = j = k || (line.[i + j] = lineage_key.[j] && matches i (j + 1)) in
  let rec find i =
    if i < 0 then line else if matches i 0 then String.sub line 0 i ^ "}" else find (i - 1)
  in
  find (n - k)

let digest line = Digest.string (strip_lineage line)

(* Growable float array: samples and send times stay unboxed, so the
   client's major heap holds nothing per request for the GC to trace. *)
module Floats = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 4096 0.; n = 0 }

  let set t i v =
    if i >= Array.length t.a then begin
      let b = Array.make (max (i + 1) (2 * Array.length t.a)) 0. in
      Array.blit t.a 0 b 0 (Array.length t.a);
      t.a <- b
    end;
    t.a.(i) <- v;
    if i >= t.n then t.n <- i + 1

  let get t i = t.a.(i)
  let push t v = set t t.n v
  let length t = t.n
  let sub t ~from ~until = Array.sub t.a from (until - from)
end

(* The digest of each request's answer, by id, in one byte buffer. *)
module Answers = struct
  type t = { mutable b : Bytes.t }

  let width = 16
  let create () = { b = Bytes.make (width * 4096) '\000' }
  let unanswered = String.make width '\000'

  let set t id d =
    if width * (id + 1) > Bytes.length t.b then begin
      let b = Bytes.make (max (width * (id + 1)) (2 * Bytes.length t.b)) '\000' in
      Bytes.blit t.b 0 b 0 (Bytes.length t.b);
      t.b <- b
    end;
    Bytes.blit_string d 0 t.b (width * id) width

  (** [None] when request [id] was never answered. *)
  let get t id =
    if width * (id + 1) > Bytes.length t.b then None
    else
      let d = Bytes.sub_string t.b (width * id) width in
      if d = unanswered then None else Some d
end

let read_file path = In_channel.with_open_bin path In_channel.input_all

let cpu_seconds pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.rindex stat ')' in
  let fields =
    String.split_on_char ' ' (String.sub stat (after + 2) (String.length stat - after - 2))
  in
  (* fields.(0) is field 3 (state); utime and stime are fields 14, 15 *)
  let f i = float_of_string (List.nth fields (i - 3)) in
  (f 14 +. f 15) /. clock_ticks

let peak_rss_kb pid =
  let status = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find (fun l -> String.starts_with ~prefix:"VmHWM:" l) (String.split_on_char '\n' status)
  in
  Scanf.sscanf line "VmHWM: %d kB" Fun.id

exception Stall of string

let fail fmt = Printf.ksprintf (fun m -> raise (Stall m)) fmt

let rec write_all fd s off =
  if off < String.length s then
    match Unix.write_substring fd s off (String.length s - off) with
    | n -> write_all fd s (off + n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s off

(* Line reader over a socket: feeds complete lines to [on_line]. *)
type reader = { fd : Unix.file_descr; buf : Bytes.t; partial : Buffer.t }

let reader fd = { fd; buf = Bytes.create 65536; partial = Buffer.create 4096 }

let read_lines r on_line =
  match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true
  | 0 -> false
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get r.buf i = '\n' then begin
          let piece = Bytes.sub_string r.buf !start (i - !start) in
          let line =
            if Buffer.length r.partial = 0 then piece
            else begin
              Buffer.add_string r.partial piece;
              let l = Buffer.contents r.partial in
              Buffer.clear r.partial;
              l
            end
          in
          start := i + 1;
          on_line line
        end
      done;
      if !start < n then Buffer.add_subbytes r.partial r.buf !start (n - !start);
      true

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> Some fd
  | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN), _, _) ->
      Unix.close fd;
      None

let wait_readable fd seconds what =
  match Unix.select [ fd ] [] [] seconds with
  | [], _, _ -> fail "no answer to %s within %.0f s" what seconds
  | _ -> ()

(* A running server: pid, socket path and the submit connection. *)
type server = { pid : int; sock : string; conn : Unix.file_descr }

let kill_quietly pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

let live = ref []

let () = at_exit (fun () -> List.iter kill_quietly !live)

(* Spawn the daemon and time it to the first answered ping: the set-up
   time a user waits before the daemon serves. *)
let spawn ?cpu ~exe ~args ~sock () =
  (try Unix.unlink sock with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = now () in
  let argv = exe :: "--socket" :: sock :: args in
  let argv =
    match cpu with Some c -> "taskset" :: "-c" :: string_of_int c :: argv | None -> argv
  in
  let pid =
    Unix.create_process (List.hd argv) (Array.of_list argv) devnull devnull Unix.stderr
  in
  Unix.close devnull;
  live := pid :: !live;
  let rec dial tries =
    match connect sock with
    | Some fd -> fd
    | None ->
        if tries = 0 then fail "server never opened %s" sock;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> fail "server exited during start-up");
        Unix.sleepf 0.0002;
        dial (tries - 1)
  in
  let conn = dial 100_000 in
  write_all conn "{\"op\":\"ping\"}\n" 0;
  let r = reader conn in
  let pong = ref false in
  while not !pong do
    wait_readable conn 30. "ping";
    if not (read_lines r (fun l -> if l = {|{"ok":true,"status":"pong"}|} then pong := true))
    then fail "server closed the connection before answering ping"
  done;
  ({ pid; sock; conn }, now () -. t0)

(* Shut the daemon down through the protocol and reap it. *)
let shutdown s =
  write_all s.conn "{\"op\":\"shutdown\"}\n" 0;
  let r = reader s.conn in
  let bye = ref false in
  let deadline = now () +. 60. in
  let open_ = ref true in
  while !open_ && now () < deadline do
    wait_readable s.conn 60. "shutdown";
    open_ :=
      read_lines r (fun l ->
          if String.starts_with ~prefix:{|{"ok":true,"status":"shutting-down"|} l then
            bye := true)
  done;
  Unix.close s.conn;
  if not !bye then fail "server did not acknowledge shutdown";
  let rec reap tries =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when tries > 0 ->
        Unix.sleepf 0.01;
        reap (tries - 1)
    | 0, _ -> fail "server still running after shutdown"
    | _, Unix.WEXITED 0 -> ()
    | _ -> fail "server exited abnormally"
  in
  reap 6000;
  live := List.filter (fun p -> p <> s.pid) !live

(* One slice of the measured phase. Slices start and end at socket
   reads, so [answered] completions arrived within [seconds] exactly.
   Its samples are [latencies_ms] from [lat_from] to [lat_until]
   (exclusive), and likewise for scrapes. *)
type slice = {
  t0 : float;  (** wall-clock start *)
  seconds : float;
  answered : int;
  cpu_seconds : float;  (** server user+sys CPU over the slice *)
  lat_from : int;
  lat_until : int;
  scr_from : int;
  scr_until : int;
}

type result = {
  sent : int;  (** submits written; a whole number of epochs *)
  completed : int;
  failed : int;  (** answers other than accepted/completed/epoch-closed *)
  slices : slice list;  (** the measured phase, in order *)
  latencies_ms : Floats.t;  (** submit → completed, answers read while measuring *)
  scrapes_ms : Floats.t;  (** GET metrics round trips sent while measuring *)
  scraped_at : Floats.t;  (** the send time of each of [scrapes_ms] *)
  peak_rss_kb : int;
  answers : Answers.t;
}

let completed_prefix = {|{"ok":true,"status":"completed","id":|}
let accepted_prefix = {|{"ok":true,"status":"accepted"|}
let closed_prefix = {|{"ok":true,"status":"epoch-closed"|}

let id_after_prefix line =
  let p = String.length completed_prefix in
  let rec go i acc =
    if i < String.length line && line.[i] >= '0' && line.[i] <= '9' then
      go (i + 1) ((acc * 10) + Char.code line.[i] - 48)
    else acc
  in
  go p 0

let run s ~next_line ~scrape_every ~warmup ~slices:n_slices ~slice_seconds =
  let scraper =
    match connect s.sock with Some fd -> fd | None -> fail "scrape connection refused"
  in
  let sub = reader s.conn and scr = reader scraper in
  let sent_at = Floats.create () and answers = Answers.create () in
  let sent = ref 0 and completed = ref 0 and failed = ref 0 in
  let sending = ref true in
  let out = Buffer.create 4096 in
  let t_start = now () in
  let warm_end = t_start +. warmup in
  let measuring = ref false and measured = ref false in
  let slices = ref [] and n_closed = ref 0 in
  let slice_t0 = ref 0. and slice_cpu0 = ref 0. and slice_done0 = ref 0 in
  let latencies = Floats.create () and scrapes = Floats.create () in
  let scraped_at = Floats.create () in
  let lat0 = ref 0 and scr0 = ref 0 in
  let open_slice t =
    slice_t0 := t;
    slice_cpu0 := cpu_seconds s.pid;
    slice_done0 := !completed;
    lat0 := Floats.length latencies;
    scr0 := Floats.length scrapes
  in
  let close_slice t =
    slices :=
      {
        t0 = !slice_t0;
        seconds = t -. !slice_t0;
        answered = !completed - !slice_done0;
        cpu_seconds = cpu_seconds s.pid -. !slice_cpu0;
        lat_from = !lat0;
        lat_until = Floats.length latencies;
        scr_from = !scr0;
        scr_until = Floats.length scrapes;
      }
      :: !slices;
    incr n_closed
  in
  (* [holding]: a scrape is due, so no submit goes out past the current
     epoch until the scrape is answered. *)
  let scrape_sent = ref None and scrapes_due = ref 0 and holding = ref false in
  (* Submits queued while one read is processed go out in one write;
     their send time is stamped just before it. Ids are consecutive, so
     the batch is the id range after [stamped]. *)
  let stamped = ref 0 in
  let queue_submit () =
    incr sent;
    Buffer.add_string out (next_line ());
    Buffer.add_char out '\n'
  in
  let flush_submits () =
    if Buffer.length out > 0 then begin
      let t = now () in
      for id = !stamped + 1 to !sent do
        Floats.set sent_at id t
      done;
      stamped := !sent;
      write_all s.conn (Buffer.contents out) 0;
      Buffer.clear out
    end
  in
  for _ = 1 to window do
    queue_submit ()
  done;
  flush_submits ();
  let t_now = ref (now ()) in
  let on_submit_line line =
    if String.starts_with ~prefix:completed_prefix line then begin
      let id = id_after_prefix line in
      incr completed;
      Answers.set answers id (digest line);
      if !measuring then Floats.push latencies ((!t_now -. Floats.get sent_at id) *. 1e3);
      if !sending then
        if !sent mod epoch <> 0 || not (!measured || !holding) then queue_submit ()
        else if !measured then sending := false
    end
    else if
      not
        (String.starts_with ~prefix:accepted_prefix line
        || String.starts_with ~prefix:closed_prefix line)
    then begin
      incr failed;
      Printf.eprintf "perfbench: unexpected answer: %s\n%!" line
    end
  in
  let on_scrape_line line =
    if line = "# EOF" then
      match !scrape_sent with
      | Some t0 ->
          if !measuring && t0 >= !slice_t0 then begin
            Floats.push scrapes ((!t_now -. t0) *. 1e3);
            Floats.push scraped_at t0
          end;
          scrape_sent := None;
          holding := false;
          if !sending && not !measured then
            for _ = 1 to window do
              queue_submit ()
            done
      | None -> fail "metrics answer without a scrape"
  in
  while !completed + !failed < !sent || !scrape_sent <> None do
    let fds = if !scrape_sent = None then [ s.conn ] else [ s.conn; scraper ] in
    let readable, _, _ =
      match Unix.select fds [] [] 30. with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      | ([], _, _) -> fail "no answer for 30 s with %d outstanding" (!sent - !completed)
      | r -> r
    in
    t_now := now ();
    if (not !measuring) && (not !measured) && !t_now >= warm_end then begin
      measuring := true;
      open_slice !t_now
    end
    else if !measuring && !t_now >= !slice_t0 +. slice_seconds then begin
      close_slice !t_now;
      if !n_closed = n_slices then begin
        measuring := false;
        measured := true
      end
      else open_slice !t_now
    end;
    if List.mem scraper readable then
      if not (read_lines scr on_scrape_line) then fail "server closed the scrape connection";
    if List.mem s.conn readable then
      if not (read_lines sub on_submit_line) then fail "server closed the submit connection";
    flush_submits ();
    if !sending && (not !holding) && !completed / scrape_every > !scrapes_due then begin
      scrapes_due := !completed / scrape_every;
      holding := true
    end;
    if !holding && !scrape_sent = None && !completed + !failed = !sent then begin
      scrape_sent := Some (now ());
      write_all scraper "GET metrics\n" 0
    end
  done;
  if not !measured then fail "the run ended before the measured phase did";
  Unix.close scraper;
  let peak = peak_rss_kb s.pid in
  {
    sent = !sent;
    completed = !completed;
    failed = !failed;
    slices = List.rev !slices;
    latencies_ms = latencies;
    scrapes_ms = scrapes;
    scraped_at;
    peak_rss_kb = peak;
    answers;
  }
