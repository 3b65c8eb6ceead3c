(* stratrec-serve benchmark: closed-loop socket runs of the real daemon
   binary, every answer checked against an in-process reference, and —
   with --trace 1 — a traced in-process replay that times each layer.

     perfbench.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1

   prints one JSON object as its last stdout line:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
   ones. Exits 1 when any answer differs from the reference or is
   missing, 2 on a usage or run error. perfbench/run.py builds the
   binaries and calls this. *)

let usage = "perfbench.exe --server PATH --workload NAME --seed N --seconds S --trace 0|1"
let server = ref ""
let workload = ref ""
let seed = ref (-1)
let seconds = ref 0.
let trace = ref (-1)
let run_dir = "perfbench/_run"
let corrupt = ref false
let server_cpu = ref (-1)

let specs =
  [
    ("--server", Arg.Set_string server, "PATH stratrec-serve binary");
    ("--workload", Arg.Set_string workload, "NAME cold-adpar or hot-cache");
    ("--seed", Arg.Set_int seed, "N workload seed");
    ("--seconds", Arg.Set_float seconds, "S length of the measured phase");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--server-cpu", Arg.Set_int server_cpu, "N pin the daemon to CPU N with taskset");
    ( "--corrupt-reference",
      Arg.Set corrupt,
      " alter one reference answer (the self-test proves the gate fails)" );
  ]

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* Set-up time is the median of this many spawns; the last one serves
   the load. *)
let setup_spawns = 21

(* The measured phase is cut into slices of this length. Each slice's
   times are scaled to the reference core speed by the median probe
   reading within it (see probe.ml): the host's per-core speed drifts by
   up to 2x over seconds, and a slice is short enough to sit in one
   speed. *)
let slice_seconds = 0.5

let median_array a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median xs = median_array (Array.of_list xs)

(* Nearest-rank percentile of a sample. *)
let percentile a p =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

(* Latency p99 is read per window of consecutive slices, each window
   as short as holds this many samples, so ten lie beyond its p99; a
   run reports the median window. A host hiccup moves the windows it
   falls in, not the run: on hot-cache a window is one slice, on
   cold-adpar about ten. *)
let p99_samples = 1000

(* Slice indices grouped into such windows; a short remainder joins the
   last window. *)
let p99_windows (slices : Loadgen.slice array) =
  let size k = slices.(k).lat_until - slices.(k).lat_from in
  let rec go k cur count acc =
    if k = Array.length slices then
      match (cur, acc) with
      | [], _ -> List.rev acc
      | _, [] -> [ List.rev cur ]
      | _, last :: earlier -> List.rev ((last @ List.rev cur) :: earlier)
    else
      let cur = k :: cur and count = count + size k in
      if count >= p99_samples then go (k + 1) [] 0 (List.rev cur :: acc)
      else go (k + 1) cur count acc
  in
  go 0 [] 0 []

(* The median probe reading over [t0, t1), or [None] when no round
   started there. *)
let probe_us rounds ~t0 ~t1 =
  match Probe.readings rounds ~t0 ~t1 with [||] -> None | r -> Some (median_array r)

(* Every time is multiplied by its slice's [scale]: the reference probe
   time over the probe's median time in that slice, or over its median
   in the whole phase for a slice without a probe reading. *)
let end_to_end (load : Loadgen.result) ~setup ~rounds =
  let slices = Array.of_list load.Loadgen.slices in
  let last = slices.(Array.length slices - 1) in
  let phase =
    match probe_us rounds ~t0:slices.(0).Loadgen.t0 ~t1:(last.Loadgen.t0 +. last.Loadgen.seconds) with
    | Some p -> p
    | None -> Loadgen.fail "no probe reading while measuring"
  in
  let scale =
    Array.map
      (fun (sl : Loadgen.slice) ->
        let p = probe_us rounds ~t0:sl.t0 ~t1:(sl.t0 +. sl.seconds) in
        Probe.reference_us /. Option.value p ~default:phase)
      slices
  in
  let sum f = Array.fold_left ( +. ) 0. (Array.mapi f slices) in
  let answered = sum (fun _ sl -> float_of_int sl.Loadgen.answered) in
  let latencies k =
    let sl = slices.(k) in
    Array.map
      (fun ms -> ms *. scale.(k))
      (Loadgen.Floats.sub load.Loadgen.latencies_ms ~from:sl.Loadgen.lat_from ~until:sl.lat_until)
  in
  let n = Array.length slices in
  let pooled ks = Array.concat (List.map latencies ks) in
  (* A scrape is sent to an idle daemon, within one slice. *)
  let slice_of t =
    let k = ref 0 in
    Array.iteri (fun i (sl : Loadgen.slice) -> if sl.t0 <= t then k := i) slices;
    !k
  in
  let scrapes =
    Array.init (Loadgen.Floats.length load.Loadgen.scrapes_ms) (fun i ->
        Loadgen.Floats.get load.Loadgen.scrapes_ms i
        *. scale.(slice_of (Loadgen.Floats.get load.Loadgen.scraped_at i)))
  in
  let p99s = List.map (fun ks -> percentile (pooled ks) 0.99) (p99_windows slices) in
  [
    ("setup_s", setup, "s");
    ("throughput_rps", answered /. sum (fun k sl -> sl.Loadgen.seconds *. scale.(k)), "1/s");
    ("latency_p50_ms", percentile (pooled (List.init n Fun.id)) 0.5, "ms");
    ("latency_p99_ms", median p99s, "ms");
    ("server_cpu_us_per_req", sum (fun k sl -> sl.Loadgen.cpu_seconds *. scale.(k)) /. answered *. 1e6, "us");
    ("scrape_p50_ms", percentile scrapes 0.5, "ms");
    ("peak_rss_mb", float_of_int load.Loadgen.peak_rss_kb /. 1024., "MB");
  ]

let result_line ~correct ~attempted ~failed metrics =
  let metric (name, value, unit) =
    Printf.sprintf {|"%s": {"value": %.17g, "unit": "%s"}|} name value unit
  in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    attempted failed
    (String.concat ", " (List.map metric metrics));
  print_newline ()

let main () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "--probe" then Probe.serve ();
  Arg.parse specs (fun a -> die "unexpected argument %s" a) usage;
  let w =
    match Workload.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !server = "" || not (Sys.file_exists !server) then die "no server binary at %S" !server;
  if !seed < 0 then die "--seed must be a non-negative integer";
  if not (!seconds > 0.) then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  let sock = Filename.concat run_dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let args = Workload.server_args in
  let cpu = if !server_cpu >= 0 then Some !server_cpu else None in
  let probe = Probe.start ?cpu ~exe:Sys.executable_name () in
  (* Set-up: spawn fresh servers until the first ping answers; all but
     the last are shut down again straight away. *)
  let setups = ref [] in
  let setup_t0 = Unix.gettimeofday () in
  let rec spawn k =
    let s, setup = Loadgen.spawn ?cpu ~exe:!server ~args ~sock () in
    setups := setup :: !setups;
    if k > 1 then begin
      Loadgen.shutdown s;
      spawn (k - 1)
    end
    else s
  in
  let s = spawn setup_spawns in
  let setup_t1 = Unix.gettimeofday () in
  let load =
    Loadgen.run s ~next_line:(w.Workload.stream !seed) ~scrape_every:w.Workload.scrape_every
      ~warmup:Workload.warmup_seconds
      ~slices:(max 2 (int_of_float (Float.round (!seconds /. slice_seconds))))
      ~slice_seconds
  in
  Loadgen.shutdown s;
  let rounds = Probe.stop probe in
  (* Set-up time is scaled like the measured phase, by the probe's median
     over the set-up spawns (over the whole run if none fell there). *)
  let setup =
    let p =
      match probe_us rounds ~t0:setup_t0 ~t1:setup_t1 with
      | Some p -> p
      | None -> median_array (Array.map snd rounds)
    in
    median !setups *. Probe.reference_us /. p
  in
  (* The reference replay; with --corrupt-reference one expected answer
     is altered, so the gate below must fail. *)
  let lines = load.Loadgen.sent in
  let layer_warmup = min (lines / 2) (w.Workload.layer_requests / 4) in
  let window =
    {
      Replay.first = layer_warmup + 1;
      last = min lines (layer_warmup + w.Workload.layer_requests);
    }
  in
  let reference =
    Replay.daemon_pass
      ?corrupt:(if !corrupt then Some (lines / 2) else None)
      w ~seed:!seed ~lines ~window ~answers:load.Loadgen.answers
  in
  let correct =
    reference.Replay.mismatches = [] && reference.Replay.missing = []
    && reference.Replay.unexpected = 0 && reference.Replay.checked = lines
  in
  let failed = load.Loadgen.failed + (lines - load.Loadgen.completed) in
  let slices = load.Loadgen.slices in
  let sum f = List.fold_left (fun acc sl -> acc +. f sl) 0. slices in
  let measured = sum (fun sl -> float_of_int sl.Loadgen.answered) in
  Printf.eprintf
    "perfbench: %s seed %d: %d sent, %d completed, %d failed (failed_ratio %g); %d measured \
     over %.3f s; %d latency and %d scrape samples; %d answers checked, %d \
     mismatched, %d missing\n\
     %!"
    w.Workload.name !seed lines load.Loadgen.completed failed
    (float_of_int failed /. float_of_int lines)
    (int_of_float measured)
    (sum (fun sl -> sl.Loadgen.seconds))
    (Loadgen.Floats.length load.Loadgen.latencies_ms)
    (Loadgen.Floats.length load.Loadgen.scrapes_ms)
    reference.Replay.checked
    (List.length reference.Replay.mismatches)
    (List.length reference.Replay.missing);
  Printf.eprintf "perfbench: core-speed probe: %d rounds, median %.1f us (reference %.0f us)\n%!"
    (Array.length rounds)
    (median_array (Array.map snd rounds))
    Probe.reference_us;
  List.iteri
    (fun i id -> if i < 5 then Printf.eprintf "perfbench: answer %d differs from the reference\n" id)
    reference.Replay.mismatches;
  List.iteri
    (fun i id -> if i < 5 then Printf.eprintf "perfbench: request %d was never answered\n" id)
    reference.Replay.missing;
  let metrics =
    if !trace = 0 then end_to_end load ~setup ~rounds
    else
      Layers.metrics w ~seed:!seed ~lines ~window ~load ~reference
        ~server_cpu_us:(sum (fun sl -> sl.Loadgen.cpu_seconds) /. measured *. 1e6)
        ~run_dir
  in
  result_line ~correct ~attempted:lines ~failed metrics;
  exit (if correct then 0 else 1)

let () =
  try main () with
  | Loadgen.Stall m -> die "%s" m
  | Failure m -> die "%s" m
  | Unix.Unix_error (e, fn, _) -> die "%s: %s" fn (Unix.error_message e)
