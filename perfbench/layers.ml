(* Per-layer metrics of one workload, from in-process replays of a
   window of the stream the socket run sent (never concurrent with it),
   plus the reference replay's counters and the socket run's server CPU:

   - the traced daemon pass, between two untraced ones, gives daemon
     totals: handle_line per line (split into lines that close an epoch
     and lines that do not), response rendering, GET metrics reads, and
     GC counters;
   - the served and probe passes time the public entry point of each
     layer.

   Times are means over the recorded window, in microseconds. *)

module Obs = Stratrec_obs

let us seconds calls = if calls = 0 then 0. else seconds /. float_of_int calls *. 1e6

let ratio a b = if b = 0. then 0. else a /. b

let metrics (w : Workload.t) ~seed ~lines ~(window : Replay.window) ~(load : Loadgen.result)
    ~(reference : Replay.daemon_stats) ~server_cpu_us ~run_dir =
  let requests = float_of_int (window.Replay.last - window.Replay.first + 1) in
  let daemon_spans = Spans.create () in
  (* The traced daemon pass runs between two untraced ones, so the
     tracing overhead compares passes made under like host conditions. *)
  let pass spans =
    let stats =
      Replay.daemon_pass ?spans w ~seed ~lines:window.Replay.last ~window
        ~answers:load.Loadgen.answers
    in
    if stats.Replay.mismatches <> [] then failwith "a replay disagrees with the socket run";
    stats
  in
  let before = pass None in
  let traced = pass (Some daemon_spans) in
  let after = pass None in
  let layer_spans = Spans.create () in
  let served_mismatches, epochs =
    Replay.served_pass layer_spans w ~seed ~window ~answers:load.Loadgen.answers
  in
  if served_mismatches <> [] then failwith "the served-path replay disagrees with the socket run";
  Replay.probe_passes layer_spans ~window epochs;
  let prefix = Filename.concat run_dir ("spans-" ^ w.Workload.name) in
  Spans.write daemon_spans (prefix ^ "-daemon.tsv");
  Spans.write layer_spans (prefix ^ "-layers.tsv");
  let d = Spans.totals daemon_spans and l = Spans.totals layer_spans in
  let mean_us t = us t.Spans.seconds t.Spans.calls in
  let per_call_words t = ratio t.Spans.alloc (float_of_int t.Spans.calls) in
  let handle = d "daemon.handle_line" and epoch_line = d "daemon.epoch_line" in
  let daemon_render = d "protocol.render" in
  let dmetrics = d "daemon.metrics" and openmetrics = d "snapshot.to_openmetrics" in
  let parse = l "protocol.parse" and render = l "protocol.render" in
  let offer = l "admission.offer" and drain = l "admission.drain" in
  let submit = l "engine.submit" and submit_noobs = l "engine.submit_noobs" in
  let aggregator = l "aggregator.run" in
  let workforce = l "workforce.compute" and batchstrat = l "batchstrat.run" in
  let adpar = l "adpar.exact" in
  (* What the server spends per request outside the daemon core and the
     rendering of its answers: reading, line splitting and writing. *)
  let daemon_us_per_req =
    (handle.Spans.seconds +. epoch_line.Spans.seconds +. daemon_render.Spans.seconds
   +. dmetrics.Spans.seconds +. openmetrics.Spans.seconds)
    /. requests *. 1e6
  in
  let transport_us = server_cpu_us -. daemon_us_per_req in
  (* The served path as the sum of named layer calls: everything the
     daemon does per request that one of them accounts for. *)
  let layers_us_per_req =
    (parse.Spans.self +. offer.Spans.self +. render.Spans.self +. drain.Spans.self
   +. submit.Spans.self +. dmetrics.Spans.self +. openmetrics.Spans.self)
    /. requests *. 1e6
  in
  let snapshot = reference.Replay.final in
  let counter name = float_of_int (Obs.Snapshot.counter_value snapshot name) in
  let sent = float_of_int lines in
  let hits = counter "cache.hits_total" and misses = counter "cache.misses_total" in
  let untraced = (before.Replay.window_seconds +. after.Replay.window_seconds) /. 2. in
  [
    ("adpar.exact_us", mean_us adpar, "us");
    ("adpar.exact_words", per_call_words adpar, "words");
    ("adpar.calls_per_req", counter "adpar.calls_total" /. sent, "count");
    ("adpar.sweep_events_per_req", counter "adpar.sweep_events_total" /. sent, "count");
    ("workforce.compute_us_per_epoch", mean_us workforce, "us");
    ("batchstrat.run_us_per_epoch", mean_us batchstrat, "us");
    ("aggregator.run_us_per_epoch", mean_us aggregator, "us");
    ("aggregator.words_per_epoch", per_call_words aggregator, "words");
    ("engine.submit_us_per_epoch", mean_us submit, "us");
    ("engine.submit_noobs_us_per_epoch", mean_us submit_noobs, "us");
    ("engine.obs_overhead_ratio", ratio submit.Spans.seconds submit_noobs.Spans.seconds, "ratio");
    ("triage_cache.hit_ratio", ratio hits (hits +. misses), "ratio");
    ("protocol.parse_us", mean_us parse, "us");
    ("protocol.render_us", mean_us render, "us");
    ("protocol.words_per_req", (parse.Spans.alloc +. render.Spans.alloc) /. requests, "words");
    ("server.transport_us_per_req", transport_us, "us");
    ("admission.offer_us", mean_us offer, "us");
    ("admission.drain_us", mean_us drain, "us");
    ("daemon.handle_line_us", mean_us handle, "us");
    ("daemon.epoch_line_us", mean_us epoch_line, "us");
    ( "daemon.bookkeeping_us_per_epoch",
      mean_us epoch_line -. mean_us parse -. mean_us offer -. mean_us drain -. mean_us submit,
      "us" );
    ("daemon.metrics_us", mean_us dmetrics, "us");
    ("snapshot.to_openmetrics_us", mean_us openmetrics, "us");
    ("snapshot.openmetrics_bytes", float_of_int traced.Replay.openmetrics_bytes, "bytes");
    ("obs.series_count", float_of_int traced.Replay.series, "count");
    ("gc.minor_words_per_req", traced.Replay.gc_minor_words /. requests, "words");
    ( "gc.major_collections_per_kreq",
      float_of_int traced.Replay.gc_major_collections /. requests *. 1e3,
      "count" );
    ("layers.coverage_ratio", ratio (layers_us_per_req +. transport_us) server_cpu_us, "ratio");
    ("trace.overhead_ratio", ratio traced.Replay.window_seconds untraced, "ratio");
  ]
