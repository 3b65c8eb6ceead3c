(* In-process replays of a workload's request stream.

   [daemon_pass] feeds the stream through [Serve.Daemon.handle_line]
   with the daemon configuration stratrec-serve runs, renders every
   response as the socket server does, and compares each [completed]
   answer with the digest the socket client recorded for the same id.
   It is the reference for the correctness gate, and — given a span
   recorder — the traced run's view of daemon totals.

   [served_pass] and [probe_passes] replay the same stream through the
   public entry points of each layer instead (protocol, admission,
   engine, aggregator and its kernels), recording a span around every
   call; the served pass checks its answers too. The traced passes
   skip a warm-up prefix so the recorded window sees a filled triage
   cache and a grown heap. *)

module Serve = Stratrec_serve
module Obs = Stratrec_obs
module Engine = Stratrec.Engine
module Model = Stratrec_model

let span spans name ~req f =
  match spans with None -> f () | Some sp -> Spans.record sp name ~req f

(* The recorded window: lines [first, last], both 1-based. *)
type window = { first : int; last : int }

type daemon_stats = {
  checked : int;  (** completed answers compared *)
  mismatches : int list;  (** ids whose answers differ, ascending *)
  missing : int list;  (** ids the socket run never answered, ascending *)
  unexpected : int;  (** reference responses other than accepted/completed/epoch-closed *)
  window_seconds : float;  (** wall time over the recorded window *)
  gc_minor_words : float;  (** over the recorded window *)
  gc_major_collections : int;
  openmetrics_bytes : int;  (** last scrape *)
  series : int;  (** last scrape *)
  final : Obs.Snapshot.t;  (** cumulative snapshot after the last line *)
}

let daemon_pass ?spans ?corrupt (w : Workload.t) ~seed ~lines ~window ~answers =
  let d = Workload.daemon () in
  let next = w.Workload.stream seed in
  let mismatches = ref [] and missing = ref [] in
  let checked = ref 0 and unexpected = ref 0 and completed = ref 0 in
  let bytes = ref 0 and series = ref 0 in
  let t0 = ref 0. and t1 = ref 0. in
  let gc0 = ref (Gc.quick_stat ()) and gc1 = ref (Gc.quick_stat ()) in
  let check id line =
    incr checked;
    let expected = Loadgen.digest line in
    let expected = if corrupt = Some id then Digest.string "corrupted" else expected in
    match Loadgen.Answers.get answers id with
    | None -> missing := id :: !missing
    | Some got -> if got <> expected then mismatches := id :: !mismatches
  in
  let scrape spans =
    let snap = span spans "daemon.metrics" ~req:0 (fun () -> Serve.Daemon.metrics d) in
    let text =
      span spans "snapshot.to_openmetrics" ~req:0 (fun () -> Obs.Snapshot.to_openmetrics snap)
    in
    bytes := String.length text;
    series := List.length snap
  in
  for i = 1 to lines do
    if i = window.first then begin
      gc0 := Gc.quick_stat ();
      t0 := Unix.gettimeofday ()
    end;
    let spans = if i >= window.first && i <= window.last then spans else None in
    let line = next () in
    let responses, _ =
      span spans "daemon.handle_line" ~req:i (fun () -> Serve.Daemon.handle_line d ~client:1 line)
    in
    if List.exists (function _, Serve.Protocol.Epoch_closed _ -> true | _ -> false) responses then
      Option.iter (fun sp -> Spans.rename_last sp "daemon.epoch_line") spans;
    List.iter
      (fun (_, r) ->
        let text = span spans "protocol.render" ~req:i (fun () -> Serve.Protocol.render r) in
        match r with
        | Serve.Protocol.Completed { id; _ } ->
            incr completed;
            check id (String.sub text 0 (String.length text - 1));
            if !completed mod w.Workload.scrape_every = 0 then scrape spans
        | Serve.Protocol.Epoch_closed _ | Serve.Protocol.Accepted _ -> ()
        | _ ->
            incr unexpected;
            Printf.eprintf "perfbench: reference answered %s" text)
      responses;
    if i = window.last then begin
      t1 := Unix.gettimeofday ();
      gc1 := Gc.quick_stat ()
    end
  done;
  {
    checked = !checked;
    mismatches = List.rev !mismatches;
    missing = List.rev !missing;
    unexpected = !unexpected;
    window_seconds = !t1 -. !t0;
    gc_minor_words = !gc1.Gc.minor_words -. !gc0.Gc.minor_words;
    gc_major_collections = !gc1.Gc.major_collections - !gc0.Gc.major_collections;
    openmetrics_bytes = !bytes;
    series = !series;
    final = Serve.Daemon.metrics d;
  }

let get = function Ok x -> x | Error e -> failwith (Engine.error_message e)

let session engine =
  let rng, strategies = Workload.catalog () in
  get
    (Engine.create ~config:engine ~rng
       ~availability:(Model.Availability.certain Workload.availability)
       ~strategies ())

let admission () =
  Serve.Admission.create ~capacity:Workload.daemon_config.Serve.Daemon.queue_capacity ()

let clock = Obs.Registry.wall_clock

(* The served path through its layers. Per line: Protocol.parse,
   Admission.offer and the render of the acknowledgement; per full
   epoch: Admission.drain, Engine.submit on a session observed like the
   daemon's, and the renders of the epoch's answers. Next to each
   Engine.submit, the same epoch goes through a session with no-op
   observability, first or second by turns, so the two are timed under
   the same host conditions. Every rendered answer is compared with the
   socket run's, as in [daemon_pass], so the pass forms the daemon's
   epochs. Returns the ids of differing answers and the epochs formed,
   as [(line closing the epoch, requests)]. *)
let served_pass spans (w : Workload.t) ~seed ~window ~answers =
  let engine = Workload.daemon_config.Serve.Daemon.engine in
  let observed =
    session (Engine.with_metrics engine (Obs.Registry.create ~clock ()))
  in
  let silent =
    session (Engine.with_trace (Engine.with_metrics engine Obs.Registry.noop) Obs.Trace.noop)
  in
  let queue = admission () in
  let next = w.Workload.stream seed in
  let mismatches = ref [] and epochs = ref [] in
  let render spans ~req r = span spans "protocol.render" ~req (fun () -> Serve.Protocol.render r) in
  for i = 1 to window.last do
    let spans = if i >= window.first then Some spans else None in
    match span spans "protocol.parse" ~req:i (fun () -> Serve.Protocol.parse (next ())) with
    | Ok (Serve.Protocol.Submit request) ->
        let tenant = Stratrec.Request.tenant request in
        let id = Stratrec.Request.id request in
        (match
           span spans "admission.offer" ~req:i (fun () ->
               Serve.Admission.offer queue ~now:(clock ()) ~tenant request)
         with
        | Ok () -> ()
        | Error _ -> failwith "layer replay: admission refused a request");
        let depth = Serve.Admission.length queue in
        ignore (render spans ~req:i (Serve.Protocol.Accepted { id; tenant; queue_depth = depth }));
        if depth >= Workload.epoch_requests then begin
          let admitted, _ =
            span spans "admission.drain" ~req:i (fun () ->
                Serve.Admission.drain queue ~now:(clock ()) ~max:Workload.epoch_requests)
          in
          let requests = List.map (fun a -> a.Serve.Admission.item) admitted in
          epochs := (i, requests) :: !epochs;
          let unobserved () =
            ignore
              (get
                 (span spans "engine.submit_noobs" ~req:i (fun () -> Engine.submit silent requests)))
          in
          let silent_first = Engine.epochs silent mod 2 = 0 in
          if silent_first then unobserved ();
          let report =
            get (span spans "engine.submit" ~req:i (fun () -> Engine.submit observed requests))
          in
          if not silent_first then unobserved ();
          List.iter2
            (fun (a : Stratrec.Request.t Serve.Admission.admitted) (_, outcome) ->
              let id = Stratrec.Request.id a.item in
              let text =
                render spans ~req:id
                  (Serve.Protocol.Completed
                     {
                       id;
                       tenant = a.tenant;
                       epoch = report.Engine.epoch;
                       outcome = Serve.Protocol.outcome_of_aggregator outcome;
                       deployed = None;
                       lineage =
                         Some
                           {
                             Serve.Protocol.queue_seconds = a.waited_seconds;
                             triage_seconds = report.Engine.lineage.Engine.triage_seconds;
                             deploy_seconds = 0.;
                             total_seconds = a.waited_seconds;
                           };
                     })
              in
              let got = Loadgen.Answers.get answers id in
              if got <> Some (Loadgen.digest (String.sub text 0 (String.length text - 1))) then
                mismatches := id :: !mismatches)
            admitted
            (Array.to_list report.Engine.aggregate.Stratrec.Aggregator.outcomes);
          ignore
            (render spans ~req:i
               (Serve.Protocol.Epoch_closed
                  { epoch = report.Engine.epoch; admitted = List.length admitted; expired = 0 }))
        end
    | Ok _ | Error _ -> failwith "layer replay: the stream holds a non-submit line"
  done;
  (List.rev !mismatches, List.rev !epochs)

(* Below the engine, each in a pass of its own over the served pass's
   epochs so no pass carries another's cache and heap: the epochs
   through Aggregator.run with its own triage cache (what Engine.submit
   calls), and — on the first [probe_epochs] recorded epochs — through
   the uncached kernels Workforce.compute, Batchstrat.run and
   Adpar.exact. Adpar.exact gets a fresh live registry and trace per
   call, as the triage cache's capture of a miss runs it. *)
let probe_passes spans ~window epochs =
  let recorded i = if i >= window.first then Some spans else None in
  let _, catalog = Workload.catalog () in
  let availability = Model.Availability.certain Workload.availability in
  let metrics = Obs.Registry.create ~clock () in
  let trace = Obs.Trace.create () in
  let cache = Stratrec.Triage_cache.create ~metrics () in
  let deployments requests = Array.of_list (List.map Stratrec.Request.deployment requests) in
  List.iter
    (fun (i, requests) ->
      let requests = deployments requests in
      ignore
        (span (recorded i) "aggregator.run" ~req:i (fun () ->
             Stratrec.Aggregator.run ~metrics ~trace ~cache ~availability ~strategies:catalog
               ~requests ())))
    epochs;
  let instantiated =
    Array.map
      (fun s -> Model.Strategy.instantiate s ~availability:Workload.availability)
      catalog
  in
  let probed = List.filter (fun (i, _) -> i >= window.first) epochs in
  List.iteri
    (fun e (i, requests) ->
      if e < Workload.probe_epochs then begin
        let spans = Some spans and requests = deployments requests in
        let matrix =
          span spans "workforce.compute" ~req:i (fun () ->
              Model.Workforce.compute ~requests ~strategies:instantiated ())
        in
        let outcome =
          span spans "batchstrat.run" ~req:i (fun () ->
              Stratrec.Batchstrat.run ~objective:Stratrec.Objective.Throughput
                ~aggregation:Model.Workforce.Max_case ~available:Workload.availability matrix)
        in
        List.iter
          (fun r ->
            let metrics = Obs.Registry.create () and trace = Obs.Trace.create () in
            ignore
              (span spans "adpar.exact" ~req:i (fun () ->
                   Stratrec.Adpar.exact ~metrics ~trace ~strategies:instantiated requests.(r))))
          outcome.Stratrec.Batchstrat.unsatisfied
      end)
    probed
