(* The benchmark workloads: the request stream each one sends, the
   stratrec-serve flags it starts the daemon with, and the very same
   daemon configuration built in process for the reference replay.

   Every workload runs the daemon's default catalog (200 uniform
   strategies from seed 2020) at availability 0.75, one triage domain,
   the default triage cache and epochs of 8. The workload seed only
   drives the request stream; the daemon sees nothing but the generated
   lines. *)

module Rng = Stratrec_util.Rng
module Model = Stratrec_model
module Engine = Stratrec.Engine
module Serve = Stratrec_serve

let epoch_requests = 8
let catalog_seed = 2020
let catalog_size = 200
let availability = 0.75

(* The first second of a run is not measured: it fills the heap and, on
   hot-cache, the triage cache. *)
let warmup_seconds = 1.

(* Epochs of the traced window that the uncached kernels run on. *)
let probe_epochs = 60

type t = {
  name : string;
  scrape_every : int;  (** one [GET metrics] per this many completions *)
  layer_requests : int;  (** requests in the traced passes' window *)
  stream : int -> unit -> string;
      (** [stream seed] is a fresh generator of submit lines: request
          ids 1, 2, ... in order, the same lines for the same seed *)
}

let submit_line ~id ~params ~k =
  Printf.sprintf {|{"op":"submit","id":%d,"params":"%s","k":%d}|} id params k

let triple q c l = Printf.sprintf "%.6f,%.6f,%.6f" q c l

(* Tight demands: high quality at low cost and latency. Few strategies
   of the U[0.5,1] catalog meet them, so BatchStrat leaves most such
   requests unsatisfied and ADPaR searches an alternative for each. *)
let tight rng =
  let q = Rng.uniform rng ~lo:0.8 ~hi:1. in
  let c = Rng.uniform rng ~lo:0. ~hi:0.4 in
  let l = Rng.uniform rng ~lo:0. ~hi:0.4 in
  (triple q c l, 2 + Rng.int rng 3)

(* Loose demands that most strategies meet: BatchStrat satisfies them
   while the epoch's workforce lasts. *)
let loose rng =
  let q = Rng.uniform rng ~lo:0.3 ~hi:0.6 in
  let c = Rng.uniform rng ~lo:0.7 ~hi:1. in
  let l = Rng.uniform rng ~lo:0.7 ~hi:1. in
  (triple q c l, 2)

let counter_stream f seed =
  let rng = Rng.create seed in
  let next = ref 0 in
  fun () ->
    incr next;
    f rng !next

(* Every request distinct and continuous: the triage cache only misses. *)
let cold_stream =
  counter_stream (fun rng id ->
      let params, k = tight rng in
      submit_line ~id ~params ~k)

(* A pool of 64 (params, k) keys, half tight and half loose, drawn with
   a Zipf(1) rank law: after the first sight of each key every request
   replays a cached triage. *)
let pool_size = 64

let key_pool rng =
  Array.init pool_size (fun i -> if i mod 2 = 0 then tight rng else loose rng)

let zipf_cdf n =
  let w = Array.init n (fun r -> 1. /. float_of_int (r + 1)) in
  let total = Array.fold_left ( +. ) 0. w in
  let acc = ref 0. in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let draw cdf rng =
  let u = Rng.float rng 1. in
  let rec find lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) >= u then find lo mid else find (mid + 1) hi
  in
  find 0 (Array.length cdf - 1)

let pooled_stream seed =
  let rng = Rng.create seed in
  let pool = key_pool rng in
  let cdf = zipf_cdf pool_size in
  let next = ref 0 in
  fun () ->
    incr next;
    let params, k = pool.(draw cdf rng) in
    submit_line ~id:!next ~params ~k

let all =
  [
    {
      name = "cold-adpar";
      scrape_every = 64;
      layer_requests = 480;
      stream = cold_stream;
    };
    {
      name = "hot-cache";
      scrape_every = 512;
      layer_requests = 16_000;
      stream = pooled_stream;
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* The stratrec-serve flags beyond the transport. Everything else is the
   daemon's default, which [daemon_config] spells out in process. *)
let server_args = [ "--domains"; "1" ]

(* The configuration stratrec-serve builds from [server_args]: the
   same engine builders, the brownout low-water marks it derives from
   its 0.85 saturation default, and its defaults for every other
   field. *)
let daemon_config =
  let engine =
    Engine.(
      with_cache
        (with_objective (with_domains (with_deploy default_config None) 1)
           Stratrec.Objective.Throughput)
        (Some Stratrec.Triage_cache.default_config))
  in
  let saturation = 0.85 in
  let brownout =
    {
      Stratrec_resilience.Brownout.default with
      Stratrec_resilience.Brownout.saturation_high = saturation;
      saturation_low = saturation *. 0.6;
      p99_high = 0.;
      p99_low = 0.;
    }
  in
  { Serve.Daemon.default_config with Serve.Daemon.engine; brownout }

(* The catalog stratrec-serve generates, and the rng state it hands the
   daemon afterwards. *)
let catalog () =
  let rng = Rng.create catalog_seed in
  let strategies =
    Model.Workload.strategies rng ~n:catalog_size ~kind:Model.Workload.Uniform
  in
  (rng, strategies)

let daemon () =
  let rng, strategies = catalog () in
  match
    Serve.Daemon.create ~rng ~config:daemon_config
      ~availability:(Model.Availability.certain availability)
      ~strategies ()
  with
  | Ok d -> d
  | Error e -> failwith (Engine.error_message e)
