(* In-memory span recorder for the traced replays: one record per call
   into a layer (name, start, end, parent span, request id, and the
   minor-heap words the call allocated), kept in growable arrays and
   written out once when the run ends. *)

type t = {
  mutable n : int;
  mutable names : string array;
  mutable parents : int array;
  mutable reqs : int array;
  mutable starts : float array;
  mutable stops : float array;
  mutable words : float array;
  mutable current : int;  (** innermost open span, -1 at top level *)
}

let create () =
  let cap = 1024 in
  {
    n = 0;
    names = Array.make cap "";
    parents = Array.make cap (-1);
    reqs = Array.make cap 0;
    starts = Array.make cap 0.;
    stops = Array.make cap 0.;
    words = Array.make cap 0.;
    current = -1;
  }

let grow t =
  let cap = 2 * Array.length t.names in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.names <- extend t.names "";
  t.parents <- extend t.parents (-1);
  t.reqs <- extend t.reqs 0;
  t.starts <- extend t.starts 0.;
  t.stops <- extend t.stops 0.;
  t.words <- extend t.words 0.

let now = Unix.gettimeofday

let record t name ~req f =
  if t.n = Array.length t.names then grow t;
  let id = t.n in
  t.n <- id + 1;
  let parent = t.current in
  t.names.(id) <- name;
  t.parents.(id) <- parent;
  t.reqs.(id) <- req;
  t.current <- id;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.stops.(id) <- t1;
    t.starts.(id) <- t0;
    t.words.(id) <- Gc.minor_words () -. w0;
    t.current <- parent
  in
  match f () with
  | r ->
      finish ();
      r
  | exception e ->
      finish ();
      raise e

(* Rename the most recently opened span — for a call whose layer name
   depends on what it returned. *)
let rename_last t name = t.names.(t.n - 1) <- name

(* Per-name totals: call count, wall seconds, self seconds (duration
   minus the part covered by child spans) and allocated words. *)
type total = { calls : int; seconds : float; self : float; alloc : float }

let totals t =
  let child = Array.make t.n 0. in
  for i = 0 to t.n - 1 do
    let p = t.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. (t.stops.(i) -. t.starts.(i))
  done;
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.n - 1 do
    let d = t.stops.(i) -. t.starts.(i) in
    let prev =
      Option.value (Hashtbl.find_opt tbl t.names.(i))
        ~default:{ calls = 0; seconds = 0.; self = 0.; alloc = 0. }
    in
    Hashtbl.replace tbl t.names.(i)
      {
        calls = prev.calls + 1;
        seconds = prev.seconds +. d;
        self = prev.self +. (d -. child.(i));
        alloc = prev.alloc +. t.words.(i);
      }
  done;
  fun name ->
    Option.value (Hashtbl.find_opt tbl name)
      ~default:{ calls = 0; seconds = 0.; self = 0.; alloc = 0. }

(* Tab-separated, one span per line: id, name, parent, request id,
   start and duration in microseconds relative to the first span, and
   allocated words. *)
let write t path =
  let base = if t.n > 0 then t.starts.(0) else 0. in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "id\tname\tparent\treq\tstart_us\tdur_us\twords\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%.1f\t%.2f\t%.0f\n" i t.names.(i) t.parents.(i)
          t.reqs.(i)
          ((t.starts.(i) -. base) *. 1e6)
          ((t.stops.(i) -. t.starts.(i)) *. 1e6)
          t.words.(i)
      done)
