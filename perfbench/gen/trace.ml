(* Spans of the traced run, kept in memory and written out as a Chrome
   trace (chrome://tracing, ui.perfetto.dev) when the run ends.

   A request is one parent span with non-overlapping child spans; all
   of them carry the request's id, and each request gets its own track.
   Every span's duration and self time (its duration minus what its
   children cover) is kept as a sample per span name; only the first
   [limit] requests are written to the file, to keep it small. *)

let limit = 2000

open Bench_inputs

type t = {
  t0 : float;  (** trace time zero *)
  mutable written : int;
  events : Buffer.t;
  durs : (string, Stats.Samples.t) Hashtbl.t;
  selfs : (string, Stats.Samples.t) Hashtbl.t;
}

let create () =
  {
    t0 = Bench_clock.now ();
    written = 0;
    events = Buffer.create (1 lsl 20);
    durs = Hashtbl.create 16;
    selfs = Hashtbl.create 16;
  }

let samples tbl name =
  match Hashtbl.find_opt tbl name with
  | Some s -> s
  | None ->
      let s = Stats.Samples.create () in
      Hashtbl.add tbl name s;
      s

let event t ~id name start stop =
  if Buffer.length t.events > 0 then Buffer.add_string t.events ",\n";
  Printf.bprintf t.events
    {|{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d}}|} name id
    ((start -. t.t0) *. 1e6)
    ((stop -. start) *. 1e6)
    id

(* [children] are (name, start, stop), inside [start, stop]. *)
let request t ~id ~name ~start ~stop children =
  let us a b = (b -. a) *. 1e6 in
  let covered = List.fold_left (fun acc (_, a, b) -> acc +. us a b) 0. children in
  Stats.Samples.add (samples t.durs name) (us start stop);
  Stats.Samples.add (samples t.selfs name) (us start stop -. covered);
  List.iter
    (fun (n, a, b) ->
      Stats.Samples.add (samples t.durs n) (us a b);
      Stats.Samples.add (samples t.selfs n) (us a b))
    children;
  if t.written < limit then begin
    t.written <- t.written + 1;
    event t ~id name start stop;
    List.iter (fun (n, a, b) -> event t ~id n a b) children
  end

let dur_p t name p =
  match Hashtbl.find_opt t.durs name with
  | Some s -> Stats.percentile (Stats.Samples.to_array s) p
  | None -> 0.

let self_p t name p =
  match Hashtbl.find_opt t.selfs name with
  | Some s -> Stats.percentile (Stats.Samples.to_array s) p
  | None -> 0.

(* Span name, count, p50 duration and p50 self time, in µs. *)
let table t =
  Hashtbl.fold (fun name s acc -> (name, Stats.Samples.length s) :: acc) t.durs []
  |> List.sort compare
  |> List.map (fun (name, n) -> (name, n, dur_p t name 50., self_p t name 50.))

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"traceEvents\":[\n";
      Buffer.output_buffer oc t.events;
      output_string oc "\n],\"displayTimeUnit\":\"ns\"}\n")
