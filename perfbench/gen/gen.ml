(* One measured run of one workload, from outside the program under
   test.

     gen.exe --workload <fetch_mr|http_small|http_large> --seed <n>
             --seconds <s> --sut <path to sut.exe> [--trace <file>]
     gen.exe --data-server [--trace]

   The run cold-starts the program under test several times to time
   its set-up, measures the last few copies one after another (each
   warmed up first), and stops every child it started.  It prints a
   human summary and, as its last line,
   "RESULT <json>" with the attempted and failed counts, whether the
   generator kept up, the end-to-end metrics and the counter-based layer
   metrics.  With --trace the program is started in its traced mode,
   spans are recorded and written to the given file as a Chrome trace,
   and the span-based layer metrics are added. *)

open Bench_inputs

let now = Bench_clock.now

(* ---------- settings ---------- *)

(* Cold starts timed per run; the last [segments] of them are measured,
   one after another, each for an equal share of the run, so a figure
   that depends on how one process happened to settle (which worker its
   connection fibers landed on, say) is pooled over several. *)
let setup_spawns = 20
let segments = 4
let warmup_s = 0.5

(* Closed-loop batches and open-loop rates.  On a 2-core x86-64 VM,
   when the benchmark was introduced, the batches measured about 28k/s
   (http_small) and 11k/s (http_large) on a quiet host.  http_small's
   open loop runs at half of that.  At half, http_large's generator ran
   up to 1 ms late (p99) whenever the host got busy, so its open loop
   runs at a quarter. *)
let small_rate, small_batch, small_depth = (13500., 2000, 2)
let large_rate, large_batch, large_depth = (2750., 500, 1)
let fetch_items = 1000

(* Open-loop percentiles are taken per window; the midmean over windows
   is reported. *)
let window_s = 0.5

(* A run is void when the generator's own lateness (p99) exceeds this
   share of the figure it could distort: the open-loop p99 for HTTP, the
   batch makespan for fetch_mr. *)
let max_late_share = 0.5

(* ---------- the program under test ---------- *)

type sut_stats = float array
(* cpu_s minor promoted major tasks_run steals failed_steals tasks_stolen
   suspensions resumes io_syscalls vmhwm_kb *)

let parse_stats l : sut_stats =
  match String.split_on_char ' ' l with
  | "STATS" :: rest -> Array.of_list (List.map float_of_string rest)
  | _ -> raise (Proc.Child_failed ("bad STATS reply: " ^ l))

let sut_stats p = parse_stats (Proc.request p "STATS")

let spawn_sut exe args =
  let t0 = now () in
  let p = Proc.spawn exe args in
  let l = Proc.read_line p in
  let t1 = now () in
  match String.split_on_char ' ' l with
  | [ "READY"; port ] -> (p, int_of_string port, t1 -. t0)
  | _ -> raise (Proc.Child_failed ("expected READY, got: " ^ l))

(* Times [setup_spawns] cold starts of the program and runs [measure]
   on each of the last [segments] copies in turn; returns the median
   set-up time. *)
let with_segments exe args measure =
  let times = Stats.Samples.create () in
  for k = segments - setup_spawns to segments - 1 do
    let p, port, dt = spawn_sut exe args in
    Stats.Samples.add times dt;
    if k >= 0 then measure k p port;
    Proc.stop p
  done;
  Stats.median (Stats.Samples.to_array times)

(* Costs of the measured batches, from STATS taken before and after
   each one: CPU time per op batch by batch, layer counters summed, and
   each program copy's peak RSS. *)
type costs = {
  delta : float array;
  mutable ops : int;
  cpu : Stats.Samples.t;
  mutable peak_kb : float;  (** of the current copy *)
  peaks : Stats.Samples.t;  (** of the copies done *)
}

let costs () =
  {
    delta = Array.make 12 0.;
    ops = 0;
    cpu = Stats.Samples.create ();
    peak_kb = 0.;
    peaks = Stats.Samples.create ();
  }

let copy_done c =
  Stats.Samples.add c.peaks c.peak_kb;
  c.peak_kb <- 0.

let costed c p ~ops f =
  let s0 = sut_stats p in
  let r = f () in
  let s1 = sut_stats p in
  Array.iteri (fun i d -> c.delta.(i) <- d +. s1.(i) -. s0.(i)) c.delta;
  c.ops <- c.ops + ops;
  c.peak_kb <- Float.max c.peak_kb s1.(11);
  Stats.Samples.add c.cpu ((s1.(0) -. s0.(0)) *. 1e6 /. float_of_int ops);
  r

let cost_metrics c =
  let d i = c.delta.(i) in
  let per x = x /. float_of_int c.ops in
  let ratio a b = if b > 0. then a /. b else 0. in
  ( [
      ("cpu_us_per_op", Stats.median (Stats.Samples.to_array c.cpu));
      ("peak_rss_mb", Stats.median (Stats.Samples.to_array c.peaks) /. 1024.);
    ],
    [
      ("sched.steals_per_op", per (d 5));
      ("sched.tasks_per_steal", ratio (d 7) (d 5));
      ("sched.failed_steal_ratio", ratio (d 6) (d 5 +. d 6));
      ("sched.resumes_per_op", per (d 9));
      ("io.syscalls_per_op", per (d 10));
      ("gc.minor_words_per_op", per (d 1));
      ("gc.promoted_words_per_op", per (d 2));
      ("gc.major_collections", d 3);
    ] )

(* ---------- a run's tallies ---------- *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable valid : bool;
  mutable e2e : (string * float) list;
  mutable layer : (string * float) list;
}

let tally run ok =
  run.attempted <- run.attempted + 1;
  if not ok then run.failed <- run.failed + 1

let lost run n what =
  run.attempted <- run.attempted + n;
  run.failed <- run.failed + n;
  failwith (Printf.sprintf "%d %s" n what)

let us x = x *. 1e6
let median s = Stats.median (Stats.Samples.to_array s)

(* ---------- http_small / http_large ---------- *)

let plain_body = Bytes.of_string "Hello, World!"
let plain_head = Bytes.of_string "GET /plaintext HTTP/1.1\r\nHost: bench\r\n\r\n"

(* Request [k] of the run: the seeded inputs decide its body. *)
let request_maker ~seed ~large ~traced =
  let n = 8192 in
  let sizes = Inputs.body_sizes ~seed ~count:n and offs = Inputs.body_offsets ~seed ~count:n in
  let pattern = Inputs.body_pattern ~seed in
  let next = ref 0 in
  fun due ->
    let k = !next in
    incr next;
    let id = if traced then k else -1 in
    let id_header = if traced then Printf.sprintf "X-Bench-Id: %d\r\n" k else "" in
    let req exp exp_off exp_len = { Http_load.id; due; sent = 0.; exp; exp_off; exp_len } in
    if large then begin
      let len = sizes.(k mod n) and off = offs.(k mod n) in
      let head =
        Bytes.of_string
          (Printf.sprintf "POST /echo HTTP/1.1\r\nHost: bench\r\nContent-Length: %d\r\n%s\r\n"
             len id_header)
      in
      (req pattern off len, [ (head, 0, Bytes.length head); (pattern, off, len) ])
    end
    else begin
      let head =
        if traced then
          Bytes.of_string ("GET /plaintext HTTP/1.1\r\nHost: bench\r\n" ^ id_header ^ "\r\n")
        else plain_head
      in
      (req plain_body 0 (Bytes.length plain_body), [ (head, 0, Bytes.length head) ])
    end

let run_http ~large ~sut ~seed ~seconds ~trace run =
  let traced = trace <> None in
  let rate, batch, depth =
    if large then (large_rate, large_batch, large_depth) else (small_rate, small_batch, small_depth)
  in
  let mk = request_maker ~seed ~large ~traced in
  let count x = tally run x.Http_load.ok in
  (* One seeded arrival schedule, cut into one slice per segment. *)
  let share = seconds /. 2. /. float_of_int segments in
  let arrivals = Inputs.arrivals ~seed ~rate ~duration:(seconds /. 2.) in
  let slice k =
    Array.to_list arrivals
    |> List.filter_map (fun a ->
           let a = a -. (float_of_int k *. share) in
           if a >= 0. && a < share then Some a else None)
    |> Array.of_list
  in
  let lat = Stats.Windowed.create () and late = Stats.Windowed.create () in
  let tr = Option.map (fun _ -> Trace.create ()) trace in
  let c = costs () and spans = Stats.Samples.create () in
  let measure k p port =
    let conns = Array.init 2 (fun _ -> Http_load.connect port) in
    Fun.protect
      ~finally:(fun () -> Array.iter Http_load.close conns)
      (fun () ->
        let closed_batch () =
          let makespan, missing =
            Http_load.closed_batch conns ~k:batch ~depth ~mk ~timeout:10. ~on_resp:count
          in
          if missing > 0 then lost run missing "requests unanswered after 10 s";
          makespan
        in
        (* Warm-up: closed batches, checked but not timed. *)
        let t_warm = now () in
        while now () -. t_warm < warmup_s do
          ignore (closed_batch () : float)
        done;
        (* Open loop, each request timed from its due time. *)
        let arrivals = slice k in
        let t0 = now () +. 0.001 in
        let window at = (k * 1_000_000) + int_of_float ((at -. t0) /. window_s) in
        let on_resp x =
          count x;
          let open Http_load in
          if x.ok then begin
            Stats.Windowed.add lat ~window:(window x.req.due) (us (x.done_at -. x.req.due));
            Option.iter
              (fun tr ->
                Trace.request tr ~id:x.req.id ~name:"req" ~start:x.req.due ~stop:x.done_at
                  [
                    ("http.inbound", x.req.sent, x.h0);
                    ("http.handler", x.h0, x.h1);
                    ("http.outbound", x.h1, x.done_at);
                  ])
              tr
          end
        in
        let unanswered =
          Http_load.open_loop conns ~t0 ~arrivals ~mk ~grace:5.
            ~on_late:(fun due d -> Stats.Windowed.add late ~window:(window due) (us d))
            ~on_resp
        in
        if unanswered > 0 then begin
          Array.iteri
            (fun i c ->
              Printf.eprintf "connection %d: %d unanswered, %d chunks unsent\n%!" i
                (Http_load.outstanding c) (Queue.length c.Http_load.outq))
            conns;
          Printf.eprintf "%s\n%!" (Proc.request p "STATS");
          lost run unanswered "open-loop requests unanswered"
        end;
        (* Closed loop, in batches. *)
        let t_closed = now () and n = ref 0 in
        while now () -. t_closed < share || !n < 2 do
          Stats.Samples.add spans (costed c p ~ops:batch closed_batch);
          incr n
        done;
        copy_done c)
  in
  let setup_s = with_segments sut (if traced then [| "http"; "--trace" |] else [| "http" |]) measure in
  let p50 = Stats.Windowed.percentile lat 50. and p99 = Stats.Windowed.percentile lat 99. in
  let late_p99 = Stats.Windowed.percentile late 99. in
  run.valid <- late_p99 <= max_late_share *. p99;
  let makespan = median spans in
  Printf.printf
    "open loop: %d requests at %.0f/s over %d program copies, p50 %.1f us, p99 %.1f us, generator \
     late p99 %.1f us (midmeans of %.1f s windows)%s\n\
     closed loop: %d batches of %d at depth %d per connection, median %.4f s\n\
     %!"
    (Stats.Windowed.count lat) rate segments p50 p99 late_p99 window_s
    (if run.valid then "" else "  INVALID: the generator fell behind")
    (Stats.Samples.length spans) batch depth makespan;
  let e2e, layer = cost_metrics c in
  run.e2e <-
    [
      ("setup_s", setup_s);
      ("makespan_s", makespan);
      ("capacity_rps", float_of_int batch /. makespan);
      ("p50_us", p50);
    ]
    @ e2e;
  run.layer <- layer @ [ ("p99_us", p99); ("gen.late_p99_us", late_p99) ];
  Option.iter
    (fun tr ->
      run.layer <-
        run.layer
        @ [
            ("http.inbound_p50_us", Trace.dur_p tr "http.inbound" 50.);
            ("http.inbound_p99_us", Trace.dur_p tr "http.inbound" 99.);
            ("http.handler_p50_us", Trace.dur_p tr "http.handler" 50.);
            ("http.outbound_p50_us", Trace.dur_p tr "http.outbound" 50.);
            ("http.outbound_p99_us", Trace.dur_p tr "http.outbound" 99.);
          ])
    tr;
  tr

(* ---------- fetch_mr ---------- *)

let run_fetch ~sut ~seed ~seconds ~trace run =
  let traced = trace <> None in
  let flag = if traced then [ "--trace" ] else [] in
  let ds = Proc.spawn Sys.executable_name (Array.of_list ("--data-server" :: flag)) in
  let ds_port = Scanf.sscanf (Proc.read_line ds) "PORT %d" Fun.id in
  let ds_late_p99 () =
    Scanf.sscanf (Proc.request ds "LATE") "LATE %f %f %d" (fun _ p99 _ -> p99)
  in
  let items = Inputs.fetch_items ~seed ~n:fetch_items in
  let expected = Inputs.checksum items in
  let items_msg =
    let b = Buffer.create (32 * fetch_items) in
    Printf.bprintf b "ITEMS %d" fetch_items;
    Array.iter
      (fun it -> Printf.bprintf b "\n%d %d %d" it.Inputs.key it.Inputs.delta_us it.Inputs.fib_n)
      items;
    Buffer.contents b
  in
  let tr = Option.map (fun _ -> Trace.create ()) trace in
  let p50s = Stats.Samples.create () and p99s = Stats.Samples.create () in
  let lates = Stats.Samples.create () and shares = Stats.Samples.create () in
  let calls = Stats.Samples.create () in
  let c = costs () and spans = Stats.Samples.create () in
  (* One map-reduce over the items; returns its makespan. *)
  let batch p ~measured () =
    let l = Proc.request ~timeout:60. p "RUN" in
    let sum, makespan =
      match String.split_on_char ' ' l with
      | [ "DONE"; sum; m ] -> (int_of_string sum, float_of_string m)
      | _ -> lost run fetch_items ("items lost, the map-reduce failed: " ^ l)
    in
    let ok = sum = expected in
    Array.iter (fun _ -> tally run ok) items;
    if not ok then Printf.printf "map-reduce checksum %d, expected %d\n%!" sum expected;
    let lat = Array.make fetch_items 0. and compute = ref 0. in
    if traced then
      for i = 0 to fetch_items - 1 do
        Scanf.sscanf (Proc.read_line p) "S %f %f %f %f %f %f"
          (fun start resolved resumed fin ds_recv ds_send ->
            lat.(i) <- us (fin -. start);
            compute := !compute +. (fin -. resumed);
            if measured then begin
              Stats.Samples.add calls (us (resolved -. start));
              Option.iter
                (fun tr ->
                  Trace.request tr
                    ~id:((Stats.Samples.length spans * fetch_items) + i)
                    ~name:"mr.leaf" ~start ~stop:fin
                    [
                      ("rpc.out", start, ds_recv);
                      ("ds.hold", ds_recv, ds_send);
                      ("rpc.back", ds_send, resolved);
                      ("mr.compute", resumed, fin);
                    ])
                tr
            end)
      done
    else
      String.split_on_char ' ' (Proc.read_line p)
      |> List.tl
      |> List.iteri (fun i v -> lat.(i) <- float_of_string v);
    let late_p99 = ds_late_p99 () in
    if measured then begin
      Stats.Samples.add p50s (Stats.percentile lat 50.);
      Stats.Samples.add p99s (Stats.percentile lat 99.);
      Stats.Samples.add lates late_p99;
      if traced then Stats.Samples.add shares (!compute /. (makespan *. 2.))
    end;
    makespan
  in
  let measure _ p _ =
    Proc.send p items_msg;
    let t_warm = now () in
    while now () -. t_warm < warmup_s do
      ignore (batch p ~measured:false () : float)
    done;
    let t0 = now () and n = ref 0 in
    while now () -. t0 < seconds /. float_of_int segments || !n < 2 do
      Stats.Samples.add spans (costed c p ~ops:fetch_items (batch p ~measured:true));
      incr n
    done;
    copy_done c
  in
  let setup_s =
    with_segments sut (Array.of_list ("fetch" :: string_of_int ds_port :: flag)) measure
  in
  Proc.stop ds;
  let makespan = median spans and p50 = median p50s and p99 = median p99s in
  let late_p99 = median lates in
  run.valid <- late_p99 <= max_late_share *. us makespan;
  Printf.printf
    "%d batches of %d items over %d program copies, median makespan %.4f s, item p50 %.1f us, \
     p99 %.1f us, data server late p99 %.1f us (medians over batches)%s\n\
     %!"
    (Stats.Samples.length spans) fetch_items segments makespan p50 p99 late_p99
    (if run.valid then "" else "  INVALID: the data server fell behind");
  let e2e, layer = cost_metrics c in
  run.e2e <-
    [
      ("setup_s", setup_s);
      ("makespan_s", makespan);
      ("capacity_rps", float_of_int fetch_items /. makespan);
      ("p50_us", p50);
    ]
    @ e2e;
  run.layer <- layer @ [ ("p99_us", p99); ("gen.late_p99_us", late_p99) ];
  Option.iter
    (fun tr ->
      let calls = Stats.sorted (Stats.Samples.to_array calls) in
      run.layer <-
        run.layer
        @ [
            ("rpc.call_p50_us", Stats.percentile_sorted calls 50.);
            ("rpc.call_p99_us", Stats.percentile_sorted calls 99.);
            ("rpc.out_p50_us", Trace.dur_p tr "rpc.out" 50.);
            ("rpc.back_p50_us", Trace.dur_p tr "rpc.back" 50.);
            ("mr.compute_share", median shares);
            ("mr.leaf_self_p50_us", Trace.self_p tr "mr.leaf" 50.);
          ])
    tr;
  tr

(* ---------- output ---------- *)

let json_assoc l =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf "%S:%s" k (if Float.is_finite v then Printf.sprintf "%.17g" v else "null"))
         l)
  ^ "}"

let print_result run =
  Printf.printf "RESULT {\"attempted\":%d,\"failed\":%d,\"valid\":%b,\"e2e\":%s,\"layer\":%s}\n%!"
    run.attempted run.failed run.valid (json_assoc run.e2e) (json_assoc run.layer)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--data-server" args then Data_server.run ~trace:(List.mem "--trace" args)
  else begin
    let workload = ref "" and seed = ref 0 and seconds = ref 10. in
    let sut = ref "" and trace = ref None in
    Arg.parse
      [
        ("--workload", Arg.Set_string workload, " fetch_mr | http_small | http_large");
        ("--seed", Arg.Set_int seed, " input seed");
        ("--seconds", Arg.Set_float seconds, " measured seconds");
        ("--sut", Arg.Set_string sut, " path to sut.exe");
        ("--trace", Arg.String (fun f -> trace := Some f), " trace file to write");
      ]
      (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
      "gen.exe --workload W --seed N --seconds S --sut PATH [--trace FILE]";
    let run = { attempted = 0; failed = 0; valid = true; e2e = []; layer = [] } in
    let measure =
      match !workload with
      | "fetch_mr" -> run_fetch
      | "http_small" -> run_http ~large:false
      | "http_large" -> run_http ~large:true
      | w ->
          Printf.eprintf "unknown workload %S\n" w;
          exit 2
    in
    let tr =
      match measure ~sut:!sut ~seed:!seed ~seconds:!seconds ~trace:!trace run with
      | tr -> tr
      | exception e ->
          Printf.printf "run failed: %s\n%!" (Printexc.to_string e);
          Proc.reap_all ();
          (* A run that could not finish failed at least one operation. *)
          if run.failed = 0 then begin
            run.attempted <- run.attempted + 1;
            run.failed <- 1
          end;
          None
    in
    (match (tr, !trace) with
    | Some tr, Some file ->
        Trace.write tr file;
        Printf.printf "trace: %s (%d requests written)\n" file tr.Trace.written;
        Printf.printf "  %-14s %9s %12s %12s\n" "span" "count" "p50 dur us" "p50 self us";
        List.iter
          (fun (name, n, d, s) -> Printf.printf "  %-14s %9d %12.1f %12.1f\n" name n d s)
          (Trace.table tr)
    | _ -> ());
    print_result run
  end
