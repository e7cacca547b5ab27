(* Socket-serving scenarios: the serving stack measured over real
   loopback connections rather than simulated latency.

   Two experiments:
   - net_echo_load: RPC echo throughput under the closed-loop generator,
     server and clients multiplexed as fibers on one latency-hiding pool.
   - net_map_reduce: the paper's Figure 11 map-reduce where every map
     input is fetched from a remote data server over a small fixed set of
     connections, with the per-fetch latency δ induced server-side.  The
     latency-hiding pool pipelines all outstanding fetches over the
     connections; the thread-per-task blocking baseline holds a
     connection for the whole round trip, serialising the δs.  The
     recorded self-speedup (blocking / latency-hiding wall-clock) is
     regression-guarded against the committed baselines. *)

module W = Lhws_workloads
module P = W.Pool_intf
module R = Registry
module Reactor = Lhws_net.Reactor
module Listener = Lhws_net.Listener
module Rpc = Lhws_net.Rpc
module Load = Lhws_net.Load
module Nmr = Lhws_net.Net_map_reduce
module Fault = Lhws_net.Fault
module Rs = Lhws_net.Resilience

let with_lhws_rt ~workers ?fault f =
  Lhws_runtime.Lhws_pool.with_pool ~workers (fun p ->
      let rt =
        Reactor.fibers
          ~register:(fun ~pending ~syscalls poll ->
            Lhws_runtime.Lhws_pool.register_poller p ?pending ?syscalls poll)
          ?fault ()
      in
      f p rt)

let echo profile =
  R.section "NET1 | RPC echo over loopback: closed-loop load on one latency-hiding pool";
  let workers = 2 in
  let conns = R.pick profile ~full:8 ~smoke:2 in
  let inflight = R.pick profile ~full:8 ~smoke:4 in
  let iters = R.pick profile ~full:200 ~smoke:25 in
  let report =
    with_lhws_rt ~workers (fun p rt ->
        let module Pool = P.Lhws_instance in
        Pool.run p (fun () ->
            let l =
              Rpc.serve
                (module Pool)
                p rt
                (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
                ~handler:Fun.id
            in
            let r = Load.run (module Pool) p rt ~conns ~inflight ~iters (Listener.addr l) in
            Listener.shutdown ~grace:5. l;
            r))
  in
  R.expect (report.Load.errors = 0);
  Bench_json.record ~scenario:"net_echo_load" ~pool:"lhws" ~workers ~wall_s:report.Load.wall_s
    ~counters:
      [
        ("requests", report.Load.total);
        ("errors", report.Load.errors);
        ("throughput_rps", int_of_float report.Load.throughput_rps);
        ("p50_us", int_of_float report.Load.p50_us);
        ("p99_us", int_of_float report.Load.p99_us);
      ]
    ();
  Printf.printf
    "echo: %d conns x %d in-flight x %d iters = %d requests (%d errors)\n\
     throughput %.0f req/s, latency p50 %.0f us, p99 %.0f us\n\
     %!"
    conns inflight iters report.Load.total report.Load.errors report.Load.throughput_rps
    report.Load.p50_us report.Load.p99_us

let map_reduce profile =
  R.section
    "NET2 | net_map_reduce over loopback: pipelined fibers vs thread-per-task blocking";
  let n = R.pick profile ~full:192 ~smoke:48 in
  let delta = R.pick profile ~full:0.02 ~smoke:0.01 in
  let fib_n = R.pick profile ~full:18 ~smoke:10 in
  let conns = 2 in
  let workers_list = R.pick profile ~full:[ 2; 4 ] ~smoke:[ 2 ] in
  let expect_sum = Nmr.expected ~n ~fib_n in
  Printf.printf "n=%d inputs, delta=%.0fms per fetch, %d connections, fib(%d) per item:\n" n
    (delta *. 1000.) conns fib_n;
  Printf.printf "%8s %16s %16s %10s\n" "workers" "LHWS (s)" "threads (s)" "speedup";
  (* Best-of-N walls: the latency-hiding side is tens of milliseconds at
     smoke sizes, so a single stray descheduling would distort the
     guarded speedup. *)
  let best_of k f =
    let best = ref infinity in
    for _ = 1 to k do
      best := Float.min !best (f ())
    done;
    !best
  in
  Nmr.with_data_server ~delta (fun addr ->
      List.iter
        (fun workers ->
          let t_lh =
            best_of 3 (fun () ->
                with_lhws_rt ~workers (fun p rt ->
                    let module Pool = P.Lhws_instance in
                    let t0 = Unix.gettimeofday () in
                    let sum =
                      Pool.run p (fun () ->
                          Nmr.run (module Pool) p rt ~addr ~n ~conns ~fib_n ())
                    in
                    let dt = Unix.gettimeofday () -. t0 in
                    R.expect (sum = expect_sum);
                    dt))
          in
          let t_th =
            best_of 2 (fun () ->
                let module Pool = P.Threaded_instance in
                let p = Pool.create ~workers () in
                Fun.protect
                  ~finally:(fun () -> Pool.shutdown p)
                  (fun () ->
                    let rt = Reactor.blocking () in
                    let t0 = Unix.gettimeofday () in
                    let sum =
                      Pool.run p (fun () ->
                          Nmr.run (module Pool) p rt ~addr ~n ~conns ~fib_n ())
                    in
                    let dt = Unix.gettimeofday () -. t0 in
                    R.expect (sum = expect_sum);
                    dt))
          in
          let speedup = t_th /. t_lh in
          (* The headline claim: with the same two connections and a real
             δ, hiding the fetch latency must win. *)
          R.expect (speedup > 1.);
          Bench_json.record ~scenario:(Printf.sprintf "net_map_reduce_w%d" workers)
            ~pool:"lhws" ~workers ~wall_s:t_lh ~speedup ();
          Bench_json.record ~scenario:(Printf.sprintf "net_map_reduce_w%d" workers)
            ~pool:"threads" ~workers ~wall_s:t_th ();
          Printf.printf "%8d %16.3f %16.3f %9.1fx\n%!" workers t_lh t_th speedup)
        workers_list)

(* The batched reactor's headline measurement: kernel I/O calls per
   request under the same closed-loop echo load as NET1.  Three things
   keep the count low: eager completion keeps non-blocking ops out of
   the reactor, the pump paces its readiness passes instead of polling
   on every worker idle loop, and the connection's Outbox coalesces
   pipelined frames into single gathering writes.  The bar is absolute:
   the wait-then-retry reactor this path replaced spent 10.19
   syscalls/op at smoke size, and 4.35 is that figure divided by the
   2.93x reduction measured against it, relaxed by 1.25.  Full-size runs
   coalesce more and sit lower (about 3.3).  The p99 feeds bench_guard's
   net_echo* tail-latency rule. *)
let echo_batched profile =
  R.section "NET3 | batched submission/completion reactor: syscalls/op and tail latency";
  let workers = 2 in
  let conns = R.pick profile ~full:8 ~smoke:2 in
  let inflight = R.pick profile ~full:8 ~smoke:4 in
  let iters = R.pick profile ~full:200 ~smoke:25 in
  let run () =
    with_lhws_rt ~workers (fun p rt ->
        let module Pool = P.Lhws_instance in
        Pool.run p (fun () ->
            let l =
              Rpc.serve
                (module Pool)
                p rt
                (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
                ~handler:Fun.id
            in
            let r = Load.run (module Pool) p rt ~conns ~inflight ~iters (Listener.addr l) in
            Listener.shutdown ~grace:5. l;
            R.expect (r.Load.errors = 0);
            (r, float_of_int (Reactor.io_syscalls rt) /. float_of_int (max 1 r.Load.total))))
  in
  (* Best of 2 by syscalls/op: the count is dominated by deterministic
     per-request traffic, but scheduling noise moves how many readiness
     passes a run needs. *)
  let first = run () in
  let second = run () in
  let r, spo = if snd first <= snd second then first else second in
  R.expect (spo <= 4.35);
  Bench_json.record ~scenario:"net_echo_batched" ~pool:"lhws" ~workers
    ~counters:
      [
        ("syscalls_per_op_x100", int_of_float (spo *. 100.));
        ("p50_us", int_of_float r.Load.p50_us);
        ("p99_us", int_of_float r.Load.p99_us);
      ]
    ();
  Printf.printf
    "echo (%d conns x %d in-flight x %d iters): %.2f syscalls/op, p50 %.0f us, p99 %.0f us\n%!"
    conns inflight iters spo r.Load.p50_us r.Load.p99_us

let echo_faults profile =
  R.section
    "NET4 | resilient RPC echo: retry/breaker wrapper overhead at zero faults, correctness \
     under a seeded storm";
  let workers = 2 in
  let conns = R.pick profile ~full:8 ~smoke:2 in
  let iters = R.pick profile ~full:150 ~smoke:25 in
  let policy () =
    Rs.Retry.policy ~max_attempts:8 ~base_backoff:0.0005 ~max_backoff:0.005 ~seed:42 ()
  in
  (* One echo leg: [conns] clients, [iters] pipelined calls each, every
     response checksummed.  Returns the wall and the match count. *)
  let run_leg ?fault ~resilient () =
    with_lhws_rt ~workers ?fault (fun p rt ->
        let module Pool = P.Lhws_instance in
        Pool.run p (fun () ->
            let l =
              Rpc.serve
                (module Pool)
                p rt
                (Unix.ADDR_INET (Unix.inet_addr_loopback, 0))
                ~handler:Fun.id
            in
            let addr = Listener.addr l in
            let call =
              if resilient then begin
                let cls =
                  Array.init conns (fun _ ->
                      Rs.Client.create (module Pool) p rt ~policy:(policy ()) addr)
                in
                fun ci b -> Rs.Client.call cls.(ci) b
              end
              else begin
                let cls =
                  Array.init conns (fun _ -> Rpc.Client.connect (module Pool) p rt addr)
                in
                fun ci b -> Pool.await p (Rpc.Client.call cls.(ci) b)
              end
            in
            let t0 = Unix.gettimeofday () in
            let tasks =
              Array.init conns (fun ci ->
                  Pool.async p (fun () ->
                      let ok = ref 0 in
                      for k = 0 to iters - 1 do
                        let b = Bytes.create 8 in
                        Bytes.set_int64_be b 0 (Int64.of_int ((ci * 1_000_003) + k));
                        if Bytes.equal (call ci b) b then incr ok
                      done;
                      !ok))
            in
            let ok = Array.fold_left (fun acc t -> acc + Pool.await p t) 0 tasks in
            let wall = Unix.gettimeofday () -. t0 in
            Listener.shutdown ~grace:5. l;
            (wall, ok)))
  in
  let best_of k f =
    let best = ref infinity in
    for _ = 1 to k do
      let wall, ok = f () in
      R.expect (ok = conns * iters);
      best := Float.min !best wall
    done;
    !best
  in
  let t_plain = best_of 3 (run_leg ~resilient:false) in
  let t_res = best_of 3 (run_leg ~resilient:true) in
  (* The survival leg: a seeded storm of injected errors, short ops and
     spurious EAGAINs.  Delays and blackouts are left out so the wall
     stays comparable; correctness, not speed, is the claim here. *)
  let storm_cfg =
    { Fault.disabled with Fault.seed = 42; p_error = 0.02; p_short = 0.02; p_eagain = 0.02 }
  in
  let storm = Fault.create storm_cfg in
  let t_storm, ok_storm = run_leg ~fault:storm ~resilient:true () in
  R.expect (ok_storm = conns * iters);
  let injected = Fault.total (Fault.injected storm) in
  R.expect (injected > 0);
  let overhead = t_plain /. t_res in
  Bench_json.record ~scenario:"net_echo_faults" ~pool:"plain" ~workers ~wall_s:t_plain ();
  Bench_json.record ~scenario:"net_echo_faults" ~pool:"resilient" ~workers ~wall_s:t_res
    ~speedup:overhead ();
  Bench_json.record ~scenario:"net_echo_faults" ~pool:"resilient-storm" ~workers
    ~wall_s:t_storm
    ~counters:[ ("requests", conns * iters); ("injected", injected) ]
    ();
  Printf.printf
    "echo (%d conns x %d iters): plain %.3fs, resilient %.3fs (plain/resilient %.2fx)\n\
     storm: %.3fs, %d faults injected, every response checksummed\n\
     %!"
    conns iters t_plain t_res overhead t_storm injected

let register () =
  R.register ~name:"net_echo" ~skip_in_quick:true echo;
  R.register ~name:"net_map_reduce" ~skip_in_quick:true map_reduce;
  R.register ~name:"net_echo_batched" ~skip_in_quick:true echo_batched;
  R.register ~name:"net_echo_faults" ~skip_in_quick:true echo_faults
