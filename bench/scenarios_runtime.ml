(* The real effects-based pools: wall-clock comparisons across every
   POOL instance (latency-hiding, blocking baseline, thread-per-task),
   the fibers-vs-threads ablation, and the sim-predicts-runtime check. *)

module W = Lhws_workloads
module P = W.Pool_intf
module R = Registry

let stat_counters (stats : Lhws_runtime.Scheduler_core.stats) =
  [
    ("steals", stats.steals);
    ("failed_steals", stats.failed_steals);
    ("tasks_stolen", stats.tasks_stolen);
    ("deques_allocated", stats.deques_allocated);
    ("suspensions", stats.suspensions);
    ("resumes", stats.resumes);
    ("max_deques_per_worker", stats.max_deques_per_worker);
    ("io_pending", stats.io_pending);
    ("io_syscalls", stats.io_syscalls);
  ]

let runtime profile =
  R.section "RT | Real pools: latency-hiding vs blocking vs threads (wall-clock, 2 domains)";
  let workers = 2 in
  let n = R.pick profile ~full:60 ~smoke:8 in
  let fib_n = R.pick profile ~full:18 ~smoke:10 in
  let deltas = R.pick profile ~full:[ 0.05; 0.005; 0.0005 ] ~smoke:[ 0.002 ] in
  let run_mr (pool : P.pool) ~delta =
    let module Pool = (val pool : P.POOL) in
    let p = Pool.create ~workers () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () ->
        let r = W.Map_reduce.run_on (module Pool) p ~n ~latency:delta ~fib_n in
        Bench_json.record
          ~scenario:(Printf.sprintf "rt_map_reduce_delta%gms" (delta *. 1000.))
          ~pool:Pool.name ~workers ~wall_s:r.W.Map_reduce.elapsed
          ~counters:(stat_counters (Pool.stats p))
          ();
        r)
  in
  Printf.printf "map-reduce n=%d, fib(%d) per item:\n" n fib_n;
  Printf.printf "%10s %12s %12s %12s %8s\n" "delta" "LHWS (s)" "WS (s)" "threads (s)" "WS/LHWS";
  List.iter
    (fun delta ->
      let lh = run_mr P.lhws ~delta in
      let ws = run_mr P.ws ~delta in
      let th = run_mr P.threads ~delta in
      assert (lh.W.Map_reduce.value = ws.W.Map_reduce.value);
      assert (lh.W.Map_reduce.value = th.W.Map_reduce.value);
      Printf.printf "%8.1fms %12.3f %12.3f %12.3f %8.2f\n" (delta *. 1000.)
        lh.W.Map_reduce.elapsed ws.W.Map_reduce.elapsed th.W.Map_reduce.elapsed
        (ws.W.Map_reduce.elapsed /. lh.W.Map_reduce.elapsed))
    deltas;
  let pages = R.pick profile ~full:120 ~smoke:16 in
  let latency = R.pick profile ~full:0.01 ~smoke:0.002 in
  let parse_work = R.pick profile ~full:14 ~smoke:8 in
  let web = W.Crawler.make_web ~seed:42 ~pages ~max_links:4 in
  let crawl (pool : P.pool) =
    let module Pool = (val pool : P.POOL) in
    let p = Pool.create ~workers () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () ->
        let r = W.Crawler.crawl_on (module Pool) p web ~latency ~parse_work in
        Bench_json.record ~scenario:"rt_crawler" ~pool:Pool.name ~workers
          ~wall_s:r.W.Crawler.elapsed
          ~counters:(stat_counters (Pool.stats p))
          ();
        r)
  in
  let lh = crawl P.lhws and ws = crawl P.ws in
  Printf.printf "crawler (%d pages, %.0fms fetch): LHWS %.3fs vs WS %.3fs (%.1fx)\n%!" pages
    (latency *. 1000.) lh.W.Crawler.elapsed ws.W.Crawler.elapsed
    (ws.W.Crawler.elapsed /. lh.W.Crawler.elapsed)

let ablation_threads profile =
  R.section
    "AB4 | Fibers vs OS threads (Section 7): latency hidden either way, overhead differs";
  let fib_n = R.pick profile ~full:12 ~smoke:8 in
  let cases =
    R.pick profile ~full:[ (200, 0.); (200, 0.002); (1000, 0.) ] ~smoke:[ (50, 0.) ]
  in
  let fiber_mr ~n ~delta ~fib_n =
    let module Pool = (val P.lhws : P.POOL) in
    let p = Pool.create ~workers:2 () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown p)
      (fun () ->
        (W.Map_reduce.run_on (module Pool) p ~n ~latency:delta ~fib_n).W.Map_reduce.elapsed)
  in
  let thread_mr ~n ~delta ~fib_n =
    Lhws_runtime.Threaded_pool.with_pool ~max_threads:1024 (fun p ->
        let t0 = Unix.gettimeofday () in
        let v =
          Lhws_runtime.Threaded_pool.parallel_map_reduce p ~grain:1 ~lo:0 ~hi:n
            ~map:(fun _ ->
              Lhws_runtime.Threaded_pool.sleep p delta;
              W.Fib.seq fib_n mod W.Map_reduce.modulus)
            ~combine:(fun a b -> (a + b) mod W.Map_reduce.modulus)
            ~id:0
        in
        ignore v;
        let dt = Unix.gettimeofday () -. t0 in
        (dt, Lhws_runtime.Threaded_pool.threads_spawned p))
  in
  Printf.printf "map-reduce, fib(%d) per item (thread-per-item vs fiber-per-item):\n" fib_n;
  Printf.printf "%6s %8s | %12s | %12s %10s\n" "n" "delta" "fibers (s)" "threads (s)" "spawned";
  List.iter
    (fun (n, delta) ->
      let tf = fiber_mr ~n ~delta ~fib_n in
      let tt, spawned = thread_mr ~n ~delta ~fib_n in
      Bench_json.record
        ~scenario:(Printf.sprintf "ab4_n%d_delta%gms" n (delta *. 1000.))
        ~pool:"lhws" ~workers:2 ~wall_s:tf ();
      Bench_json.record
        ~scenario:(Printf.sprintf "ab4_n%d_delta%gms" n (delta *. 1000.))
        ~pool:"threads" ~workers:2 ~wall_s:tt
        ~counters:[ ("threads_spawned", spawned) ]
        ();
      Printf.printf "%6d %6.0fms | %12.4f | %12.4f %10d\n" n (delta *. 1000.) tf tt spawned)
    cases;
  Printf.printf
    "(both hide latency; the thread pool pays creation + kernel scheduling per task)\n%!"

let prediction profile =
  R.section
    "PRED | Cross-layer validation: simulator rounds predict runtime wall-clock (P = 1, one \
     core)";
  (* One work unit = a spin of ~10us; one latency unit = the same 10us via
     the timer.  The simulator charges one round per unit of either, so at
     P = 1 its round count times the unit duration should predict the real
     pool's elapsed time. *)
  let spin () =
    let acc = ref 0 in
    for i = 1 to 20_000 do
      acc := (!acc * 31) + i
    done;
    Sys.opaque_identity !acc |> ignore
  in
  let t0 = Unix.gettimeofday () in
  let calib_n = R.pick profile ~full:2_000 ~smoke:200 in
  for _ = 1 to calib_n do
    spin ()
  done;
  let unit_s = (Unix.gettimeofday () -. t0) /. float_of_int calib_n in
  Printf.printf "calibrated work unit: %.1f us\n" (unit_s *. 1e6);
  let programs =
    R.pick profile
      ~full:
        [
          ( "map_reduce(40,100,5)",
            lazy
              (W.Program.dist_map_reduce ~n:40 ~latency:100 ~leaf_work:5 ~f:Fun.id ~g:( + )
                 ~id:0) );
          ( "server(20,50,10)",
            lazy (W.Program.server ~n:20 ~latency:50 ~f_work:10 ~f:Fun.id ~g:( + ) ~id:0) );
          ( "map_reduce(100,20,10)",
            lazy
              (W.Program.dist_map_reduce ~n:100 ~latency:20 ~leaf_work:10 ~f:Fun.id ~g:( + )
                 ~id:0) );
        ]
      ~smoke:
        [
          ( "map_reduce(10,20,3)",
            lazy
              (W.Program.dist_map_reduce ~n:10 ~latency:20 ~leaf_work:3 ~f:Fun.id ~g:( + )
                 ~id:0) );
        ]
  in
  Printf.printf "%-28s %10s %12s %12s %8s\n" "program" "sim rounds" "predicted(s)"
    "measured(s)" "ratio";
  List.iter
    (fun (name, prog) ->
      let prog = Lazy.force prog in
      let rounds = (W.Program.simulate prog ~p:1).Lhws_core.Run.rounds in
      let predicted = float_of_int rounds *. unit_s in
      let module Pool = (val P.lhws : P.POOL) in
      let pool = Pool.create ~workers:1 () in
      let measured =
        Fun.protect
          ~finally:(fun () -> Pool.shutdown pool)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            ignore (W.Program.run_on (module Pool) pool ~work_unit:spin ~tick:unit_s prog);
            Unix.gettimeofday () -. t0)
      in
      Printf.printf "%-28s %10d %12.3f %12.3f %8.2f\n" name rounds predicted measured
        (measured /. predicted))
    programs;
  Printf.printf
    "(ratio ~ 1: the discrete model is a faithful predictor of the real scheduler)\n%!"

let register () =
  R.register ~name:"runtime" ~skip_in_quick:true runtime;
  R.register ~name:"ablation_threads" ~skip_in_quick:true ablation_threads;
  R.register ~name:"prediction" ~skip_in_quick:true prediction
