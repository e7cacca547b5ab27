(* Baseline-specific behaviour only: blocking sleeps and the shared-core
   shutdown discipline.  Everything a pool must satisfy regardless of
   policy lives in test_pool_conformance.ml. *)

open Lhws_runtime
module Pool = Ws_pool

let test_sleep_blocks () =
  (* The baseline semantics: k sleeps of d seconds on one worker take
     ~k * d, because the worker blocks for each. *)
  Pool.with_pool ~workers:1 (fun p ->
      let k = 5 and d = 0.02 in
      let t0 = Unix.gettimeofday () in
      Pool.run p (fun () -> Pool.parallel_for p ~lo:0 ~hi:k (fun _ -> Pool.sleep p d));
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%.3fs ~ k*d" dt)
        true
        (dt >= float_of_int k *. d *. 0.9))

let test_steals_counted () =
  Pool.with_pool ~workers:2 (fun p ->
      let v =
        Pool.run p (fun () ->
            let pr = Pool.async p (fun () -> 42) in
            (* Block this worker well past the idle backoff: the only way
               the async task can run is a steal by the other worker. *)
            Pool.sleep p 0.2;
            Pool.await p pr)
      in
      Alcotest.(check int) "stolen task ran" 42 v;
      let st = Pool.stats p in
      Alcotest.(check bool) "at least one steal" true (st.Scheduler_core.steals >= 1))

let test_degenerate_stats () =
  (* The unified stats record: the single-deque baseline pins the
     multi-deque counters at their degenerate values. *)
  Pool.with_pool ~workers:3 (fun p ->
      ignore (Pool.run p (fun () -> Pool.parallel_for p ~lo:0 ~hi:50 ignore));
      let st = Pool.stats p in
      Alcotest.(check int) "deques = workers" 3 st.Scheduler_core.deques_allocated;
      Alcotest.(check int) "one deque per worker" 1 st.Scheduler_core.max_deques_per_worker;
      Alcotest.(check int) "no suspensions" 0 st.Scheduler_core.suspensions;
      Alcotest.(check int) "no resumes" 0 st.Scheduler_core.resumes)

let test_blocked_event_traced () =
  Pool.with_pool ~workers:1 (fun p ->
      let tr = Tracing.create ~workers:1 () in
      Pool.set_tracer p tr;
      Pool.run p (fun () -> Pool.sleep p 0.01);
      let blocked =
        List.filter (fun (e : Tracing.event) -> e.Tracing.kind = Tracing.Blocked)
          (Tracing.events tr)
      in
      match blocked with
      | [] -> Alcotest.fail "no Blocked event recorded"
      | e :: _ ->
          Alcotest.(check bool)
            (Printf.sprintf "duration %.0fus ~ sleep" e.Tracing.dur_us)
            true
            (e.Tracing.dur_us >= 9_000.))

let test_run_after_shutdown_raises () =
  let p = Pool.create ~workers:2 () in
  Pool.shutdown p;
  Alcotest.check_raises "run after shutdown"
    (Invalid_argument "Ws_pool.run: pool is shut down") (fun () ->
      ignore (Pool.run p (fun () -> 0)))

let () =
  Alcotest.run "ws_pool"
    [
      ( "blocking",
        [
          Alcotest.test_case "sleep blocks" `Quick test_sleep_blocks;
          Alcotest.test_case "steals counted" `Quick test_steals_counted;
          Alcotest.test_case "degenerate stats" `Quick test_degenerate_stats;
          Alcotest.test_case "blocked event traced" `Quick test_blocked_event_traced;
          Alcotest.test_case "run after shutdown raises" `Quick test_run_after_shutdown_raises;
        ] );
    ]
